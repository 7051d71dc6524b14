"""Figure 13: GPU indexing — pure CPU vs pure GPU vs SQ8H.

The paper's setting (SIFT1B, data larger than the T4's 16 GB) is
reproduced with the analytical device model at the paper's own scale
(n=1e9, d=128, nlist=16384), sweeping the query batch size 1..500.
Expected shape: GPU slower than CPU throughout (PCIe transfer
dominates), the gap narrowing as the batch grows; SQ8H below both
everywhere.  A small real execution validates Algorithm 1's mode
switch over an actual IVF_SQ8 index, and the ablation sweep covers the
batch-threshold design choice flagged in DESIGN.md.
"""

from __future__ import annotations

import pytest

from repro.bench import print_series
from repro.datasets import sift_like
from repro.hetero import GPUDevice, SQ8HConfig, SQ8HExecutor
from repro.index import IVFSQ8Index

N = 10**9
DIM = 128
NLIST = 16384
BATCHES = (1, 50, 100, 200, 300, 400, 500)


def run_figure(threshold=1000, nprobe=64):
    ex = SQ8HExecutor(config=SQ8HConfig(batch_threshold=threshold, nprobe=nprobe))
    rows = []
    for m in BATCHES:
        t = ex.model_times(m, n=N, dim=DIM, nlist=NLIST)
        rows.append((m, t["pure_cpu"], t["pure_gpu"], t["sq8h"]))
    return rows


def test_sq8h_fastest_everywhere():
    for __, cpu, gpu, sq8h in run_figure():
        assert sq8h <= min(cpu, gpu) + 1e-9


def test_gpu_slower_than_cpu_at_this_scale():
    """Paper: 'GPU SQ8 is slower than CPU SQ8 due to the data transfer'."""
    for __, cpu, gpu, ___ in run_figure():
        assert gpu > cpu


def test_gap_narrows_with_batch():
    rows = run_figure()
    ratios = [gpu / cpu for __, cpu, gpu, ___ in rows]
    assert ratios[-1] < ratios[0]


def test_threshold_ablation():
    """Above the threshold the batched-GPU branch must be the winner,
    otherwise the threshold is mis-set — the design choice the paper
    justifies with 'GPU outperforms CPU only if the batch is large'."""
    ex = SQ8HExecutor(config=SQ8HConfig(batch_threshold=1000, nprobe=64))
    big = 4000
    t = ex.model_times(big, n=N, dim=DIM, nlist=NLIST)
    assert t["sq8h"] < t["pure_cpu"]  # the GPU branch pays off past the threshold


def test_real_mode_switch():
    data = sift_like(800, dim=16, seed=0)
    index = IVFSQ8Index(16, nlist=8, seed=0)
    index.train(data)
    index.add(data)
    ex = SQ8HExecutor(index=index, config=SQ8HConfig(batch_threshold=8, nprobe=8))
    ex.search(data[:2], 5)
    assert ex.last_plan.mode == "hybrid"
    ex.search(data[:16], 5)
    assert ex.last_plan.mode == "gpu"


def main():
    print(f"=== Figure 13: modeled, n={N:.0e}, d={DIM}, nlist={NLIST}, nprobe=64 ===")
    rows = run_figure()
    print_series("pure CPU", [m for m, *__ in rows], [f"{t:.2f}s" for __, t, *___ in rows])
    print_series("pure GPU", [m for m, *__ in rows], [f"{t:.2f}s" for __, ___, t, ____ in rows])
    print_series("SQ8H", [m for m, *__ in rows], [f"{t:.2f}s" for *__, t in rows])
    print("--- ablation: batch threshold ---")
    ex = SQ8HExecutor(config=SQ8HConfig(batch_threshold=1000, nprobe=64))
    for m in (500, 1000, 2000, 4000):
        t = ex.model_times(m, n=N, dim=DIM, nlist=NLIST)
        plan = ex.model_plan(m, n=N, dim=DIM, nlist=NLIST)
        print(f"batch={m}: mode={plan.mode} sq8h={t['sq8h']:.2f}s cpu={t['pure_cpu']:.2f}s")


if __name__ == "__main__":
    main()
