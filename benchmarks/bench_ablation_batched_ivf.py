"""Ablation: bucket-major batched IVF execution vs per-query search.

The cache-aware idea (Sec. 3.2.1) applied to inverted files: instead
of each query streaming its probed buckets, each bucket is scanned
once for every query probing it.  This is the real (measured, not
modeled) engine-level speedup behind the Milvus curves in Fig. 8.

Since the kernel push the bucket-major loop lives inside
``IVFIndexBase._search_pruned`` (and ``BatchedIVFSearcher`` merely
delegates), so the per-query side of this ablation pins
``REPRO_KERNELS=0`` to force the reference per-query-per-bucket path.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
import pytest

from repro.bench import print_series
from repro.datasets import random_queries, sift_like
from repro.hetero.batched import BatchedIVFSearcher
from repro.index import IVFFlatIndex

N = 30000
DIM = 48
K = 10
BATCHES = (1, 8, 64, 256, 1024)

_cache = {}


@contextlib.contextmanager
def reference_path():
    """Force the per-query reference scan loop (kernels disabled)."""
    old = os.environ.get("REPRO_KERNELS")
    os.environ["REPRO_KERNELS"] = "0"
    try:
        yield
    finally:
        if old is None:
            del os.environ["REPRO_KERNELS"]
        else:
            os.environ["REPRO_KERNELS"] = old


def setup():
    if "bundle" not in _cache:
        data = sift_like(N, dim=DIM, n_clusters=64, seed=0)
        queries = random_queries(data, max(BATCHES), seed=1)
        index = IVFFlatIndex(DIM, nlist=128, seed=0)
        index.train(data)
        index.add(data)
        _cache["bundle"] = (queries, index, BatchedIVFSearcher(index))
    return _cache["bundle"]


def run_sweep(nprobe=16):
    queries, index, batched = setup()
    rows = []
    for m in BATCHES:
        q = queries[:m]
        index.search(q[:1], K, nprobe=nprobe)  # warm-up
        with reference_path():
            t0 = time.perf_counter()
            index.search(q, K, nprobe=nprobe)
            per_query = time.perf_counter() - t0
        t0 = time.perf_counter()
        batched.search(q, K, nprobe=nprobe)
        bucket_major = time.perf_counter() - t0
        rows.append((m, per_query, bucket_major))
    return rows


@pytest.fixture(scope="module")
def sweep():
    return run_sweep()


def test_identical_results():
    queries, index, batched = setup()
    with reference_path():
        r1 = index.search(queries[:64], K, nprobe=16)
    r2 = batched.search(queries[:64], K, nprobe=16)
    np.testing.assert_array_equal(r1.ids, r2.ids)


def test_batched_wins_at_large_batch(sweep):
    m, per_query, bucket_major = sweep[-1]
    assert bucket_major < per_query


def test_advantage_grows_with_batch(sweep):
    ratios = [pq / bm for __, pq, bm in sweep]
    assert ratios[-1] > ratios[0]


def test_benchmark_per_query(benchmark):
    queries, index, __ = setup()
    with reference_path():
        benchmark(lambda: index.search(queries[:256], K, nprobe=16))


def test_benchmark_bucket_major(benchmark):
    queries, __, batched = setup()
    benchmark(lambda: batched.search(queries[:256], K, nprobe=16))


def main():
    rows = run_sweep()
    print("=== Ablation: per-query vs bucket-major IVF execution ===")
    print_series(
        "speedup", [m for m, *__ in rows],
        [f"{pq / bm:.2f}x" for __, pq, bm in rows],
    )
    for m, pq, bm in rows:
        print(f"  batch {m:5d}: per-query {pq * 1000:8.1f}ms  "
              f"bucket-major {bm * 1000:8.1f}ms")


if __name__ == "__main__":
    main()
