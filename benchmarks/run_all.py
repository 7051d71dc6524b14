"""Run every figure/table report in sequence.

Usage:  python benchmarks/run_all.py [output_file]

Prints each benchmark module's paper-style series (the same output the
per-module ``python benchmarks/bench_*.py`` invocations give), in
paper order, optionally writing them to a file instead.  The timings in
the reports are report text: the served-path benchmark
(``BENCHMARK.json``, ``benchmarks/e2e``) is what gates performance.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

MODULES = [
    "bench_table1_features",
    "bench_fig8_ivf_systems",
    "bench_fig9_hnsw_systems",
    "bench_fig10_scalability",
    "bench_fig11_cache_aware",
    "bench_fig12_simd",
    "bench_fig13_gpu_hybrid",
    "bench_fig14_attr_strategies",
    "bench_fig15_attr_systems",
    "bench_fig16_multivector",
    "bench_ablation_lsm",
    "bench_ablation_blocksize",
    "bench_ablation_batched_ivf",
    "bench_ablation_kernels",
    "bench_ablation_categorical",
    "bench_mixed_rw",
    "bench_obs_overhead",
]


def run_all(stream=None) -> None:
    out = stream or sys.stdout
    started = time.perf_counter()
    for name in MODULES:
        print(f"\n{'#' * 16} {name}", file=out)
        module = importlib.import_module(name)
        if stream is None:
            module.main()
        else:
            with contextlib.redirect_stdout(out):
                module.main()
    print(f"\nall reports done in {time.perf_counter() - started:.0f}s", file=out)


def main() -> None:
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as fh:
            run_all(fh)
        print(f"wrote {sys.argv[1]}")
    else:
        run_all()


if __name__ == "__main__":
    main()
