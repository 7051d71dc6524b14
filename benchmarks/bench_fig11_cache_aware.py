"""Figure 11: the cache-aware design, on both paper CPUs.

Two complementary reproductions:

* the analytical memory-traffic model on the paper's exact CPUs
  (i7-8700 / 12 MB L3, Xeon 8269 / 35.75 MB L3), batch 1000, data
  1e3..1e7 — modeled execution times and speedups (paper: up to 2.7x
  and 1.5x respectively);
* a *real* measured comparison of the two designs in this substrate
  (blocked GEMM vs per-query streaming), demonstrating the win is not
  an artifact of the model.  Its times are printed; the checks assert
  what the win is made of: the same answers from fewer passes over the
  data.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import print_series
from repro.datasets import sift_like
from repro.hetero import (
    CORE_I7_8700,
    XEON_PLATINUM_8269,
    CacheAwareSearcher,
    CacheTrafficModel,
)

BATCH = 1000
DIM = 128
K = 50
MODEL_SIZES = (10**3, 10**4, 10**5, 10**6, 10**7)

REAL_N = 20000
REAL_DIM = 32
REAL_BATCH = 512
#: the checks' real run: (rows, batch)
CHECK_REAL = (2000, 64)


def run_model(cpu):
    model = CacheTrafficModel(cpu)
    rows = []
    for n in MODEL_SIZES:
        rows.append(
            (
                n,
                model.time_original(BATCH, n, DIM, K),
                model.time_cache_aware(BATCH, n, DIM, K),
            )
        )
    return rows


def real_workload(n=REAL_N, batch=REAL_BATCH):
    data = sift_like(n, dim=REAL_DIM, n_clusters=32, seed=0)
    queries = sift_like(batch, dim=REAL_DIM, n_clusters=32, seed=9)
    return CacheAwareSearcher(data, "l2", cpu=XEON_PLATINUM_8269), queries


def run_real():
    searcher, queries = real_workload()
    searcher.search_original(queries[:16], K)  # warm-up
    started = time.perf_counter()
    searcher.search_original(queries, K)
    t_original = time.perf_counter() - started
    started = time.perf_counter()
    searcher.search_cache_aware(queries, K, threads=4)
    t_blocked = time.perf_counter() - started
    return t_original, t_blocked


def test_modeled_speedup_matches_paper():
    """Sec. 7.4: 2.7x on the 12MB CPU, 1.5x on the 35.75MB CPU."""
    for cpu, lo, hi in [(CORE_I7_8700, 2.2, 3.2), (XEON_PLATINUM_8269, 1.2, 1.8)]:
        rows = run_model(cpu)
        n, orig, blocked = rows[-1]  # largest data size
        assert lo <= orig / blocked <= hi


def test_speedup_grows_with_data_size():
    rows = run_model(CORE_I7_8700)
    speedups = [orig / blocked for __, orig, blocked in rows]
    assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))


def test_real_blocked_design_streams_data_less():
    """The real blocked design returns the original's top-k distances
    (to GEMM rounding) after streaming the data once per query block
    instead of once per query."""
    searcher, queries = real_workload(*CHECK_REAL)
    __, original = searcher.search_original(queries, K)
    assert searcher.last_stats.data_passes == len(queries)
    __, blocked = searcher.search_cache_aware(queries, K, threads=4)
    np.testing.assert_allclose(blocked, original, rtol=1e-4, atol=1e-3)
    assert searcher.last_stats.data_passes < len(queries) / 4


def main():
    for cpu, label in [(CORE_I7_8700, "Fig. 11a (12MB L3, i7-8700)"),
                       (XEON_PLATINUM_8269, "Fig. 11b (35.75MB L3, Xeon 8269)")]:
        print(f"=== {label}: modeled execution time, batch={BATCH} ===")
        rows = run_model(cpu)
        print_series(
            "original", [n for n, *__ in rows], [f"{o:.3f}s" for __, o, ___ in rows]
        )
        print_series(
            "cache-aware", [n for n, *__ in rows], [f"{c:.3f}s" for __, ___, c in rows]
        )
        print_series(
            "speedup", [n for n, *__ in rows],
            [f"{o / c:.2f}x" for __, o, c in rows],
        )
    t_original, t_blocked = run_real()
    print(f"real measurement (n={REAL_N}, batch={REAL_BATCH}): "
          f"original={t_original:.3f}s blocked={t_blocked:.3f}s "
          f"speedup={t_original / t_blocked:.2f}x")


if __name__ == "__main__":
    main()
