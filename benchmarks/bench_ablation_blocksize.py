"""Ablation: Equation (1) query-block sizing vs naive fixed blocks.

DESIGN.md design-choice bench.  The paper sizes query blocks so that
queries + per-thread heaps exactly fill L3; this ablation compares the
modeled *memory traffic* (the quantity the optimization targets) for
fixed block sizes around the Equation (1) value:

* blocks below s — more data passes than necessary (wasted reuse);
* blocks above s — the block no longer fits, so reuse degrades back
  toward per-query streaming (cache thrash).

Equation (1)'s choice minimizes traffic, with a real cross-check on
the blocked executor: the same answers from fewer passes over the data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import print_series
from repro.datasets import sift_like
from repro.hetero import CacheAwareSearcher, XEON_PLATINUM_8269, query_block_size

BATCH = 8000
DIM = 128
K = 400  # large-k heaps shrink Equation (1)'s s below the batch size
N = 10**7
_FLOAT = 4


def effective_passes(m, block, s_fit):
    """Full-data passes for a given block size.

    Blocks that fit stream the data once per block.  Oversize blocks
    overflow L3, and the competing query/heap working set interferes
    with data-line reuse: the classic thrash approximation keeps an
    effective reuse of ``s_fit^2 / block`` queries per data load, so
    traffic grows linearly in the oversubscription factor.
    """
    if block <= s_fit:
        return m / block
    effective_reuse = s_fit * s_fit / block
    return m / effective_reuse


def modeled_traffic(m, n, dim, block, s_fit):
    data_bytes = n * dim * _FLOAT
    return effective_passes(m, block, s_fit) * data_bytes


def run_sweep():
    cpu = XEON_PLATINUM_8269
    s_eq1 = query_block_size(cpu.l3_bytes, DIM, cpu.threads, K)
    s_eq1 = min(s_eq1, BATCH)
    candidates = [max(1, s_eq1 // 16), max(1, s_eq1 // 4), s_eq1,
                  min(BATCH, s_eq1 * 4) if s_eq1 * 4 > s_eq1 else s_eq1]
    # Always include an oversize candidate even when s_eq1 >= BATCH.
    oversize = s_eq1 * 4
    candidates = sorted({max(1, s_eq1 // 16), max(1, s_eq1 // 4), s_eq1, oversize})
    rows = [(b, modeled_traffic(BATCH, N, DIM, b, s_eq1)) for b in candidates]
    return s_eq1, rows


@pytest.fixture(scope="module")
def sweep():
    return run_sweep()


def test_equation_one_minimizes_traffic(sweep):
    s_eq1, rows = sweep
    traffic = dict(rows)
    assert traffic[s_eq1] == min(traffic.values())


def test_too_small_blocks_more_traffic(sweep):
    s_eq1, rows = sweep
    traffic = dict(rows)
    assert traffic[max(1, s_eq1 // 16)] > traffic[s_eq1]


def test_oversize_blocks_more_traffic(sweep):
    s_eq1, rows = sweep
    traffic = dict(rows)
    assert traffic[s_eq1 * 4] > traffic[s_eq1]


def test_real_blocked_streams_less_than_tiny_blocks():
    """Real cross-check: Equation (1)-sized blocks return block=1's
    answers from fewer passes over the data."""
    data = sift_like(2000, dim=32, seed=0)
    queries = sift_like(64, dim=32, seed=9)
    searcher = CacheAwareSearcher(data, "l2", cpu=XEON_PLATINUM_8269)
    __, tiny = searcher.search_cache_aware(queries, K, threads=4, block_size=1)
    assert searcher.last_stats.data_passes == len(queries)
    __, eq1 = searcher.search_cache_aware(queries, K, threads=4)  # Equation (1)
    np.testing.assert_allclose(eq1, tiny, rtol=1e-4, atol=1e-3)
    assert searcher.last_stats.data_passes < len(queries)


def main():
    s_eq1, rows = run_sweep()
    print(f"=== Ablation: query block size (Equation (1) -> s={s_eq1}) ===")
    print_series(
        "modeled traffic",
        [b for b, __ in rows],
        [f"{t / 1e9:.1f} GB" for __, t in rows],
    )


if __name__ == "__main__":
    main()
