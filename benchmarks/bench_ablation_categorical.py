"""Ablation: categorical index structures — inverted lists vs bitmaps.

The paper's future-work feature (Sec. 2.1) implemented in this repo:
categorical attributes indexed by inverted lists or bitmaps.  This
bench sweeps value cardinality and shows the trade the auto heuristic
navigates: bitmaps are compact and compose fast at low cardinality;
inverted lists win on memory and lookup at high cardinality.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import print_table
from repro.storage.categorical import BitmapIndex, InvertedIndex

N_ROWS = 50000
LOOKUPS = 200


def build_and_measure(index_cls, codes, row_ids, query_codes):
    started = time.perf_counter()
    index = index_cls(codes, row_ids)
    build_s = time.perf_counter() - started
    started = time.perf_counter()
    for code in query_codes:
        index.rows_in([int(code), int(code) + 1])
    lookup_s = (time.perf_counter() - started) / len(query_codes)
    return build_s, lookup_s, index.memory_bytes()


def run_sweep():
    rng = np.random.default_rng(0)
    row_ids = np.arange(N_ROWS, dtype=np.int64)
    rows = []
    for cardinality in (4, 64, 1024):
        codes = rng.integers(0, cardinality, N_ROWS).astype(np.int64)
        query_codes = rng.integers(0, cardinality, LOOKUPS)
        for cls in (InvertedIndex, BitmapIndex):
            build_s, lookup_s, mem = build_and_measure(cls, codes, row_ids, query_codes)
            rows.append((cardinality, cls.__name__, build_s, lookup_s, mem))
    return rows


@pytest.fixture(scope="module")
def sweep():
    return run_sweep()


def _pick(sweep, cardinality, cls_name):
    return next(r for r in sweep if r[0] == cardinality and r[1] == cls_name)


def test_structures_return_same_rows():
    rng = np.random.default_rng(1)
    codes = rng.integers(0, 32, 5000).astype(np.int64)
    rows = np.arange(5000, dtype=np.int64)
    inv = InvertedIndex(codes, rows)
    bmp = BitmapIndex(codes, rows)
    for code in range(32):
        np.testing.assert_array_equal(inv.rows_equal(code), bmp.rows_equal(code))


def test_bitmap_memory_explodes_at_high_cardinality(sweep):
    """One bitset per distinct value: memory ~ cardinality * n/8."""
    low = _pick(sweep, 4, "BitmapIndex")[4]
    high = _pick(sweep, 1024, "BitmapIndex")[4]
    assert high > 10 * low


def test_inverted_memory_flat_across_cardinality(sweep):
    """Id lists partition the rows: total size ~ constant."""
    low = _pick(sweep, 4, "InvertedIndex")[4]
    high = _pick(sweep, 1024, "InvertedIndex")[4]
    assert high < 3 * low


def test_inverted_beats_bitmap_memory_at_high_cardinality(sweep):
    inv = _pick(sweep, 1024, "InvertedIndex")[4]
    bmp = _pick(sweep, 1024, "BitmapIndex")[4]
    assert inv < bmp


def main():
    rows = run_sweep()
    print_table(
        ["cardinality", "structure", "build (s)", "lookup (ms)", "memory (KB)"],
        [
            (card, name, f"{b:.4f}", f"{l * 1000:.3f}", f"{mem / 1024:.0f}")
            for card, name, b, l, mem in rows
        ],
        title="Ablation: categorical index structures (50k rows)",
    )


if __name__ == "__main__":
    main()
