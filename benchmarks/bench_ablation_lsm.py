"""Ablation: the tiered merge policy (DESIGN.md design-choice bench).

Sweeps the merge factor and size limit to expose the trade-off the
paper's "merge segments of approximately equal sizes until a
configurable size limit" policy navigates: merging costs write
amplification but pays back in fewer segments per search.  The checks
count segments, merges and the scans a search makes; main prints qps.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.datasets import random_queries, sift_like
from repro.obs.profile import QueryProfile
from repro.storage import LSMConfig, LSMManager, TieredMergePolicy

DIM = 32
BATCHES = 16
BATCH_ROWS = 500
K = 10

SPECS = {"emb": (DIM, "l2")}


def build_lsm(merge_factor, auto_merge=True):
    policy = TieredMergePolicy(merge_factor=merge_factor, min_segment_bytes=1)
    cfg = LSMConfig(
        memtable_flush_bytes=1 << 30,
        index_build_min_rows=1 << 30,
        auto_merge=auto_merge,
        merge_policy=policy,
    )
    return LSMManager(SPECS, (), cfg)


def ingest(lsm, data):
    for b in range(BATCHES):
        sl = slice(b * BATCH_ROWS, (b + 1) * BATCH_ROWS)
        lsm.insert(np.arange(sl.start, sl.stop), {"emb": data[sl]})
        lsm.flush()


def run_ablation():
    """[(label, live segments, merges, qps, segments scanned, result)]."""
    data = sift_like(BATCHES * BATCH_ROWS, dim=DIM, seed=0)
    queries = random_queries(data, 50, seed=1)
    rows = []
    for merge_factor, label in [(None, "no merging"), (8, "factor=8"), (2, "factor=2")]:
        if merge_factor is None:
            lsm = build_lsm(2, auto_merge=False)
        else:
            lsm = build_lsm(merge_factor)
        ingest(lsm, data)
        segments = len(lsm.manifest.live_segment_ids())
        with QueryProfile("bench") as prof:
            result = lsm.search("emb", queries, K)
        scanned = prof.root.children[0].attrs["segments"]
        started = time.perf_counter()
        lsm.search("emb", queries, K)
        elapsed = time.perf_counter() - started
        rows.append((label, segments, lsm.merge_count, 50 / elapsed, scanned, result))
    return rows


@pytest.fixture(scope="module")
def ablation():
    return run_ablation()


def test_merging_reduces_segment_count(ablation):
    by_label = {label: segs for label, segs, *_ in ablation}
    assert by_label["factor=2"] < by_label["no merging"]


def test_aggressive_merging_more_merge_work(ablation):
    by_label = {label: merges for label, __, merges, *___ in ablation}
    assert by_label["factor=2"] >= by_label["factor=8"] >= by_label["no merging"]


def test_fewer_segments_fewer_scans_same_answer(ablation):
    """A search scans every live segment once, so merging cuts the
    per-segment scans (and their merge) without changing the answer."""
    by_label = {label: rest for label, *rest in ablation}
    for segments, __, ___, scanned, ____ in by_label.values():
        assert scanned == segments
    merged, unmerged = by_label["factor=2"][-1], by_label["no merging"][-1]
    assert by_label["factor=2"][3] < by_label["no merging"][3]
    assert (merged.ids == unmerged.ids).all()


def main():
    print("=== Ablation: tiered merge policy ===")
    rows = run_ablation()
    for label, segments, merges, qps, *__ in rows:
        print(f"  {label:12s} segments={segments:3d} merges={merges:3d} {qps:8.1f} qps")


if __name__ == "__main__":
    main()
