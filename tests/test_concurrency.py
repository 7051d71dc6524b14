"""Concurrent readers vs a writing thread: snapshot isolation in anger."""

import threading

import numpy as np
import pytest

from repro.core import CollectionSchema, Collection, VectorField
from repro.storage import LSMConfig, TieredMergePolicy
from repro.datasets import sift_like


def make_collection():
    schema = CollectionSchema("c", vector_fields=[VectorField("emb", 8)])
    cfg = LSMConfig(
        memtable_flush_bytes=1 << 30,
        index_build_min_rows=1 << 30,
        merge_policy=TieredMergePolicy(merge_factor=2, min_segment_bytes=1),
    )
    return Collection(schema, lsm_config=cfg)


class TestConcurrentReadsDuringWrites:
    def test_searches_consistent_under_mutation(self):
        coll = make_collection()
        data = sift_like(2000, dim=8, seed=0)
        coll.insert({"emb": data[:1000]})
        coll.flush()

        errors = []
        stop = threading.Event()

        def reader():
            # Each iteration takes its own snapshot; results must always
            # be internally consistent (self is its own best match among
            # whatever rows are visible).
            try:
                while not stop.is_set():
                    result = coll.search("emb", data[:5], 1)
                    for qi in range(5):
                        # rows 0..4 exist (flushed before the storm and
                        # never deleted), so each must stay its own
                        # exact nearest neighbour at every instant.
                        if result.ids[qi, 0] != qi:
                            errors.append(
                                f"query {qi} lost its exact match: {result.ids[qi, 0]}"
                            )
                            return
            except Exception as exc:  # noqa: BLE001 - surface to main thread
                errors.append(repr(exc))

        threads = [threading.Thread(target=reader) for __ in range(3)]
        for t in threads:
            t.start()
        try:
            for start in range(1000, 2000, 100):
                coll.insert({"emb": data[start : start + 100]})
                coll.flush()
                coll.compact()
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not errors, errors[:3]

    def test_snapshot_refcounts_balanced_after_storm(self):
        coll = make_collection()
        data = sift_like(600, dim=8, seed=2)
        coll.insert({"emb": data})
        coll.flush()
        manifest = coll.lsm.manifest
        snaps = [coll.lsm.snapshot() for __ in range(8)]
        coll.delete(list(range(10)))
        coll.flush()
        coll.compact()
        for snap in snaps:
            coll.lsm.release(snap)
        # After releasing everything, only the current version survives.
        assert manifest.referenced_segment_ids() == set(
            manifest.live_segment_ids()
        )
