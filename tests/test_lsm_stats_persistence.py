"""LSM stats API and persisted-index loading."""

import os

import numpy as np
import pytest

from repro.storage import InMemoryObjectStore, LSMConfig, LSMManager, TieredMergePolicy
from repro.storage.filesystem import LocalFileSystem
from repro.datasets import sift_like

SPECS = {"emb": (16, "l2")}


def make_lsm(fs=None, **overrides):
    defaults = dict(
        memtable_flush_bytes=1 << 30,
        index_build_min_rows=1 << 30,
        auto_merge=False,
        merge_policy=TieredMergePolicy(merge_factor=2, min_segment_bytes=1),
        index_params={"nlist": 8},
    )
    defaults.update(overrides)
    return LSMManager(SPECS, (), LSMConfig(**defaults), fs=fs)


class TestStats:
    def test_counts_track_activity(self):
        lsm = make_lsm()
        data = sift_like(300, dim=16, seed=0)
        stats = lsm.stats()
        assert stats["live_rows"] == 0 and stats["live_segments"] == 0
        lsm.insert(np.arange(300), {"emb": data})
        assert lsm.stats()["unflushed_rows"] == 300
        lsm.flush()
        lsm.delete(np.array([1, 2]))
        lsm.flush()
        stats = lsm.stats()
        assert stats["live_rows"] == 298
        assert stats["tombstones"] == 2
        assert stats["flush_count"] == 2
        assert stats["manifest_version"] >= 2

    def test_stored_bytes_are_the_live_segment_files(self, tmp_path):
        lsm = make_lsm(LocalFileSystem(str(tmp_path)))
        assert lsm.stats()["stored_bytes"] == 0
        data = sift_like(300, dim=16, seed=2)
        segment_dir = tmp_path / "segments"

        def on_disk():
            names = os.listdir(segment_dir)
            return len(names), sum(os.path.getsize(segment_dir / n) for n in names)

        for lo in (0, 100, 200):
            lsm.insert(np.arange(lo, lo + 100), {"emb": data[lo:lo + 100]})
            lsm.flush()
        stats = lsm.stats()
        assert (stats["live_segments"], stats["stored_bytes"]) == on_disk()
        assert stats["live_segments"] == 3
        assert lsm.maybe_merge() >= 1
        lsm.flush()  # drains the merged-away inputs' files
        stats = lsm.stats()
        assert (stats["live_segments"], stats["stored_bytes"]) == on_disk()
        assert stats["live_segments"] < 3

    def test_indexed_segments_counted(self):
        lsm = make_lsm()
        data = sift_like(200, dim=16, seed=1)
        lsm.insert(np.arange(200), {"emb": data})
        lsm.flush()
        assert lsm.stats()["indexed_segments"] == 0
        lsm.build_index("emb")
        assert lsm.stats()["indexed_segments"] == 1


class TestPersistedIndexLoad:
    def test_index_blob_written_and_loaded(self):
        fs = InMemoryObjectStore()
        lsm = make_lsm(fs=fs)
        data = sift_like(300, dim=16, seed=2)
        lsm.insert(np.arange(300), {"emb": data})
        lsm.flush()
        lsm.build_index("emb", "IVF_FLAT", nlist=8)
        seg_id = lsm.manifest.live_segment_ids()[0]
        assert fs.exists(f"indexes/{seg_id:012d}__emb.idx")

        before = lsm.search("emb", data[:5], 3, nprobe=8)
        lsm.bufferpool.invalidate(seg_id)
        # Reload goes through index_from_bytes, not a k-means rebuild.
        reloaded = lsm.bufferpool.get(seg_id)
        assert reloaded.has_index("emb")
        after = lsm.search("emb", data[:5], 3, nprobe=8)
        np.testing.assert_array_equal(before.ids, after.ids)

    def test_loaded_index_is_identical_not_retrained(self):
        """The persisted blob preserves the exact centroids, so results
        match bit-for-bit (a retrain could differ)."""
        fs = InMemoryObjectStore()
        lsm = make_lsm(fs=fs)
        data = sift_like(300, dim=16, seed=3)
        lsm.insert(np.arange(300), {"emb": data})
        lsm.flush()
        lsm.build_index("emb", "IVF_FLAT", nlist=8)
        seg_id = lsm.manifest.live_segment_ids()[0]
        original = lsm.bufferpool.get(seg_id).indexes["emb"].centroids.copy()
        lsm.bufferpool.invalidate(seg_id)
        restored = lsm.bufferpool.get(seg_id).indexes["emb"].centroids
        np.testing.assert_array_equal(original, restored)

    def test_index_blob_deleted_with_segment(self):
        fs = InMemoryObjectStore()
        lsm = make_lsm(fs=fs)
        data = sift_like(200, dim=16, seed=4)
        for i in range(2):
            lsm.insert(np.arange(i * 100, (i + 1) * 100), {"emb": data[i * 100:(i + 1) * 100]})
            lsm.flush()
        lsm.build_index("emb", "IVF_FLAT", nlist=4)
        old_ids = lsm.manifest.live_segment_ids()
        lsm.maybe_merge()
        for seg_id in old_ids:
            assert not fs.exists(f"indexes/{seg_id:012d}__emb.idx")

    def test_nonserializable_index_rebuilds(self):
        fs = InMemoryObjectStore()
        lsm = make_lsm(fs=fs)
        data = sift_like(150, dim=16, seed=5)
        lsm.insert(np.arange(150), {"emb": data})
        lsm.flush()
        lsm.build_index("emb", "HNSW", M=4, ef_construction=20)
        seg_id = lsm.manifest.live_segment_ids()[0]
        assert not fs.exists(f"indexes/{seg_id:012d}__emb.idx")
        lsm.bufferpool.invalidate(seg_id)
        reloaded = lsm.bufferpool.get(seg_id)
        assert reloaded.has_index("emb")  # rebuilt from spec
        assert reloaded.indexes["emb"].index_type == "HNSW"
