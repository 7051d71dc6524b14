"""LSM manager integration: flush, merge, deletes, snapshots, recovery."""

import numpy as np
import pytest

from repro.storage import (
    InMemoryObjectStore,
    LSMConfig,
    LSMManager,
    TieredMergePolicy,
)
from repro.datasets import sift_like

SPECS = {"emb": (16, "l2")}


def make_lsm(fs=None, **overrides):
    defaults = dict(
        memtable_flush_bytes=1 << 30,
        index_build_min_rows=1 << 30,
        merge_policy=TieredMergePolicy(merge_factor=2, min_segment_bytes=1),
        auto_merge=False,
    )
    defaults.update(overrides)
    return LSMManager(SPECS, ("price",), LSMConfig(**defaults), fs=fs)


@pytest.fixture()
def data():
    return sift_like(600, dim=16, seed=0)


@pytest.fixture()
def prices(rng):
    return rng.uniform(0, 100, 600)


class TestWritePath:
    def test_insert_invisible_until_flush(self, data, prices):
        lsm = make_lsm()
        lsm.insert(np.arange(100), {"emb": data[:100]}, {"price": prices[:100]})
        assert lsm.num_live_rows == 0
        assert lsm.unflushed_rows == 100
        lsm.flush()
        assert lsm.num_live_rows == 100
        assert lsm.unflushed_rows == 0

    def test_auto_flush_on_size(self, data, prices):
        lsm = make_lsm(memtable_flush_bytes=1000)
        lsm.insert(np.arange(100), {"emb": data[:100]}, {"price": prices[:100]})
        assert lsm.flush_count >= 1
        assert lsm.num_live_rows == 100

    def test_tick_flushes_on_interval(self, data, prices):
        lsm = make_lsm(flush_interval_seconds=1.0)
        lsm.insert(np.arange(10), {"emb": data[:10]}, {"price": prices[:10]})
        assert not lsm.tick(0.5)
        assert lsm.tick(1.5)
        assert lsm.num_live_rows == 10

    def test_flush_empty_noop(self):
        lsm = make_lsm()
        assert lsm.flush() is None
        assert lsm.flush_count == 0


class TestSearchAndDeletes:
    def test_search_across_segments(self, data, prices):
        lsm = make_lsm()
        for i in range(3):
            sl = slice(i * 200, (i + 1) * 200)
            lsm.insert(np.arange(i * 200, (i + 1) * 200), {"emb": data[sl]}, {"price": prices[sl]})
            lsm.flush()
        result = lsm.search("emb", data[450], 1)
        assert result.ids[0, 0] == 450

    def test_delete_hides_row(self, data, prices):
        lsm = make_lsm()
        lsm.insert(np.arange(100), {"emb": data[:100]}, {"price": prices[:100]})
        lsm.flush()
        lsm.delete(np.array([42]))
        lsm.flush()
        result = lsm.search("emb", data[42], 1)
        assert result.ids[0, 0] != 42
        assert lsm.num_live_rows == 99

    def test_snapshot_isolation_under_delete(self, data, prices):
        lsm = make_lsm()
        lsm.insert(np.arange(100), {"emb": data[:100]}, {"price": prices[:100]})
        lsm.flush()
        snap = lsm.snapshot()
        lsm.delete(np.array([42]))
        lsm.flush()
        old = lsm.search("emb", data[42], 1, snapshot=snap)
        new = lsm.search("emb", data[42], 1)
        assert old.ids[0, 0] == 42
        assert new.ids[0, 0] != 42
        lsm.release(snap)

    def test_merge_removes_tombstones_physically(self, data, prices):
        lsm = make_lsm()
        for i in range(2):
            sl = slice(i * 100, (i + 1) * 100)
            lsm.insert(np.arange(i * 100, (i + 1) * 100), {"emb": data[sl]}, {"price": prices[sl]})
            lsm.flush()
        lsm.delete(np.array([5, 150]))
        lsm.flush()
        assert len(lsm.manifest.current_tombstones()) == 2
        merged = lsm.maybe_merge()
        assert merged >= 1
        assert len(lsm.manifest.current_tombstones()) == 0
        assert lsm.num_live_rows == 198

    def test_search_after_merge_consistent(self, data, prices):
        lsm = make_lsm()
        for i in range(4):
            sl = slice(i * 150, (i + 1) * 150)
            lsm.insert(np.arange(i * 150, (i + 1) * 150), {"emb": data[sl]}, {"price": prices[sl]})
            lsm.flush()
        before = lsm.search("emb", data[:5], 3)
        lsm.maybe_merge()
        after = lsm.search("emb", data[:5], 3)
        np.testing.assert_array_equal(before.ids, after.ids)

    def test_auto_merge_reduces_segment_count(self, data, prices):
        lsm = make_lsm(auto_merge=True)
        for i in range(4):
            sl = slice(i * 150, (i + 1) * 150)
            lsm.insert(np.arange(i * 150, (i + 1) * 150), {"emb": data[sl]}, {"price": prices[sl]})
            lsm.flush()
        assert len(lsm.manifest.live_segment_ids()) < 4


class TestIndexBuilding:
    def test_indexes_built_for_large_segments_only(self, data, prices):
        lsm = make_lsm(index_build_min_rows=150, index_params={"nlist": 8})
        lsm.insert(np.arange(100), {"emb": data[:100]}, {"price": prices[:100]})
        lsm.flush()
        lsm.insert(np.arange(100, 300), {"emb": data[100:300]}, {"price": prices[100:300]})
        lsm.flush()
        segments = lsm.live_segments()
        small = next(s for s in segments if s.num_rows == 100)
        large = next(s for s in segments if s.num_rows == 200)
        assert not small.has_index("emb")
        assert large.has_index("emb")

    def test_manual_index_any_size(self, data, prices):
        lsm = make_lsm(index_params={"nlist": 8})
        lsm.insert(np.arange(50), {"emb": data[:50]}, {"price": prices[:50]})
        lsm.flush()
        count = lsm.build_index("emb", "IVF_FLAT", nlist=4)
        assert count == 1
        assert lsm.live_segments()[0].has_index("emb")


class TestRecovery:
    def test_recover_flushed_and_unflushed(self, data, prices):
        fs = InMemoryObjectStore()
        lsm = make_lsm(fs=fs)
        lsm.insert(np.arange(100), {"emb": data[:100]}, {"price": prices[:100]})
        lsm.flush()
        # These rows never flushed: they survive only in the WAL.
        lsm.insert(np.arange(100, 120), {"emb": data[100:120]}, {"price": prices[100:120]})

        crashed = make_lsm(fs=fs)  # fresh manager on the same storage
        replayed = crashed.recover()
        assert replayed == 1
        assert crashed.num_live_rows == 100
        assert crashed.unflushed_rows == 20
        crashed.flush()
        assert crashed.num_live_rows == 120

    def test_recover_preserves_tombstones(self, data, prices):
        fs = InMemoryObjectStore()
        lsm = make_lsm(fs=fs)
        lsm.insert(np.arange(100), {"emb": data[:100]}, {"price": prices[:100]})
        lsm.flush()
        lsm.delete(np.array([7]))
        lsm.flush()

        recovered = make_lsm(fs=fs)
        recovered.recover()
        result = recovered.search("emb", data[7], 1)
        assert result.ids[0, 0] != 7

    def test_wal_disabled_recovers_flushed_only(self, data, prices):
        fs = InMemoryObjectStore()
        lsm = make_lsm(fs=fs, enable_wal=False)
        lsm.insert(np.arange(10), {"emb": data[:10]}, {"price": prices[:10]})
        lsm.flush()
        lsm.insert(np.arange(10, 15), {"emb": data[10:15]}, {"price": prices[10:15]})

        recovered = make_lsm(fs=fs, enable_wal=False)
        assert recovered.recover() == 0  # no WAL to replay
        assert recovered.num_live_rows == 10  # flushed rows survive
        assert recovered.unflushed_rows == 0  # unflushed rows are lost

    def test_recover_on_used_manager_raises(self, data, prices):
        lsm = make_lsm()
        lsm.insert(np.arange(10), {"emb": data[:10]}, {"price": prices[:10]})
        lsm.flush()
        with pytest.raises(RuntimeError):
            lsm.recover()


# -- one scan: no fan-out, no merge -------------------------------------------------


def dense_index_types():
    """Registered index types a segment of dense float vectors can hold."""
    from repro.index import available_index_types, create_index

    types = []
    for itype in available_index_types():
        try:
            create_index(itype, 16, metric="l2")
        except ValueError:  # BIN_FLAT: binary metrics only
            continue
        types.append(itype)
    return types


#: small builds; anything not listed takes its defaults
INDEX_PARAMS = {
    "IVF_FLAT": {"nlist": 8}, "IVF_SQ8": {"nlist": 8},
    "IVF_PQ": {"nlist": 8, "m": 4, "nbits": 4},
    "IVF_OPQ": {"nlist": 8, "m": 4, "nbits": 4, "opq_iters": 2},
}


@pytest.fixture()
def scans(monkeypatch):
    """Every ``Segment.search`` result, in call order."""
    from repro.storage.segment import Segment

    seen = []
    search = Segment.search

    def spy(self, *args, **kwargs):
        seen.append(search(self, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(Segment, "search", spy)
    return seen


class TestOneScanSearch:
    """A snapshot with one visible scan returns that scan's result as
    the merge would have: same ids, float64 scores, best-first, padded."""

    ROWS = 300

    def check(self, lsm, scans, queries, k, **params):
        from repro.utils import merge_topk_batch

        got = lsm.search("emb", queries, k, **params)
        (partial,) = scans
        ids, scores = merge_topk_batch(
            [(partial.ids, partial.scores)], k, False, nq=len(queries),
            dtype=np.float64)
        assert got.ids.dtype == np.int64 and got.scores.dtype == np.float64
        np.testing.assert_array_equal(got.ids, ids)
        np.testing.assert_array_equal(got.scores, scores)
        return got

    @pytest.mark.parametrize("dead", [(), (3, 5, 250)])
    @pytest.mark.parametrize("k", [5, 400])  # 400: more than the segment holds
    @pytest.mark.parametrize("itype", [None, *dense_index_types()])
    def test_equals_the_merge_of_its_one_partial(self, data, scans, itype, k, dead):
        lsm = make_lsm()
        lsm.insert(np.arange(self.ROWS), {"emb": data[:self.ROWS]},
                   {"price": np.zeros(self.ROWS)})
        lsm.flush()
        if itype is not None:
            lsm.build_index("emb", itype, **INDEX_PARAMS.get(itype, {}))
        if dead:
            lsm.delete(np.array(dead))
            lsm.flush()
        got = self.check(lsm, scans, data[[3, 77, 250]], k)
        assert not np.isin(got.ids, dead).any()
        valid = got.ids >= 0
        assert (np.diff(valid.astype(int), axis=1) <= 0).all()  # pads last
        assert np.isinf(got.scores[~valid]).all()
        if itype in (None, "FLAT"):
            assert valid.sum(axis=1).tolist() == [min(k, self.ROWS - len(dead))] * 3
            assert got.ids[1, 0] == 77  # exact: a live row finds itself

    def test_a_frozen_memtable_is_one_scan_too(self, data, scans):
        """Rows frozen but not yet flushed: the only scan is a view."""
        lsm = make_lsm(background=True)
        try:
            # hold the flusher, so the freeze stays visible as frozen
            with lsm._bg_lock:
                lsm.insert(np.arange(50), {"emb": data[:50]}, {"price": np.zeros(50)})
                with lsm._lock:
                    lsm._freeze_locked()
                snap = lsm.snapshot()
                try:
                    assert (len(snap.segment_ids), len(snap.frozen_ids)) == (0, 1)
                    got = self.check(lsm, scans, data[:2], 4, snapshot=snap)
                finally:
                    lsm.release(snap)
            assert got.ids[:, 0].tolist() == [0, 1]
        finally:
            lsm.wait_for_background()
            lsm.close()

    def test_two_scans_still_fan_out_and_merge(self, data, scans, monkeypatch):
        from repro.storage import lsm as lsm_module

        merges = []
        merge = lsm_module.merge_topk_batch
        monkeypatch.setattr(
            lsm_module, "merge_topk_batch",
            lambda *a, **kw: merges.append(1) or merge(*a, **kw))
        lsm = make_lsm()
        for lo in (0, 100):
            lsm.insert(np.arange(lo, lo + 100), {"emb": data[lo:lo + 100]},
                       {"price": np.zeros(100)})
            lsm.flush()
        got = lsm.search("emb", data[[5, 150]], 3)
        assert len(scans) == 2 and merges == [1]
        assert got.ids[:, 0].tolist() == [5, 150]
        assert got.scores.dtype == np.float64
        # ... and one scan does neither
        one = make_lsm()
        one.insert(np.arange(100), {"emb": data[:100]}, {"price": np.zeros(100)})
        one.flush()
        one.search("emb", data[:2], 3)
        assert merges == [1]

    def test_an_empty_collection_still_answers(self):
        got = make_lsm().search("emb", np.zeros((2, 16), np.float32), 3)
        assert (got.ids == -1).all() and got.scores.dtype == np.float64


class TestTombstonesStayLocal:
    def test_a_segment_without_dead_rows_is_searched_at_k(self, data, monkeypatch):
        """However many tombstones the collection carries, a segment
        holding none of the dead rows is asked for exactly k."""
        from repro.index.base import VectorIndex

        lsm = make_lsm()
        for lo in (0, 300):
            lsm.insert(np.arange(lo, lo + 300), {"emb": data[lo:lo + 300]},
                       {"price": np.zeros(300)})
            lsm.flush()
        lsm.build_index("emb", "IVF_FLAT", nlist=8)
        dead = np.arange(0, 120)  # all in the first segment
        lsm.delete(dead)
        lsm.flush()
        assert lsm.stats()["tombstones"] == 120

        asked = {}
        search = VectorIndex.search
        for name, segment in zip(("first", "second"), lsm.live_segments()):
            index = segment.indexes["emb"]
            monkeypatch.setattr(
                index, "search",
                lambda q, k, name=name, index=index, **kw:
                    asked.update({name: k}) or search(index, q, k, **kw))
        got = lsm.search("emb", data[[5, 200, 450]], 7, nprobe=8)
        assert asked == {"first": 7 + 120, "second": 7}
        assert not np.isin(got.ids, dead).any()
        assert got.ids[:, 0].tolist()[1:] == [200, 450]


class TestBuildIndexIdempotent:
    @pytest.fixture()
    def builds(self, monkeypatch):
        """(index type, params) of every ``Segment.build_index`` call."""
        from repro.storage.segment import Segment

        calls = []
        build = Segment.build_index

        def spy(self, field, index_type="IVF_FLAT", **params):
            calls.append((index_type, params))
            return build(self, field, index_type, **params)

        monkeypatch.setattr(Segment, "build_index", spy)
        return calls

    def flushed(self, data, fs=None, **config):
        lsm = make_lsm(fs=fs, **config)
        lsm.insert(np.arange(300), {"emb": data[:300]}, {"price": np.zeros(300)})
        lsm.flush()
        return lsm

    def test_equal_resolved_parameters_train_once(self, data, builds):
        lsm = self.flushed(data)
        assert lsm.build_index("emb", "IVF_FLAT", nlist=8) == 1
        # the same request, spelled with a default, and in another case
        assert lsm.build_index("emb", "IVF_FLAT", nlist=8, kmeans_iters=20) == 1
        assert lsm.build_index("emb", "ivf_flat", nlist=8, seed=0) == 1
        assert len(builds) == 1

    def test_the_auto_build_counts_as_built(self, data, builds):
        """What the benchmark's set-up does: a flush auto-builds the
        configured index, then ``create_index`` asks for the same one
        with the default ``nlist`` written out."""
        lsm = self.flushed(data, index_build_min_rows=100)
        assert builds == [("IVF_FLAT", {})]
        assert lsm.build_index("emb", "IVF_FLAT", nlist=128) == 1
        assert lsm.build_index("emb") == 1
        assert len(builds) == 1

    def test_different_parameters_or_type_rebuild(self, data, builds):
        lsm = self.flushed(data)
        lsm.build_index("emb", "IVF_FLAT", nlist=8)
        lsm.build_index("emb", "IVF_FLAT", nlist=4)
        assert lsm.live_segments()[0].indexes["emb"].nlist == 4
        lsm.build_index("emb", "IVF_SQ8", nlist=4)
        assert lsm.live_segments()[0].indexes["emb"].index_type == "IVF_SQ8"
        lsm.build_index("emb", "IVF_SQ8", nlist=4, seed=1)
        assert [itype for itype, __ in builds] == [
            "IVF_FLAT", "IVF_FLAT", "IVF_SQ8", "IVF_SQ8"]

    def test_config_defaults_are_part_of_the_request(self, data, builds):
        lsm = self.flushed(data, index_params={"nlist": 8})
        lsm.build_index("emb")                       # nlist=8 from the config
        lsm.build_index("emb", "IVF_FLAT", nlist=8)  # the same, written out
        assert len(builds) == 1
        lsm.build_index("emb", "IVF_FLAT", nlist=16)
        assert len(builds) == 2

    def test_only_segments_that_lack_it_are_built(self, data, builds):
        lsm = self.flushed(data)
        lsm.build_index("emb", "IVF_FLAT", nlist=8)
        lsm.insert(np.arange(300, 500), {"emb": data[300:500]}, {"price": np.zeros(200)})
        lsm.flush()
        assert lsm.build_index("emb", "IVF_FLAT", nlist=8) == 2
        assert len(builds) == 2
        assert all(s.has_index("emb") for s in lsm.live_segments())

    def test_a_skipped_build_keeps_file_and_spec_for_reload(self, data, builds):
        fs = InMemoryObjectStore()
        lsm = self.flushed(data, fs=fs)
        lsm.build_index("emb", "IVF_FLAT", nlist=8)
        lsm.build_index("emb", "IVF_FLAT", nlist=8)
        seg_id = lsm.manifest.live_segment_ids()[0]
        before = lsm.search("emb", data[:5], 3, nprobe=8)
        lsm.bufferpool.invalidate(seg_id)
        assert lsm.bufferpool.get(seg_id).has_index("emb")  # loaded from its blob
        after = lsm.search("emb", data[:5], 3, nprobe=8)
        np.testing.assert_array_equal(before.ids, after.ids)
        assert len(builds) == 1
        # a restarted manager knows of no index, so it builds, once
        restarted = make_lsm(fs=fs)
        restarted.recover()
        assert restarted.build_index("emb", "IVF_FLAT", nlist=8) == 1
        assert restarted.build_index("emb", "IVF_FLAT", nlist=8) == 1
        assert len(builds) == 2
        np.testing.assert_array_equal(
            restarted.search("emb", data[:5], 3, nprobe=8).ids, before.ids)

    def test_unknown_parameter_is_still_an_error(self, data):
        lsm = self.flushed(data)
        with pytest.raises(TypeError):
            lsm.build_index("emb", "IVF_FLAT", bogus=1)
