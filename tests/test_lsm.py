"""LSM manager integration: flush, merge, deletes, snapshots, recovery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        """... when the request is bucket-major; a query-major one
        scores both scans into one collector, and calls neither the
        executor nor the merge; one scan does neither in any shape."""
        from repro.exec import QueryExecutor
        from repro.storage import lsm as lsm_module
        from repro.utils import TopKCollector

        calls = []

        def counting(owner, name, tag):
            real = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, **kw: calls.append(tag) or real(*a, **kw))

        counting(lsm_module, "merge_topk_batch", "merge")
        counting(QueryExecutor, "map_ordered", "fan-out")
        counting(TopKCollector, "close", "collect")
        lsm = make_lsm()
        for lo in (0, 100):
            lsm.insert(np.arange(lo, lo + 100), {"emb": data[lo:lo + 100]},
                       {"price": np.zeros(100)})
            lsm.flush()
        rows = np.arange(0, 200, 5)  # 40 queries x 8 probes > 2 x 128 lists
        del calls[:], scans[:]
        got = lsm.search("emb", data[rows], 3)
        assert calls == ["fan-out", "merge"] and len(scans) == 2
        assert all(partial is not None for partial in scans)
        assert got.ids[:, 0].tolist() == rows.tolist()
        assert got.scores.dtype == np.float64

        del calls[:], scans[:]
        got = lsm.search("emb", data[[5, 150]], 3)
        assert calls == ["collect"] and scans == [None, None]
        assert got.ids[:, 0].tolist() == [5, 150]
        assert got.scores.dtype == np.float64
        # ... and one scan does neither
        one = make_lsm()
        one.insert(np.arange(100), {"emb": data[:100]}, {"price": np.zeros(100)})
        one.flush()
        del calls[:]
        one.search("emb", data[:2], 3)
        one.search("emb", data[:100:2], 3)
        assert calls == []

    def test_an_empty_collection_still_answers(self):
        got = make_lsm().search("emb", np.zeros((2, 16), np.float32), 3)
        assert (got.ids == -1).all() and got.scores.dtype == np.float64


class TestTombstonesStayLocal:
    def test_a_segment_without_dead_rows_is_searched_at_k(self, data, monkeypatch):
        """However many tombstones the collection carries, every index
        that can mask is asked for exactly k — the segment holding the
        dead rows is told to hide them, the one holding none is told
        nothing."""
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
                    asked.update({name: (k, kw.get("hidden"))})
                    or search(index, q, k, **kw))
        for nq in (3, 60):  # one collector; fan-out and merge
            asked.clear()
            rows = np.r_[5, 200, 450, np.arange(300, 300 + nq - 3)]
            got = lsm.search("emb", data[rows], 7, nprobe=8)
            assert asked["second"] == (7, None)
            k, hidden = asked["first"]
            assert k == 7 and hidden.tolist() == dead.tolist()
            assert not np.isin(got.ids, dead).any()
            assert got.ids[:, 0].tolist()[1:] == rows[1:].tolist()


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


# -- several scans: one collector, or fan-out and merge ------------------------------


class TestCollectorRule:
    """Which of the two a request gets is read off its shape."""

    @pytest.mark.parametrize("nq,nprobe,nlist,n_scans,collects", [
        (1, 8, 128, 1, False),    # search_single: one scan, nothing to share
        (64, 32, 128, 1, False),  # search_batch
        (8, 16, 128, 1, False),   # search_filtered
        (1, 8, 128, 4, True),     # mixed_rw
        (64, 32, 128, 4, False),  # a batch over mixed_rw's segments: merge
        (1, 8, 128, 0, False),
        (1, 8, 128, 2, True),
        (16, 16, 128, 4, True),   # exactly two pairs per list
        (17, 16, 128, 4, False),
        (32, 8, 128, 6, True),
        (33, 8, 128, 6, False),
        (2, 1000, 128, 2, True),  # nprobe is clamped to nlist first
        (3, 1000, 128, 2, False),
        (2, 8, 8, 3, True),       # few lists: the crossover moves with nlist
        (3, 8, 8, 3, False),
    ])
    def test_rule(self, nq, nprobe, nlist, n_scans, collects):
        from repro.storage.lsm import collects_scans

        assert collects_scans(nq, nprobe, nlist, n_scans) is collects

    def test_lsm_asks_it_about_the_request(self, data, monkeypatch):
        """nq from the queries, nprobe from the caller (or the IVF
        default), nlist from the collection's index configuration, the
        scans from the snapshot — and nothing else."""
        from repro.index.ivf_common import DEFAULT_NLIST, DEFAULT_NPROBE
        from repro.storage import lsm as lsm_module

        asked = []
        rule = lsm_module.collects_scans
        monkeypatch.setattr(
            lsm_module, "collects_scans",
            lambda *shape: asked.append(shape) or rule(*shape))
        for config, nlist in (({}, DEFAULT_NLIST), ({"index_params": {"nlist": 8}}, 8)):
            lsm = make_lsm(**config)
            for lo in (0, 100, 200):
                lsm.insert(np.arange(lo, lo + 100), {"emb": data[lo:lo + 100]},
                           {"price": np.zeros(100)})
                lsm.flush()
            del asked[:]
            lsm.search("emb", data[:5], 3)
            lsm.search("emb", data[:2], 3, nprobe=4)
            assert asked == [(5, DEFAULT_NPROBE, nlist, 3), (2, 4, nlist, 3)]

    def test_the_collector_is_not_a_search_parameter(self, data):
        lsm = make_lsm()
        lsm.insert(np.arange(100), {"emb": data[:100]}, {"price": np.zeros(100)})
        lsm.flush()
        for name in ("collector", "hidden"):
            with pytest.raises(TypeError, match=name):
                lsm.search("emb", data[:2], 3, **{name: None})


def gaussian(n, seed, dim=16):
    return np.random.default_rng(seed).standard_normal((n, dim)).astype(np.float32)


def make_scan(seg_id, row_ids, vectors, metric, itype=None):
    from repro.storage import Segment

    segment = Segment(seg_id, np.asarray(row_ids, dtype=np.int64),
                      {"emb": vectors}, {}, {"emb": (vectors.shape[1], metric)})
    if itype is not None:
        segment.build_index("emb", itype, **INDEX_PARAMS.get(itype, {}))
    return segment


def merged(scans, queries, k, higher, **params):
    """Each scan's own top-k, then one merge: the fan-out path."""
    from repro.utils import merge_topk_batch

    partials = [scan.search("emb", queries, k, **params) for scan in scans]
    return merge_topk_batch(
        [(p.ids, p.scores) for p in partials], k, higher,
        nq=len(queries), dtype=np.float64)


def collected(scans, queries, k, higher, **params):
    """Every scan into one collector: the query-major path."""
    from repro.utils import TopKCollector

    collector = TopKCollector(len(queries), k, higher)
    for scan in scans:
        assert scan.search("emb", queries, k, collector=collector, **params) is None
    return collector.close()


class TestCollectorEqualsMerge:
    """Both ways of combining scans, called directly — which one a
    request gets is ``TestCollectorRule``'s business — return the same
    rows: the candidate set is the same, only who selects differs."""

    #: rows 0..299 indexed, 300..499 and 500..539 not, 540..559 all
    #: dead, one segment empty; tombstones in every live one
    DEAD = np.r_[np.arange(5, 300, 7), 305, 306, 499, 500,
                 np.arange(540, 560), 10_000].astype(np.int64)

    def scans(self, metric, itype):
        data = gaussian(560, seed=3)
        return data, [
            make_scan(0, np.arange(300), data[:300], metric, itype),
            make_scan(1, np.arange(300, 500), data[300:500], metric),
            make_scan(2, [], data[:0], metric),
            make_scan(3, np.arange(500, 540), data[500:540], metric),
            make_scan(4, np.arange(540, 560), data[540:], metric),
        ]

    def check(self, scans, queries, k, metric, tied_codes=False, **params):
        from repro.metrics import get_metric

        higher = get_metric(metric).higher_is_better
        want_ids, want_scores = merged(scans, queries, k, higher, **params)
        got_ids, got_scores = collected(scans, queries, k, higher, **params)
        assert got_ids.dtype == np.int64 and got_scores.dtype == np.float64
        np.testing.assert_allclose(got_scores, want_scores, rtol=1e-5, atol=1e-5)
        differ = got_ids != want_ids
        if tied_codes:
            # rows with one PQ code score bit-equal; among those the
            # two paths may order differently (and only among those)
            with np.errstate(invalid="ignore"):  # pad next to pad
                gap = np.abs(np.diff(want_scores, axis=1)) > 1e-5
            alone = np.pad(gap, ((0, 0), (1, 0)), constant_values=True) \
                & np.pad(gap, ((0, 0), (0, 1)), constant_values=False)
            differ &= alone
        assert not differ.any()
        if params.get("exclude") is not None:
            assert not np.isin(got_ids, params["exclude"]).any()
        return got_ids

    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    @pytest.mark.parametrize("itype", [None, *dense_index_types()])
    def test_every_index_type_and_metric(self, itype, metric):
        data, scans = self.scans(metric, itype)
        queries = gaussian(6, seed=4)
        params = {"nprobe": 3} if (itype or "").startswith("IVF") else {}
        params["tied_codes"] = itype in ("IVF_PQ", "IVF_OPQ")
        for k in (1, 10, 700):  # 700: more than all the scans hold
            for exclude in (None, self.DEAD):
                ids = self.check(scans, queries, k, metric, exclude=exclude, **params)
                valid = ids >= 0
                assert (np.diff(valid.astype(int), axis=1) <= 0).all()  # pads last
        # an admissible set: pushed down where the index can, exact
        # where it cannot
        row_filter = np.arange(0, 560, 3, dtype=np.int64)
        ids = self.check(scans, queries, 10, metric, exclude=self.DEAD,
                         row_filter=row_filter, **params)
        assert np.isin(ids[ids >= 0], row_filter).all()
        # strategy A: the index bypassed
        self.check(scans, queries, 10, metric, exclude=self.DEAD,
                   row_filter=row_filter, brute_force=True)  # no index, no ties
        if itype in (None, "FLAT"):
            exact = self.check(scans, data[[7, 400, 520]], 2, metric, exclude=self.DEAD)
            if metric != "ip":
                assert exact[:, 0].tolist() == [7, 400, 520]

    def test_a_metric_without_a_gemm_form(self):
        from repro.metrics import Metric

        class L1(Metric):
            name = "test_lsm_l1"
            higher_is_better = False

            def pairwise(self, queries, data):
                return np.abs(queries[:, None, :] - data[None, :, :]).sum(axis=2)

        metric = L1()
        data = gaussian(300, seed=5)
        scans = [make_scan(0, np.arange(200), data[:200], metric),
                 make_scan(1, np.arange(200, 300), data[200:], metric)]
        scans[0].build_index("emb", "IVF_FLAT", nlist=8)
        dead = np.array([3, 150, 250], dtype=np.int64)
        queries = gaussian(4, seed=6)
        want = merged(scans, queries, 5, False, nprobe=8, exclude=dead)
        got = collected(scans, queries, 5, False, nprobe=8, exclude=dead)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_allclose(got[1], want[1], rtol=1e-5)
        exact = np.abs(queries[:, None, :] - data[None, :, :]).sum(axis=2)
        exact[:, dead] = np.inf
        np.testing.assert_array_equal(got[0], np.argsort(exact, axis=1)[:, :5])

    def test_equal_scores_come_in_scan_order(self):
        """The same vector in two segments, and twice in one: equal
        scores order by (scan in the snapshot, position in the scan) —
        a definition; the merge leaves its boundary tie to chance."""
        # small integers: every product and sum is exact in float32, so
        # equal vectors score equal whichever matrix they are rows of
        data = np.rint(2 * gaussian(120, seed=7))
        twin = data[17]
        first = make_scan(0, np.arange(60), data[:60], "l2")
        second = make_scan(1, np.arange(60, 122),
                           np.vstack([data[60:], twin, twin]), "l2")
        for scans, order in (((first, second), [17, 120, 121]),
                             ((second, first), [120, 121, 17])):
            for k in (1, 2, 3):
                ids, scores = collected(scans, twin[None, :], k, False)
                assert ids[0].tolist() == order[:k]
                assert np.unique(scores).size == 1  # bit-equal, not close
        indexed = make_scan(2, np.arange(60, 122),
                            np.vstack([data[60:], twin, twin]), "l2", "IVF_FLAT")
        ids, __ = collected((indexed, first), twin[None, :], 3, False, nprobe=8)
        assert ids[0].tolist() == [120, 121, 17]

    def test_through_the_lsm_with_a_frozen_view(self, data, monkeypatch):
        """Sealed segments, indexed and not, and a frozen memtable with
        deletes of its own: the manager's two regimes, each forced."""
        from repro.storage import lsm as lsm_module

        lsm = make_lsm(background=True)
        try:
            for lo in (0, 200):
                lsm.insert(np.arange(lo, lo + 200), {"emb": data[lo:lo + 200]},
                           {"price": np.zeros(200)})
                lsm.flush()
            lsm.live_segments()[0].build_index("emb", "IVF_FLAT", nlist=8)
            lsm.delete(np.array([3, 250]))
            lsm.flush()
            dead = np.array([3, 250, 7, 390, 410])
            with lsm._bg_lock:  # hold the flusher: the freeze stays frozen
                lsm.insert(np.arange(400, 450), {"emb": data[400:450]},
                           {"price": np.zeros(50)})
                lsm.delete(dead[2:])
                with lsm._lock:
                    lsm._freeze_locked()
                snap = lsm.snapshot()
                try:
                    assert (len(snap.segment_ids), len(snap.frozen_ids)) == (2, 1)
                    answers = {}
                    for collects in (True, False):
                        monkeypatch.setattr(
                            lsm_module, "collects_scans", lambda *shape: collects)
                        answers[collects] = [
                            lsm.search("emb", data[rows], k, snapshot=snap, nprobe=8)
                            for rows in ([5], [5, 250, 390, 420]) for k in (1, 10, 500)]
                finally:
                    lsm.release(snap)
            for got, want in zip(answers[True], answers[False]):
                np.testing.assert_array_equal(got.ids, want.ids)
                # sift-like rows: |x|^2 of 3e5 in float32
                np.testing.assert_allclose(got.scores, want.scores, rtol=1e-4)
                assert not np.isin(got.ids, dead).any()
            assert answers[True][3].ids[:, 0].tolist()[::3] == [5, 420]
        finally:
            lsm.wait_for_background()
            lsm.close()


class TestVisibleTombstones:
    def test_equal_snapshot_content_is_one_array(self, data, monkeypatch):
        """Under a pending frozen delete every request merges committed
        and frozen tombstones; the merge is one object per content, so
        two searches work out each segment's dead rows once."""
        from repro.storage import segment as segment_module

        lsm = make_lsm(background=True)
        try:
            for lo in (0, 150):
                lsm.insert(np.arange(lo, lo + 150), {"emb": data[lo:lo + 150]},
                           {"price": np.zeros(150)})
                lsm.flush()
            lsm.delete(np.array([4]))
            lsm.flush()
            passes = []
            membership = segment_module.sorted_membership
            monkeypatch.setattr(
                segment_module, "sorted_membership",
                lambda values, ref: passes.append(len(values)) or membership(values, ref))
            with lsm._bg_lock:
                lsm.insert(np.arange(300, 320), {"emb": data[300:320]},
                           {"price": np.zeros(20)})
                lsm.delete(np.array([9, 200]))
                with lsm._lock:
                    lsm._freeze_locked()
                first, second = lsm.snapshot(), lsm.snapshot()
                try:
                    merged_deletes = lsm.visible_tombstones(first)
                    assert merged_deletes.tolist() == [4, 9, 200]
                    assert lsm.visible_tombstones(second) is merged_deletes
                    for __ in range(2):
                        got = lsm.search("emb", data[[4, 9, 200]], 2)
                        assert not np.isin(got.ids, [4, 9, 200]).any()
                    # one pass per sealed segment, one for the view
                    assert sorted(passes) == [20, 150, 150]
                finally:
                    lsm.release(first)
                    lsm.release(second)
            lsm.wait_for_background()
            # the flush commit replaced the committed array: a new merge
            after = lsm.snapshot()
            try:
                assert lsm.visible_tombstones(after) is after.tombstones
                assert after.tombstones.tolist() == [4, 9, 200]
            finally:
                lsm.release(after)
        finally:
            lsm.wait_for_background()
            lsm.close()


class TestAnyHistoryIsExact:
    """Inserts, deletes, flushes, merges and index builds in any order:
    what a search then returns is the exact top-k of the rows the
    history leaves visible, in both regimes.  (Unindexed segments scan
    exactly, and ``nprobe = nlist`` makes an IVF_FLAT scan exact.)"""

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(1, 40)),
                st.tuples(st.just("delete"), st.integers(1, 25)),
                st.tuples(st.just("flush")),
                st.tuples(st.just("merge")),
                st.tuples(st.just("index")),
            ),
            min_size=3, max_size=14,
        ),
        st.integers(0, 10_000),
    )
    def test_search_equals_exact_search_over_the_model(self, ops, seed):
        rng = np.random.default_rng(seed)
        lsm = make_lsm()
        visible, unflushed, deleting = {}, {}, set()

        def flush():
            lsm.flush()
            visible.update(unflushed)
            unflushed.clear()
            for row in deleting:
                del visible[row]
            deleting.clear()

        next_id = 0
        for op in [*ops, ("flush",)]:
            if op[0] == "insert":
                ids = np.arange(next_id, next_id + op[1])
                next_id += op[1]
                vectors = rng.standard_normal((op[1], 16)).astype(np.float32)
                lsm.insert(ids, {"emb": vectors}, {"price": np.zeros(op[1])})
                unflushed.update(zip(ids.tolist(), vectors))
                continue
            if op[0] == "delete":
                candidates = sorted(set(visible) - deleting)
                if candidates:
                    rows = rng.choice(candidates, min(op[1], len(candidates)), replace=False)
                    lsm.delete(np.sort(rows))
                    deleting.update(rows.tolist())
                continue
            if op[0] == "flush":
                flush()
            elif op[0] == "merge":
                lsm.maybe_merge()
            else:
                for segment in lsm.live_segments():
                    if segment.num_rows >= 8 and not segment.has_index("emb"):
                        segment.build_index("emb", "IVF_FLAT", nlist=4)
            self.check(lsm, visible, rng)

    def check(self, lsm, visible, rng):
        ids = np.array(sorted(visible), dtype=np.int64)
        rows = np.array([visible[i] for i in ids], dtype=np.float64).reshape(-1, 16)
        for nq in (1, 70):  # 70 x 4 pairs over 128 lists: fan-out and merge
            queries = rng.standard_normal((nq, 16)).astype(np.float32)
            exact = ((queries[:, None, :].astype(np.float64) - rows[None]) ** 2).sum(-1)
            for k in (1, 6):
                got = lsm.search("emb", queries, k, nprobe=4)
                n = min(k, len(ids))
                assert (got.ids[:, :n] >= 0).all() and (got.ids[:, n:] == -1).all()
                np.testing.assert_allclose(
                    got.scores[:, :n], np.sort(exact, axis=1)[:, :n],
                    rtol=1e-4, atol=1e-4)
                # every id is a visible row and carries its own distance
                where = np.searchsorted(ids, got.ids[:, :n])
                assert (ids[where] == got.ids[:, :n]).all()
                np.testing.assert_allclose(
                    got.scores[:, :n], np.take_along_axis(exact, where, axis=1),
                    rtol=1e-4, atol=1e-4)
