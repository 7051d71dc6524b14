"""Seeded chaos suite: scripted fault schedules vs. the recovery path.

The invariant under test, for every schedule: **no acknowledged write
is ever lost**.  A write is acknowledged iff the engine call returned
without raising; a :class:`SimulatedCrash` aborts the "process" (the
manager object is discarded) and a fresh manager recovers from the
surviving filesystem state — exactly a crash-restart cycle.  Cluster
schedules additionally assert that partial failure degrades (tagged
results) instead of raising.  Everything is deterministic under the
fixed seeds below.
"""

import threading

import numpy as np
import pytest

from repro.core.errors import NodeNotFoundError, NoLiveReadersError
from repro.datasets import exact_ground_truth, random_queries, sift_like
from repro.distributed import MilvusCluster, RespawnPolicy
from repro.storage import (
    FaultPlan,
    FaultyFileSystem,
    InMemoryObjectStore,
    LSMConfig,
    LSMManager,
    SimulatedCrash,
    TieredMergePolicy,
    WriteAheadLog,
)
from repro.utils import sanitizer as san
from repro.utils.retry import RetryPolicy

SPECS = {"emb": (8, "l2")}


def make_lsm(fs, **overrides):
    defaults = dict(
        memtable_flush_bytes=1 << 30,
        index_build_min_rows=1 << 30,
        merge_policy=TieredMergePolicy(merge_factor=2, min_segment_bytes=1),
        auto_merge=False,
    )
    defaults.update(overrides)
    return LSMManager(SPECS, ("price",), LSMConfig(**defaults), fs=fs)


def batch(rng, row_ids):
    row_ids = np.asarray(row_ids, dtype=np.int64)
    return row_ids, {"emb": rng.normal(size=(len(row_ids), 8)).astype(np.float32)}, {
        "price": rng.uniform(0, 1, len(row_ids))
    }


def visible_row_ids(lsm):
    """Row ids a client can see: flushed + replayed, minus tombstones."""
    lsm.flush()  # materialize anything recovered into the memtable
    snap = lsm.snapshot()
    try:
        parts = [lsm.bufferpool.get(s).row_ids for s in snap.segment_ids]
        if not parts:
            return set()
        all_ids = np.concatenate(parts)
        return set(int(i) for i in all_ids[~np.isin(all_ids, snap.tombstones)])
    finally:
        lsm.release(snap)


class TestCrashRecoverySchedules:
    """One scripted crash point per test; recovery must preserve acks."""

    def run_schedule(self, plan, script, seed=0):
        """Run ``script(lsm, ack)`` until its scripted crash, then recover.

        ``script`` performs engine ops, adding row ids to ``ack`` only
        after the op returns (= was acknowledged).  Returns the set of
        acknowledged ids and the recovered manager (built on the bare
        inner store, as a restarted process would be).
        """
        inner = InMemoryObjectStore()
        rng = np.random.default_rng(seed)
        lsm = make_lsm(FaultyFileSystem(inner, plan))
        acked = set()
        with pytest.raises(SimulatedCrash):
            script(lsm, rng, acked)
        lsm.quiesce_after_crash()  # a real crash stops *all* threads
        recovered = make_lsm(inner)
        recovered.recover()
        return acked, recovered

    def test_torn_wal_tail(self):
        plan = FaultPlan(seed=11)
        plan.torn_write("wal/*", truncate_at=40, nth=3, op="append")

        def script(lsm, rng, acked):
            for start in (0, 10, 20, 30):
                ids, vecs, attrs = batch(rng, np.arange(start, start + 10))
                lsm.insert(ids, vecs, attrs)
                acked.update(int(i) for i in ids)

        acked, recovered = self.run_schedule(plan, script)
        assert acked == set(range(20))  # third batch crashed un-acked
        visible = visible_row_ids(recovered)
        assert visible == acked  # nothing acked lost, nothing un-acked leaked

    def test_crash_mid_flush_segment_write(self):
        plan = FaultPlan(seed=12)
        plan.crash_after("segments/*", op="write", nth=1)

        def script(lsm, rng, acked):
            ids, vecs, attrs = batch(rng, np.arange(50))
            lsm.insert(ids, vecs, attrs)
            acked.update(int(i) for i in ids)
            lsm.flush()

        acked, recovered = self.run_schedule(plan, script)
        assert visible_row_ids(recovered) == acked  # WAL replay covers the batch

    def test_crash_mid_manifest_write_is_torn(self):
        plan = FaultPlan(seed=13)
        plan.torn_write("manifest/*", truncate_at=16, nth=1)

        def script(lsm, rng, acked):
            ids, vecs, attrs = batch(rng, np.arange(40))
            lsm.insert(ids, vecs, attrs)
            acked.update(int(i) for i in ids)
            lsm.flush()

        acked, recovered = self.run_schedule(plan, script)
        assert visible_row_ids(recovered) == acked

    def test_crash_mid_checkpoint_wal_truncate(self):
        plan = FaultPlan(seed=14)
        plan.crash_after("wal/*", op="delete", nth=1)

        def script(lsm, rng, acked):
            for start in (0, 25):
                ids, vecs, attrs = batch(rng, np.arange(start, start + 25))
                lsm.insert(ids, vecs, attrs)
                acked.update(int(i) for i in ids)
            lsm.flush()

        acked, recovered = self.run_schedule(plan, script)
        # Manifest already covers the flush; leftover WAL records must
        # not be double-applied (set equality alone would miss
        # duplicate rows, so check the physical row count too).
        assert visible_row_ids(recovered) == acked
        assert recovered.num_live_rows == len(acked)

    def test_crash_mid_merge(self):
        plan = FaultPlan(seed=15)
        plan.crash_after("segments/*", op="write", nth=3)  # the merged output

        def script(lsm, rng, acked):
            for start in (0, 30):
                ids, vecs, attrs = batch(rng, np.arange(start, start + 30))
                lsm.insert(ids, vecs, attrs)
                acked.update(int(i) for i in ids)
                lsm.flush()
            lsm.maybe_merge()

        acked, recovered = self.run_schedule(plan, script)
        assert visible_row_ids(recovered) == acked
        assert recovered.fs.listdir("segments/")  # inputs survived the crash

    def test_crash_then_recover_then_crash_again(self):
        """Recovery itself is crash-safe and idempotent."""
        inner = InMemoryObjectStore()
        rng = np.random.default_rng(3)
        plan = FaultPlan(seed=16)
        plan.crash_after("segments/*", op="write", nth=1)
        lsm = make_lsm(FaultyFileSystem(inner, plan))
        ids, vecs, attrs = batch(rng, np.arange(64))
        lsm.insert(ids, vecs, attrs)
        acked = set(int(i) for i in ids)
        with pytest.raises(SimulatedCrash):
            lsm.flush()

        # Second incarnation crashes during *recovery's* checkpoint.
        plan2 = FaultPlan(seed=17)
        plan2.crash_after("wal/*", op="delete", nth=1)
        half_recovered = make_lsm(FaultyFileSystem(inner, plan2))
        with pytest.raises(SimulatedCrash):
            half_recovered.recover()
            half_recovered.flush()

        final = make_lsm(inner)
        final.recover()
        assert visible_row_ids(final) == acked
        assert final.num_live_rows == len(acked)

    def test_deletes_survive_crash(self):
        plan = FaultPlan(seed=18)
        plan.crash_after("manifest/*", op="write", nth=2)

        def script(lsm, rng, acked):
            ids, vecs, attrs = batch(rng, np.arange(30))
            lsm.insert(ids, vecs, attrs)
            acked.update(int(i) for i in ids)
            lsm.flush()  # manifest write #1
            lsm.delete(np.arange(5))
            acked.difference_update(range(5))
            lsm.flush()  # manifest write #2 lands, then crash

        acked, recovered = self.run_schedule(plan, script)
        assert visible_row_ids(recovered) == acked

    def test_flaky_store_with_retry_loses_nothing(self):
        """Transient write faults + retry: every acked batch survives."""
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=19)
        plan.fail("wal/*", op="append", nth=2, times=2)
        plan.fail("segments/*", op="write", nth=1, times=1)
        faulty = FaultyFileSystem(inner, plan)
        lsm = make_lsm(faulty)
        policy = RetryPolicy(max_attempts=5, sleep=lambda s: None, seed=7)
        rng = np.random.default_rng(5)
        acked = set()
        for start in (0, 20, 40):
            ids, vecs, attrs = batch(rng, np.arange(start, start + 20))
            policy.call(lsm.insert, ids, vecs, attrs)
            acked.update(int(i) for i in ids)
        policy.call(lsm.flush)
        recovered = make_lsm(inner)
        recovered.recover()
        assert visible_row_ids(recovered) == acked
        assert faulty.faults_fired("error") >= 3  # schedule actually ran


def orphan_segment_files(lsm):
    """Segment files on storage that no live manifest entry references."""
    on_disk = set()
    for path in lsm.fs.listdir("segments/"):
        try:
            on_disk.add(int(path.rsplit("/", 1)[-1].split(".")[0]))
        except ValueError:
            continue
    return on_disk - set(lsm.manifest.live_segment_ids())


def _bg_workload(lsm, rng, acked):
    """Deterministic mixed workload driving every background crash point.

    Filesystem op stream (the coordinates the crash specs below index
    into): segment writes #1/#2 are flushes, #3 is the first compaction
    output, #4 another flush, #5+ the second compaction round; manifest
    writes follow each commit; WAL deletes are the per-flush checkpoints.

    The second round exists only if flush #4 lands in the merged
    output's size tier (``merge_factor=2``, tiers a factor of 4 apart).
    Both blobs are laid out from their row count alone — the same
    arrays of the same shapes; only the meta JSON's digits differ — so
    flush #4 carries exactly the 50 rows the first merge keeps (60
    flushed, 10 deleted): equal row counts, equal sizes, one tier,
    whatever the blob format costs per row.
    """
    for start in (0, 30):
        ids, vecs, attrs = batch(rng, np.arange(start, start + 30))
        lsm.insert(ids, vecs, attrs)
        acked.update(int(i) for i in ids)
        lsm.flush()
    lsm.delete(np.arange(10))
    acked.difference_update(range(10))
    lsm.flush()
    lsm.maybe_merge()  # background compaction: segment write #3
    ids, vecs, attrs = batch(rng, np.arange(60, 110))  # as many rows as #3 kept
    lsm.insert(ids, vecs, attrs)
    acked.update(int(i) for i in ids)
    lsm.flush()  # segment write #4
    lsm.maybe_merge()  # second compaction round
    lsm.flush()  # barrier: surfaces any crash the flusher recorded


#: (label, plan-arming function) — each crashes a different point in the
#: background engine's op stream.  Crossed with the seeds below this is
#: a 12 x 5 = 60-schedule matrix (acceptance floor: 50).
BG_CRASH_POINTS = [
    # crash between freeze and flush: the frozen memtable's rows are
    # acked + WAL-covered, the segment file never (fully) lands
    ("freeze-to-flush", lambda p: p.crash_before("segments/*", op="write", nth=1)),
    ("flush-after-seg-1", lambda p: p.crash_after("segments/*", op="write", nth=1)),
    ("flush-after-seg-2", lambda p: p.crash_after("segments/*", op="write", nth=2)),
    # crash during background compaction, before/after the merged
    # output persists (the orphan-GC and double-apply hazards)
    ("compact-before-out", lambda p: p.crash_before("segments/*", op="write", nth=3)),
    ("compact-after-out", lambda p: p.crash_after("segments/*", op="write", nth=3)),
    ("compact-round-2", lambda p: p.crash_after("segments/*", op="write", nth=5)),
    # manifest commit torn / interrupted mid-sequence
    ("manifest-after-1", lambda p: p.crash_after("manifest/*", op="write", nth=1)),
    ("manifest-after-4", lambda p: p.crash_after("manifest/*", op="write", nth=4)),
    ("manifest-torn-1", lambda p: p.torn_write("manifest/*", truncate_at=16, nth=1)),
    ("manifest-torn-4", lambda p: p.torn_write("manifest/*", truncate_at=16, nth=4)),
    # WAL checkpoint interrupted (double-apply hazard on replay)
    ("wal-truncate-1", lambda p: p.crash_after("wal/*", op="delete", nth=1)),
    # writer-path crash before the WAL record lands: never acked
    ("wal-append-before-2", lambda p: p.crash_before("wal/*", op="append", nth=2)),
]

BG_SEEDS = [101, 202, 303, 404, 505]


class TestBackgroundCrashSchedules:
    """Seeded crash matrix against the *background* write engine.

    Same invariant as above — no acked write lost, none applied twice —
    plus: recovery leaves no orphan segment files, whichever thread the
    crash landed on (writer path or the background flusher/compactor).
    """

    def run_bg_schedule(self, plan, seed):
        inner = InMemoryObjectStore()
        rng = np.random.default_rng(seed)
        lsm = make_lsm(FaultyFileSystem(inner, plan), background=True)
        acked = set()
        fired = False
        try:
            _bg_workload(lsm, rng, acked)
        except SimulatedCrash:
            fired = True
        # A real crash kills the flusher with the process; the simulated
        # one must stop it explicitly before "restarting".
        lsm.quiesce_after_crash()
        recovered = make_lsm(inner)
        recovered.recover()
        return acked, recovered, fired

    @pytest.mark.parametrize("seed", BG_SEEDS)
    @pytest.mark.parametrize(
        "label,arm", BG_CRASH_POINTS, ids=[l for l, __ in BG_CRASH_POINTS]
    )
    def test_bg_crash_schedule(self, label, arm, seed):
        plan = FaultPlan(seed=seed)
        rule = arm(plan)
        acked, recovered, fired = self.run_bg_schedule(plan, seed)
        assert fired, f"schedule {label!r} never reached its crash point"
        assert rule.fired >= 1
        assert orphan_segment_files(recovered) == set()
        visible = visible_row_ids(recovered)
        assert visible == acked  # nothing acked lost, nothing un-acked leaked
        assert recovered.num_live_rows == len(acked)  # nothing applied twice

    def test_crash_free_background_run_converges(self):
        """Control schedule: no faults — bg engine matches the workload."""
        inner = InMemoryObjectStore()
        rng = np.random.default_rng(7)
        lsm = make_lsm(inner, background=True)
        acked = set()
        _bg_workload(lsm, rng, acked)
        lsm.close()
        assert orphan_segment_files(lsm) == set()
        assert visible_row_ids(lsm) == acked
        assert lsm.num_live_rows == len(acked)


class TestWalRace:
    """`truncate_through` racing `replay` under the sanitized WAL lock."""

    @pytest.fixture
    def tsan(self):
        instance = san.enable()
        instance.reset()
        try:
            yield instance
        finally:
            san.disable()

    def test_truncate_racing_replay_is_serialized(self, tsan):
        fs = InMemoryObjectStore()
        wal = WriteAheadLog(fs)
        for i in range(60):
            wal.append_delete(np.array([i]))
        errors = []

        def replayer():
            try:
                for __ in range(30):
                    for record in wal.replay():
                        assert record.row_ids is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def truncator():
            try:
                for lsn in range(0, 60, 2):
                    wal.truncate_through(lsn)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=replayer),
                   threading.Thread(target=truncator)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []
        report = tsan.report()
        assert report["lock_order_violations"] == []
        assert report["unguarded_mutations"] == []

    def test_append_under_sanitizer_guards_lsn(self, tsan):
        wal = WriteAheadLog(InMemoryObjectStore())
        wal.append_delete(np.array([1]))
        assert tsan.report()["unguarded_mutations"] == []


class TestClusterDegradation:
    @pytest.fixture
    def loaded(self):
        data = sift_like(400, dim=8, seed=21)
        queries = random_queries(data, 8, seed=22)
        truth = exact_ground_truth(queries, data, 5, "l2")
        cluster = MilvusCluster(3, dim=8, index_type="FLAT")
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()
        return cluster, queries, truth

    def test_healthy_search_not_degraded(self, loaded):
        cluster, queries, __ = loaded
        res = cluster.search(queries, 5)
        assert res.degraded is False
        assert res.missing_shards == []

    def test_crashed_reader_degrades_instead_of_raising(self, loaded):
        cluster, queries, __ = loaded
        cluster.crash_reader("reader-1")
        res = cluster.search(queries, 5)
        assert res.degraded is True
        assert res.missing_shards == ["reader-1"]
        assert (res.result.ids >= 0).any()  # partial answer, not empty

    def test_all_readers_down_raises_clear_error(self, loaded):
        cluster, queries, __ = loaded
        for node_id in list(cluster.readers):
            cluster.crash_reader(node_id)
        with pytest.raises(NoLiveReadersError):
            cluster.search(queries, 5)

    def test_unknown_node_ids_raise_node_not_found(self, loaded):
        cluster, *__ = loaded
        with pytest.raises(NodeNotFoundError):
            cluster.crash_reader("reader-99")
        with pytest.raises(NodeNotFoundError):
            cluster.restart_reader("nope")
        # Still a KeyError for callers catching the old contract.
        assert issubclass(NodeNotFoundError, KeyError)

    def test_auto_respawn_restores_full_recall(self):
        data = sift_like(300, dim=8, seed=23)
        queries = random_queries(data, 6, seed=24)
        cluster = MilvusCluster(
            2, dim=8, index_type="FLAT",
            respawn_policy=RespawnPolicy(auto=True, max_respawns_per_node=2),
        )
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()
        cluster.crash_reader("reader-0")
        res = cluster.search(queries, 5)
        assert res.degraded is False  # respawned from shared storage
        assert cluster.coordinator.respawns_of("reader-0") == 1

    def test_respawn_cap_leaves_crash_looper_down(self):
        data = sift_like(200, dim=8, seed=25)
        queries = random_queries(data, 4, seed=26)
        cluster = MilvusCluster(
            2, dim=8, index_type="FLAT",
            respawn_policy=RespawnPolicy(auto=True, max_respawns_per_node=2),
        )
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()
        for __ in range(2):
            cluster.crash_reader("reader-0")
            cluster.search(queries, 5)  # respawns (1 then 2)
        cluster.crash_reader("reader-0")
        res = cluster.search(queries, 5)  # over the cap: stays down
        assert res.degraded is True
        assert res.missing_shards == ["reader-0"]

    def test_flaky_shared_store_writer_retries(self):
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=27)
        fail_rule = plan.fail("shardlog/*", op="write", nth=1, times=2)
        shared = FaultyFileSystem(inner, plan)
        cluster = MilvusCluster(
            2, dim=8, index_type="FLAT", shared=shared,
            retry=RetryPolicy(max_attempts=4, sleep=lambda s: None, seed=28),
        )
        data = sift_like(100, dim=8, seed=29)
        cluster.insert(np.arange(len(data)), data)  # survives 2 faults
        cluster.sync()
        assert cluster.total_rows() == len(data)
        assert fail_rule.fired == 2

    def test_reader_dying_mid_fanout_degrades(self, loaded):
        cluster, queries, __ = loaded
        # Kill the node object directly (not via the facade) so the
        # cluster only discovers the death inside the fan-out loop.
        victim = cluster.readers["reader-2"]
        original_search = victim.search

        def dying_search(*args, **kwargs):
            victim.crash()
            return original_search(*args, **kwargs)

        victim.search = dying_search
        res = cluster.search(queries, 5)
        assert res.degraded is True
        assert res.missing_shards == ["reader-2"]
