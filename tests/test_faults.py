"""Fault-injection DSL (`repro.storage.faults`) and retry (`repro.utils.retry`)."""

import numpy as np
import pytest

from repro.storage import (
    FaultPlan,
    FaultyFileSystem,
    InMemoryObjectStore,
    SimulatedCrash,
    WalCorruptionError,
    WalRecord,
    WriteAheadLog,
)
from repro.utils.retry import RetryExhaustedError, RetryPolicy


def no_sleep(_seconds):
    return None


class TestFaultPlanDsl:
    def test_passthrough_without_rules(self):
        fs = FaultyFileSystem(InMemoryObjectStore(), FaultPlan())
        fs.write("a/b", b"payload")
        assert fs.read("a/b") == b"payload"
        assert fs.exists("a/b")
        assert fs.listdir("a/") == ["a/b"]
        fs.delete("a/b")
        assert not fs.exists("a/b")
        assert fs.faults_fired() == 0

    def test_torn_write_truncates_and_crashes(self):
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=1)
        rule = plan.torn_write("wal/*", truncate_at=3)
        fs = FaultyFileSystem(inner, plan)
        with pytest.raises(SimulatedCrash):
            fs.write("wal/rec", b"0123456789")
        assert inner.read("wal/rec") == b"012"  # partial payload landed
        assert rule.fired == 1

    def test_torn_append_keeps_earlier_bytes(self):
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=1)
        rule = plan.torn_write("wal/*", truncate_at=2, nth=2, op="append")
        fs = FaultyFileSystem(inner, plan)
        fs.append("wal/log", b"abc")
        with pytest.raises(SimulatedCrash):
            fs.append("wal/log", b"defgh")
        assert inner.read("wal/log") == b"abcde"
        assert rule.fired == 1

    def test_only_writes_and_appends_tear(self):
        with pytest.raises(ValueError):
            FaultPlan().torn_write("*", truncate_at=1, op="delete")

    def test_torn_write_without_crash_is_short_write(self):
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=1)
        plan.torn_write("*", truncate_at=1, crash=False)
        fs = FaultyFileSystem(inner, plan)
        fs.write("x", b"abc")  # no raise
        assert inner.read("x") == b"a"

    def test_transient_error_fires_on_nth_through_times(self):
        plan = FaultPlan(seed=0)
        rule = plan.fail("log/*", op="write", nth=2, times=2)
        fs = FaultyFileSystem(InMemoryObjectStore(), plan)
        fs.write("log/a", b"1")  # op 1: clean
        with pytest.raises(IOError):
            fs.write("log/a", b"2")  # op 2: fault
        with pytest.raises(IOError):
            fs.write("log/a", b"3")  # op 3: fault
        fs.write("log/a", b"4")  # op 4: clean again
        assert rule.fired == 2
        assert fs.read("log/a") == b"4"

    def test_error_fires_before_op_executes(self):
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=0)
        plan.fail("k", op="write")
        fs = FaultyFileSystem(inner, plan)
        with pytest.raises(IOError):
            fs.write("k", b"lost")
        assert not inner.exists("k")  # nothing landed

    def test_corrupt_read_flips_bits_deterministically(self):
        payload = bytes(64)
        corrupted = []
        for _attempt in range(2):
            inner = InMemoryObjectStore()
            inner.write("seg", payload)
            plan = FaultPlan(seed=42)
            plan.corrupt_read("seg", flip_bits=3)
            fs = FaultyFileSystem(inner, plan)
            corrupted.append(fs.read("seg"))
        assert corrupted[0] != payload
        assert corrupted[0] == corrupted[1]  # same seed, same damage
        assert inner.read("seg") == payload  # backend untouched

    def test_crash_after_op_lands(self):
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=0)
        plan.crash_after("manifest/*", op="write")
        fs = FaultyFileSystem(inner, plan)
        with pytest.raises(SimulatedCrash):
            fs.write("manifest/1", b"state")
        assert inner.read("manifest/1") == b"state"  # landed before crash

    def test_latency_is_accounted_not_slept(self):
        plan = FaultPlan(seed=0)
        plan.latency("slow/*", op="read", seconds=0.5)
        fs = FaultyFileSystem(InMemoryObjectStore(), plan)
        fs.write("slow/x", b"d")
        fs.read("slow/x")
        fs.read("slow/x")
        assert fs.injected_latency_seconds == pytest.approx(1.0)

    def test_glob_and_op_scoping(self):
        plan = FaultPlan(seed=0)
        plan.fail("wal/*", op="delete", times=None)
        fs = FaultyFileSystem(InMemoryObjectStore(), plan)
        fs.write("wal/1", b"x")  # write unaffected
        fs.write("seg/1", b"y")
        fs.delete("seg/1")  # other prefix unaffected
        with pytest.raises(IOError):
            fs.delete("wal/1")

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().fail("*", op="chmod")

    def test_counters_delegate_to_inner(self):
        inner = InMemoryObjectStore()
        fs = FaultyFileSystem(inner, FaultPlan())
        fs.write("k", b"12345")
        fs.read("k")
        assert fs.bytes_written == 5
        assert fs.bytes_read == 5
        fs.reset_counters()
        assert inner.bytes_written == 0


class TestWalChecksums:
    def record(self, lsn=0):
        return WalRecord(
            lsn, "insert", np.array([1, 2]),
            {"emb": np.ones((2, 4), dtype=np.float32)}, {},
        )

    def test_roundtrip(self):
        rec = self.record(lsn=5)
        back = WalRecord.from_bytes(rec.to_bytes())
        assert back.lsn == 5 and back.kind == "insert"
        np.testing.assert_array_equal(back.row_ids, [1, 2])

    def test_categoricals_default_is_fresh_dict(self):
        a, b = self.record(), self.record()
        a.categoricals["color"] = np.array([1])
        assert b.categoricals == {}  # no shared mutable default

    def test_truncated_blob_detected(self):
        blob = self.record().to_bytes()
        with pytest.raises(WalCorruptionError):
            WalRecord.from_bytes(blob[: len(blob) // 2])

    def test_bitflip_detected(self):
        blob = bytearray(self.record().to_bytes())
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(WalCorruptionError):
            WalRecord.from_bytes(bytes(blob))

    def test_unframed_payload_rejected(self):
        framed = self.record(lsn=3).to_bytes()
        with pytest.raises(WalCorruptionError):
            WalRecord.from_bytes(framed[12:])  # strip WREC|crc|len frame

    def test_mid_log_corruption_raises_not_truncates(self):
        fs = InMemoryObjectStore()
        wal = WriteAheadLog(fs)
        for i in range(3):
            wal.append_delete(np.array([i]))
        # Damage record 0 while records 1, 2 stay intact.
        path = "wal/000000000000.log"
        blob = bytearray(fs.read(path))
        blob[20] ^= 0xFF
        fs.write(path, bytes(blob))
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(fs).replay()


class TestRetryPolicy:
    def test_succeeds_through_transient_faults(self):
        plan = FaultPlan(seed=0)
        plan.fail("k", op="write", times=2)
        fs = FaultyFileSystem(InMemoryObjectStore(), plan)
        policy = RetryPolicy(max_attempts=4, sleep=no_sleep, seed=1)
        policy.call(fs.write, "k", b"v")
        assert fs.read("k") == b"v"
        assert policy.retries == 2

    def test_exhaustion_wraps_last_error(self):
        plan = FaultPlan(seed=0)
        plan.fail("k", op="write", times=None)
        fs = FaultyFileSystem(InMemoryObjectStore(), plan)
        policy = RetryPolicy(max_attempts=3, sleep=no_sleep)
        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(fs.write, "k", b"v")
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, IOError)

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def explode():
            calls.append(1)
            raise KeyError("not transient")

        policy = RetryPolicy(max_attempts=5, sleep=no_sleep)
        with pytest.raises(KeyError):
            policy.call(explode)
        assert len(calls) == 1

    def test_backoff_schedule_is_seeded_and_bounded(self):
        a = RetryPolicy(max_attempts=6, base_delay=0.1, multiplier=2.0,
                        max_delay=0.5, jitter=0.2, seed=9)
        b = RetryPolicy(max_attempts=6, base_delay=0.1, multiplier=2.0,
                        max_delay=0.5, jitter=0.2, seed=9)
        da, db = a.preview_delays(), b.preview_delays()
        assert da == db  # deterministic under a fixed seed
        assert all(d <= 0.5 * 1.2 + 1e-12 for d in da)
        assert da[0] < da[-1]  # exponential growth survives jitter

    def test_deadline_caps_planned_sleep(self):
        plan = FaultPlan(seed=0)
        plan.fail("k", op="write", times=None)
        fs = FaultyFileSystem(InMemoryObjectStore(), plan)
        slept = []
        policy = RetryPolicy(
            max_attempts=50, base_delay=1.0, multiplier=1.0, jitter=0.0,
            deadline=2.5, sleep=slept.append,
        )
        with pytest.raises(RetryExhaustedError):
            policy.call(fs.write, "k", b"v")
        assert len(slept) == 2  # third planned sleep would exceed 2.5s

    def test_wrap_decorator(self):
        plan = FaultPlan(seed=0)
        plan.fail("k", op="write", times=1)
        fs = FaultyFileSystem(InMemoryObjectStore(), plan)
        policy = RetryPolicy(max_attempts=2, sleep=no_sleep)
        write = policy.wrap(fs.write)
        write("k", b"v")
        assert fs.read("k") == b"v"

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestClientRetryWiring:
    """RetryPolicy rides the SDK and REST layers end to end."""

    def make_router_with_flaky_storage(self, plan, retry):
        from repro.client.rest import RestRouter

        router = RestRouter(retry=retry)
        router.handle("POST", "/collections", {
            "name": "c", "vector_fields": [{"name": "emb", "dim": 4}],
        })
        col = router.client.server.get_collection("c")
        faulty = FaultyFileSystem(col.lsm.fs, plan)
        col.lsm.fs = faulty
        col.lsm.wal.fs = faulty
        return router

    def test_rest_insert_succeeds_through_transient_faults(self):
        plan = FaultPlan(seed=0)
        plan.fail("wal/*", op="append", nth=1, times=2)
        policy = RetryPolicy(max_attempts=4, sleep=no_sleep, seed=3)
        router = self.make_router_with_flaky_storage(plan, policy)
        resp = router.handle("POST", "/collections/c/entities", {
            "data": {"emb": [[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]]},
        })
        assert resp.status == 201
        assert len(resp.body["ids"]) == 2
        assert policy.retries == 2

    def test_rest_maps_exhausted_retries_to_503(self):
        plan = FaultPlan(seed=0)
        plan.fail("wal/*", op="append", times=None)
        policy = RetryPolicy(max_attempts=3, sleep=no_sleep)
        router = self.make_router_with_flaky_storage(plan, policy)
        resp = router.handle("POST", "/collections/c/entities", {
            "data": {"emb": [[0.0, 0.0, 0.0, 1.0]]},
        })
        assert resp.status == 503
        assert resp.body["retryable"] is True
        assert resp.body["attempts"] == 3

    def test_sdk_retry_does_not_double_apply_inserts(self):
        from repro.client.sdk import connect

        client = connect(retry=RetryPolicy(max_attempts=4, sleep=no_sleep))
        client.create_collection("c", {"emb": (4, "l2")})
        col = client.server.get_collection("c")
        plan = FaultPlan(seed=0)
        plan.fail("wal/*", op="append", nth=1, times=2)
        faulty = FaultyFileSystem(col.lsm.fs, plan)
        col.lsm.fs = faulty
        col.lsm.wal.fs = faulty
        client.insert("c", {"emb": np.ones((3, 4), dtype=np.float32)})
        client.flush("c")
        assert client.count("c") == 3  # retried attempts never double-apply
