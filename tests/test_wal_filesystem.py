"""WAL and filesystem backends."""

import numpy as np
import pytest

from repro.storage import (
    FaultPlan,
    FaultyFileSystem,
    InMemoryObjectStore,
    LocalFileSystem,
    LSMConfig,
    LSMManager,
    SimulatedCrash,
    SimulatedHDFS,
    WalCorruptionError,
    WalRecord,
    WriteAheadLog,
)


@pytest.fixture(params=["memory", "local", "hdfs"])
def fs(request, tmp_path):
    if request.param == "memory":
        return InMemoryObjectStore()
    if request.param == "local":
        return LocalFileSystem(str(tmp_path / "fsroot"))
    return SimulatedHDFS()


class TestFileSystems:
    def test_write_read_roundtrip(self, fs):
        fs.write("a/b/c.bin", b"hello")
        assert fs.read("a/b/c.bin") == b"hello"

    def test_overwrite(self, fs):
        fs.write("x", b"one")
        fs.write("x", b"two")
        assert fs.read("x") == b"two"

    def test_missing_raises(self, fs):
        with pytest.raises(FileNotFoundError):
            fs.read("nope")

    def test_delete_idempotent(self, fs):
        fs.write("gone", b"x")
        fs.delete("gone")
        fs.delete("gone")
        assert not fs.exists("gone")

    def test_listdir_prefix(self, fs):
        fs.write("seg/001", b"a")
        fs.write("seg/002", b"b")
        fs.write("wal/001", b"c")
        assert fs.listdir("seg/") == ["seg/001", "seg/002"]

    def test_io_counters(self, fs):
        fs.reset_counters()
        fs.write("k", b"12345")
        fs.read("k")
        assert fs.bytes_written == 5
        assert fs.bytes_read == 5

    def test_append_extends_and_counts(self, fs):
        fs.reset_counters()
        fs.append("log/a", b"12")  # creates the object and its directory
        fs.append("log/a", b"345")
        assert fs.read("log/a") == b"12345"
        fs.append("log/a", b"6")  # an append after a read
        assert fs.read("log/a") == b"123456"
        assert fs.bytes_written == 6
        fs.write("log/a", b"x")  # a write still replaces
        assert fs.read("log/a") == b"x"


class TestLocalFileSystemSafety:
    def test_path_escape_rejected(self, tmp_path):
        fs = LocalFileSystem(str(tmp_path / "root"))
        with pytest.raises(ValueError):
            fs.write("../escape", b"x")


class TestSimulatedHDFS:
    def test_block_rounding(self):
        hdfs = SimulatedHDFS(block_size=1024)
        hdfs.write("small", b"x")
        assert hdfs.stored_bytes() == 1024
        hdfs.write("big", b"x" * 1500)
        assert hdfs.stored_bytes() == 1024 + 2048


class TestWriteAheadLog:
    def test_append_and_replay(self):
        fs = InMemoryObjectStore()
        wal = WriteAheadLog(fs)
        vectors = {"emb": np.ones((2, 4), dtype=np.float32)}
        attrs = {"price": np.array([1.0, 2.0])}
        wal.append_insert(np.array([0, 1]), vectors, attrs)
        wal.append_delete(np.array([0]))
        records = list(wal.replay())
        assert [r.kind for r in records] == ["insert", "delete"]
        np.testing.assert_array_equal(records[0].vectors["emb"], vectors["emb"])
        np.testing.assert_array_equal(records[0].attributes["price"], attrs["price"])
        np.testing.assert_array_equal(records[1].row_ids, [0])

    def test_lsn_monotone(self):
        wal = WriteAheadLog(InMemoryObjectStore())
        lsns = [wal.append_delete(np.array([i])) for i in range(5)]
        assert lsns == [0, 1, 2, 3, 4]

    def test_truncate(self):
        fs = InMemoryObjectStore()
        wal = WriteAheadLog(fs)
        for i in range(4):
            wal.append_delete(np.array([i]))
        wal.truncate_through(1)
        remaining = [r.row_ids[0] for r in wal.replay()]
        assert remaining == [2, 3]

    def test_recovers_lsn_from_existing_log(self):
        fs = InMemoryObjectStore()
        wal1 = WriteAheadLog(fs)
        wal1.append_delete(np.array([1]))
        wal1.append_delete(np.array([2]))
        wal2 = WriteAheadLog(fs)  # fresh process, same storage
        assert wal2.next_lsn == 2

    def test_replay_from_lsn(self):
        wal = WriteAheadLog(InMemoryObjectStore())
        for i in range(5):
            wal.append_delete(np.array([i]))
        tail = [r.lsn for r in wal.replay(from_lsn=3)]
        assert tail == [3, 4]


def make_backend(kind, root):
    if kind == "memory":
        return InMemoryObjectStore()
    if kind == "local":
        return LocalFileSystem(str(root))
    return FaultyFileSystem(InMemoryObjectStore(), FaultPlan())


def lsns(records):
    return [r.lsn for r in records]


@pytest.mark.parametrize("kind", ["memory", "local", "faulty"])
class TestWalLogFormat:
    """The log on storage: files named by first LSN, framed records."""

    def test_torn_last_frame_replays_prefix_at_every_offset(self, kind, tmp_path):
        frame = len(WalRecord(2, "delete", np.array([2]), {}, {}).to_bytes())
        for cut in range(frame):
            inner = make_backend(kind, tmp_path / str(cut))
            plan = FaultPlan()
            plan.torn_write("wal/*", truncate_at=cut, nth=3, op="append")
            wal = WriteAheadLog(FaultyFileSystem(inner, plan))
            wal.append_delete(np.array([0]))
            wal.append_delete(np.array([1]))
            with pytest.raises(SimulatedCrash):
                wal.append_delete(np.array([2]))
            restarted = WriteAheadLog(inner)
            assert lsns(restarted.replay()) == [0, 1], cut
            assert restarted.append_delete(np.array([9])) == 2
            records = WriteAheadLog(inner).replay()
            assert lsns(records) == [0, 1, 2], cut
            assert records[2].row_ids.tolist() == [9]

    @pytest.mark.parametrize("failure", ["torn", "error", "landed"])
    def test_failed_append_then_success_replays(self, kind, failure, tmp_path):
        plan = FaultPlan()
        if failure == "torn":
            plan.torn_write("wal/*", truncate_at=20, nth=2, op="append")
        elif failure == "error":
            plan.fail("wal/*", op="append", nth=2)
        else:  # the bytes land intact, but the call still raises
            plan.crash_after("wal/*", op="append", nth=2)
        inner = make_backend(kind, tmp_path)
        wal = WriteAheadLog(FaultyFileSystem(inner, plan))
        wal.append_delete(np.array([0]))
        with pytest.raises((SimulatedCrash, IOError)):
            wal.append_delete(np.array([-1]))  # never acknowledged
        assert wal.append_delete(np.array([1])) == 1
        assert wal.append_delete(np.array([2])) == 2
        for replayer in (wal, WriteAheadLog(inner)):
            records = replayer.replay()
            assert lsns(records) == [0, 1, 2]
            assert [r.row_ids.tolist() for r in records] == [[0], [1], [2]]
        assert wal.pending_lsns() == [0, 1, 2]

    def test_damaged_middle_frame_raises(self, kind, tmp_path):
        fs = make_backend(kind, tmp_path)
        wal = WriteAheadLog(fs)
        for i in range(3):
            wal.append_delete(np.array([i]))
        blob = bytearray(fs.read("wal/000000000000.log"))
        blob[20] ^= 0xFF  # inside record 0; records 1 and 2 stay intact
        fs.write("wal/000000000000.log", bytes(blob))
        restarted = WriteAheadLog(fs)
        restarted.truncate_through(-1)  # recover()'s order: checkpoint, replay
        with pytest.raises(WalCorruptionError):
            restarted.replay()
        assert fs.read("wal/000000000000.log") == bytes(blob)  # nothing cut

    def test_checkpoint_deletes_whole_files_only(self, kind, tmp_path):
        fs = make_backend(kind, tmp_path)
        wal = WriteAheadLog(fs)
        wal.append_delete(np.array([0]))
        wal.append_delete(np.array([1]))
        assert wal.rotate() == 1  # a freeze covering LSNs 0..1
        wal.append_delete(np.array([2]))
        wal.append_delete(np.array([3]))
        wal.truncate_through(1)
        assert fs.listdir("wal/") == ["wal/000000000002.log"]
        wal.truncate_through(2)  # mid-file: the file still holds LSN 3
        assert fs.listdir("wal/") == ["wal/000000000002.log"]
        assert wal.pending_lsns() == [2, 3]
        assert lsns(wal.replay()) == [3]

    def test_lsm_checkpoint_at_freeze(self, kind, tmp_path):
        fs = make_backend(kind, tmp_path)
        lsm = make_lsm(fs)
        rng = np.random.default_rng(0)
        lsm.insert(*batch(rng, np.arange(10)))
        lsm.insert(*batch(rng, np.arange(10, 20)))
        lsm.flush()
        assert fs.listdir("wal/") == []  # the freeze ended the file
        lsm.insert(*batch(rng, np.arange(20, 30)))
        assert fs.listdir("wal/") == ["wal/000000000002.log"]
        assert lsm.wal.pending_lsns() == [2]

    def test_recover_twice_is_idempotent(self, kind, tmp_path):
        fs = make_backend(kind, tmp_path)
        rng = np.random.default_rng(1)
        lsm = make_lsm(fs)
        lsm.insert(*batch(rng, np.arange(10)))
        lsm.flush()
        lsm.insert(*batch(rng, np.arange(10, 25)))
        lsm.delete(np.array([3]))
        del lsm  # abandoned, as by a crash
        replayed = []
        for __ in range(2):
            recovered = make_lsm(fs)
            replayed.append(recovered.recover())
        assert replayed == [2, 2]
        recovered.flush()
        assert recovered.num_live_rows == 24


def make_lsm(fs):
    config = LSMConfig(memtable_flush_bytes=1 << 30, index_build_min_rows=1 << 30)
    return LSMManager({"emb": (8, "l2")}, ("price",), config, fs=fs)


def batch(rng, row_ids):
    return (
        row_ids,
        {"emb": rng.normal(size=(len(row_ids), 8)).astype(np.float32)},
        {"price": rng.uniform(0, 1, len(row_ids))},
    )
