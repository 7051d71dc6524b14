"""Write-ahead log (paper Sec. 5.1/5.3).

"When Milvus receives heavy write requests, it first materializes the
operations (similar to database logs) to disk and then acknowledges to
users" — and in the distributed deployment "Milvus relies on WAL to
guarantee atomicity" and "the computing layer only sends logs (rather
than the actual data) to the storage layer, similar to Aurora."

The log is a sequence of append-only files on a :class:`FileSystem`,
each named by the LSN of its first record (``wal/{lsn:012d}.log``).
One acknowledged insert or delete is one :meth:`FileSystem.append` of
one framed record — a single write plus fsync — and the ack follows
the fsync.  The LSM starts a new file at every memtable freeze
(:meth:`WriteAheadLog.rotate`), so a checkpoint deletes whole files:
a file goes once every LSN it can hold is at or below the flushed LSN.

Record frame: ``WREC | crc32(payload) | len(payload) | payload``; the
payload is a length-prefixed JSON header (lsn, kind, and each array's
section, field name, dtype and shape) followed by the arrays' raw
little-endian buffers.

A failed append may leave damaged bytes at the end of its file, so the
next append starts a new file named by the LSN it reuses.  Damage is
therefore only ever a file's *tail*, and :meth:`WriteAheadLog.replay`
tells the harmless cases from data loss:

* a damaged tail of the **last** file is the signature of a crash
  mid-append — the record was never acknowledged, so replay cuts the
  file back to its intact prefix;
* a damaged tail of an earlier file is a failed append when the next
  file starts at the LSN right after the intact prefix, and is skipped;
  so is an intact record at or past the next file's first LSN (its
  bytes landed but its append raised, so the next file re-logged it);
* anything else — damage followed by intact frames, or an LSN gap
  between files — means acknowledged data is gone, and replay raises
  :class:`WalCorruptionError` rather than silently dropping it.

Appends, replay, and truncation serialize on an internal lock (role
``"wal"`` in the sanitizer hierarchy: ``lsm -> wal -> fs``) so a
checkpoint racing a recovery scan can never interleave a half-deleted
log with a decode.
"""

from __future__ import annotations

import json
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import get_obs
from repro.obs import events as obs_events
from repro.obs.profile import profile_stage
from repro.storage.filesystem import FileSystem
from repro.utils.sanitizer import assert_guarded, maybe_sanitize

#: record frame: magic, crc32 of payload, payload length.
_FRAME = struct.Struct("<4sII")
_MAGIC = b"WREC"
#: payload prefix: byte length of the JSON header that follows.
_HEADER_LEN = struct.Struct("<I")
#: on-log dtype of each record section.
_SECTION_DTYPES = {
    "row_ids": np.dtype("<i8"),
    "vectors": np.dtype("<f4"),
    "attributes": np.dtype("<f8"),
    "categoricals": np.dtype("<i8"),
}
_SUFFIX = ".log"


class WalCorruptionError(RuntimeError):
    """Acknowledged WAL data is unreadable (not a harmless torn tail)."""

    def __init__(self, message: str, lsn: Optional[int] = None):
        super().__init__(message)
        self.lsn = lsn


@dataclass
class WalRecord:
    """One logged operation.

    ``kind`` is ``"insert"`` or ``"delete"``.  Inserts carry row ids,
    vector fields, attribute columns, and categorical code columns;
    deletes carry row ids only.
    """

    lsn: int
    kind: str
    row_ids: np.ndarray
    vectors: Dict[str, np.ndarray]
    attributes: Dict[str, np.ndarray]
    categoricals: Dict[str, np.ndarray] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        arrays = [("row_ids", "", self.row_ids)]
        for section in ("vectors", "attributes", "categoricals"):
            columns = getattr(self, section)
            arrays.extend((section, name, columns[name]) for name in sorted(columns))
        specs, buffers = [], []
        for section, name, values in arrays:
            arr = np.ascontiguousarray(values, dtype=_SECTION_DTYPES[section])
            specs.append([section, name, arr.dtype.str, list(arr.shape)])
            buffers.append(arr.data)
        header = json.dumps(
            {"lsn": self.lsn, "kind": self.kind, "arrays": specs}
        ).encode()
        payload = b"".join([_HEADER_LEN.pack(len(header)), header, *buffers])
        return _FRAME.pack(_MAGIC, zlib.crc32(payload), len(payload)) + payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WalRecord":
        """Decode exactly one framed record; :class:`WalCorruptionError` on damage."""
        if len(blob) < _FRAME.size or blob[:4] != _MAGIC:
            raise WalCorruptionError("not a WAL record: bad frame magic")
        magic, crc, length = _FRAME.unpack_from(blob)
        payload = blob[_FRAME.size:]
        if len(payload) != length:
            raise WalCorruptionError(
                f"torn record: frame declares {length} payload bytes, "
                f"got {len(payload)}"
            )
        if zlib.crc32(payload) != crc:
            raise WalCorruptionError("checksum mismatch: record payload corrupt")
        return cls._decode_payload(payload)

    @classmethod
    def _decode_payload(cls, payload: bytes) -> "WalRecord":
        try:
            (header_len,) = _HEADER_LEN.unpack_from(payload)
            pos = _HEADER_LEN.size + header_len
            meta = json.loads(payload[_HEADER_LEN.size:pos].decode())
            sections: Dict[str, Dict[str, np.ndarray]] = {
                "vectors": {}, "attributes": {}, "categoricals": {},
            }
            row_ids = None
            for section, name, dtype, shape in meta["arrays"]:
                dtype = np.dtype(dtype)
                count = int(np.prod(shape))
                arr = np.frombuffer(
                    payload, dtype=dtype, count=count, offset=pos
                ).reshape(shape).copy()
                pos += count * dtype.itemsize
                if section == "row_ids":
                    row_ids = arr
                else:
                    sections[section][name] = arr
            if row_ids is None or pos != len(payload):
                raise ValueError("arrays do not account for the payload")
            return cls(
                lsn=meta["lsn"], kind=meta["kind"], row_ids=row_ids, **sections
            )
        except Exception as exc:
            raise WalCorruptionError(f"undecodable record payload: {exc}") from exc


def _frame_at(blob: bytes, pos: int) -> Optional[bytes]:
    """The payload of the intact frame starting at ``pos``, else None."""
    if pos + _FRAME.size > len(blob):
        return None
    magic, crc, length = _FRAME.unpack_from(blob, pos)
    start = pos + _FRAME.size
    if magic != _MAGIC or start + length > len(blob):
        return None
    payload = blob[start:start + length]
    return payload if zlib.crc32(payload) == crc else None


def _split_frames(blob: bytes) -> Tuple[List[bytes], int, Optional[bytes]]:
    """Split one log file into its intact prefix.

    Returns the prefix's payloads, the byte offset where it ends, and
    the payload of the last intact frame after the damage past that
    offset, if any (no failed append leaves one: appends never resume
    in a file after a failure).
    """
    payloads = []
    pos = 0
    while True:
        payload = _frame_at(blob, pos)
        if payload is None:
            break
        payloads.append(payload)
        pos += _FRAME.size + len(payload)
    stray = None
    probe = blob.find(_MAGIC, pos + 1)
    while probe != -1:
        stray = _frame_at(blob, probe) or stray
        probe = blob.find(_MAGIC, probe + 1)
    return payloads, pos, stray


class WriteAheadLog:
    """Durable, replayable operation log over any FileSystem."""

    #: lock-discipline declaration consumed by tools/reprolint (also
    #: registered centrally in [tool.reprolint.guarded-fields]).
    _GUARDED_BY = {
        "_next_lsn": "_lock",
        "_files": "_lock",
        "_active": "_lock",
        "_checkpoint": "_lock",
    }

    def __init__(self, fs: FileSystem, prefix: str = "wal"):
        self.fs = fs
        self.prefix = prefix.rstrip("/")
        # Role "wal" sits between "lsm" and "fs" in the lock hierarchy:
        # the LSM write path appends under its own lock, and appends /
        # checkpoints call into the filesystem while holding this one.
        self._lock = maybe_sanitize(threading.Lock(), "wal")
        #: first LSN -> bytes of each log file on storage; the sum is
        #: the WAL-lag health signal.  Files inherited from a previous
        #: process are sized when they are read.
        self._files: Dict[int, int] = dict.fromkeys(self._scan(), 0)
        #: first LSN of the file appends go to; None starts a new file
        #: at the next append (a fresh process never appends after a
        #: tail it has not checked).
        self._active: Optional[int] = None
        #: highest LSN a checkpoint has covered; files are deleted only
        #: whole, so a file may still hold records at or below it.
        self._checkpoint = -1
        self._next_lsn = 0
        if self._files:
            last = max(self._files)
            blob = self.fs.read(self._path(last))
            self._files[last] = len(blob)
            payloads, __, stray = _split_frames(blob)
            self._next_lsn = last + len(payloads)
            if stray is not None:
                # Damage mid-file: replay will raise, and until then no
                # append or checkpoint may reach the LSNs past it.
                self._next_lsn = max(
                    self._next_lsn, WalRecord._decode_payload(stray).lsn + 1
                )

    def _path(self, first_lsn: int) -> str:
        return f"{self.prefix}/{first_lsn:012d}{_SUFFIX}"

    def _scan(self) -> List[int]:
        """First LSNs of the log files on storage, ascending."""
        firsts = []
        for path in self.fs.listdir(self.prefix + "/"):
            name = path.rsplit("/", 1)[-1]
            if name.endswith(_SUFFIX):
                try:
                    firsts.append(int(name[: -len(_SUFFIX)]))
                except ValueError:
                    continue
        return sorted(firsts)

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def append_insert(
        self,
        row_ids: np.ndarray,
        vectors: Dict[str, np.ndarray],
        attributes: Optional[Dict[str, np.ndarray]] = None,
        categoricals: Optional[Dict[str, np.ndarray]] = None,
    ) -> int:
        """Log an insert batch; returns its LSN once it is durable."""
        with self._lock:
            record = WalRecord(
                self._next_lsn, "insert", row_ids, vectors, attributes or {},
                categoricals or {},
            )
            return self._append_locked(record)

    def append_delete(self, row_ids: np.ndarray) -> int:
        """Log a delete batch; returns its LSN once it is durable."""
        with self._lock:
            record = WalRecord(self._next_lsn, "delete", row_ids, {}, {}, {})
            return self._append_locked(record)

    def _append_locked(self, record: WalRecord) -> int:
        # The LSN counter advances only after the append lands: one
        # that raises (torn, transient) was never acknowledged, and its
        # LSN is reused by the next append — in a new file, because the
        # failed one may have left a damaged tail.
        obs = get_obs()
        blob = record.to_bytes()
        with profile_stage("wal.append", kind=record.kind):
            started = time.perf_counter()
            if self._active is None:
                if record.lsn in self._files:
                    # Left by a failed first append at this LSN: it
                    # holds nothing acknowledged.
                    self.fs.delete(self._path(record.lsn))
                self._files[record.lsn] = 0
                self._active = record.lsn
            try:
                self.fs.append(self._path(self._active), blob)
            except BaseException:
                self._active = None
                raise
            elapsed = time.perf_counter() - started
        self._next_lsn += 1
        self._files[self._active] += len(blob)
        obs.registry.counter("wal_appends_total", kind=record.kind).inc()
        obs.registry.histogram("wal_append_seconds").observe(elapsed)
        obs.registry.gauge("wal_lag_bytes").set(self._lag_bytes_locked())
        return record.lsn

    def _lag_bytes_locked(self) -> int:
        assert_guarded(self._lock, "WriteAheadLog", "_files")
        return sum(self._files.values())

    def rotate(self) -> int:
        """End the current file; returns the highest LSN logged so far.

        The next append starts a new file, so a checkpoint through the
        returned LSN deletes whole files.  No I/O happens here.
        """
        with self._lock:
            self._active = None
            return self._next_lsn - 1

    def _ranges_locked(self) -> List[Tuple[int, int]]:
        """(first LSN, highest LSN it can hold) per file, ascending."""
        firsts = sorted(self._files)
        uppers = [f - 1 for f in firsts[1:]] + [self._next_lsn - 1]
        return list(zip(firsts, uppers))

    def replay(self, from_lsn: int = 0) -> List[WalRecord]:
        """Records with ``lsn >= from_lsn`` in order, torn tail removed.

        See the module docstring for which damage is a harmless
        un-acknowledged tail and which raises
        :class:`WalCorruptionError`.  Everything below ``from_lsn`` is
        the caller's checkpoint, so later appends are numbered from
        ``from_lsn`` at least.
        """
        with self._lock:
            from_lsn = max(from_lsn, self._checkpoint + 1)
            ranges = [r for r in self._ranges_locked() if r[1] >= from_lsn]
            records: List[WalRecord] = []
            for i, (first, upper) in enumerate(ranges):
                path = self._path(first)
                blob = self._read_locked(first)
                payloads, end, stray = _split_frames(blob)
                expected = first
                # An append whose bytes landed but whose call raised was
                # never acknowledged; its LSN was re-logged in the next file.
                for payload in payloads[: upper - first + 1]:
                    record = WalRecord._decode_payload(payload)
                    if record.lsn != expected:
                        raise WalCorruptionError(
                            f"WAL file {path} holds LSN {record.lsn} where "
                            f"{expected} belongs", lsn=expected,
                        )
                    if record.lsn >= from_lsn:
                        records.append(record)
                    expected += 1
                following = ranges[i + 1][0] if i + 1 < len(ranges) else None
                if stray is not None or (
                    following is not None and following != expected
                ):
                    raise WalCorruptionError(
                        f"WAL record {expected} is missing or corrupt but later "
                        f"records are intact: acknowledged writes would be lost",
                        lsn=expected,
                    )
                if end < len(blob) and following is None:
                    self._cut_tail_locked(first, blob[:end])
                else:
                    self._files[first] = len(blob)
            if from_lsn > self._next_lsn:
                self._next_lsn = int(from_lsn)
                self._active = None
            lag = self._lag_bytes_locked()
        get_obs().registry.gauge("wal_lag_bytes").set(lag)
        return records

    def _read_locked(self, first: int) -> bytes:
        # A file whose first append failed before landing may be absent.
        try:
            return self.fs.read(self._path(first))
        except FileNotFoundError:
            return b""

    def _cut_tail_locked(self, first: int, prefix: bytes) -> None:
        """Drop the torn tail of the last file, keeping its intact prefix."""
        path = self._path(first)
        if prefix:
            self.fs.write(path, prefix)
            self._files[first] = len(prefix)
        else:
            self.fs.delete(path)
            del self._files[first]
        if self._active == first:
            self._active = None

    def truncate_through(self, lsn: int) -> None:
        """Checkpoint: records ``<= lsn`` are never replayed again.

        Every file whose LSNs are all ``<= lsn`` is deleted; a file that
        also holds later records stays until a later checkpoint.
        """
        removed = 0
        with self._lock:
            self._checkpoint = max(self._checkpoint, lsn)
            for first, upper in self._ranges_locked():
                if upper > lsn:
                    break
                self.fs.delete(self._path(first))
                del self._files[first]
                if self._active == first:
                    self._active = None
                removed += 1
            lag = self._lag_bytes_locked()
        obs = get_obs()
        obs.registry.gauge("wal_lag_bytes").set(lag)
        if removed:
            obs.events.emit(obs_events.WAL_CHECKPOINT,
                            lsn=lsn, removed=removed, lag_bytes=lag)

    def pending_lsns(self) -> List[int]:
        """LSNs of the intact records currently on storage, ascending.

        Chaos tests assert checkpointing actually reclaimed the log and
        that recovery never replays below the flushed LSN.
        """
        with self._lock:
            lsns: List[int] = []
            for first, upper in self._ranges_locked():
                payloads = _split_frames(self._read_locked(first))[0]
                lsns.extend(range(first, min(first + len(payloads), upper + 1)))
            return lsns
