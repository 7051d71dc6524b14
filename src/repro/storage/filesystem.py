"""Multi-storage abstraction (paper Sec. 2.4).

"Milvus supports multiple file systems including local file systems,
Amazon S3, and HDFS for the underlying data storage."  The S3 and HDFS
backends here are in-process simulations: dictionary-backed object
stores with the semantics that matter to the engine (whole-object
put/get, no partial update for S3; block-oriented accounting for
HDFS), plus byte counters so benches can report I/O volume.  Every
backend also offers a durable :meth:`FileSystem.append`, which the
write-ahead log is built on.
"""

from __future__ import annotations

import abc
import os
import threading
from typing import Dict, List

from repro.utils.sanitizer import maybe_sanitize


class FileSystem(abc.ABC):
    """Minimal object-storage interface the engine depends on."""

    @abc.abstractmethod
    def write(self, path: str, data: bytes) -> None:
        """Store ``data`` at ``path``, replacing any previous object."""

    @abc.abstractmethod
    def append(self, path: str, data: bytes) -> None:
        """Add ``data`` to the end of ``path`` (created if missing).

        Durable: returns only once the bytes would survive a crash.  A
        failure may leave any prefix of ``data`` behind.
        """

    @abc.abstractmethod
    def read(self, path: str) -> bytes:
        """Fetch the object at ``path``; raises ``FileNotFoundError``."""

    @abc.abstractmethod
    def exists(self, path: str) -> bool:
        ...

    @abc.abstractmethod
    def delete(self, path: str) -> None:
        """Remove the object; missing objects are a no-op (idempotent)."""

    @abc.abstractmethod
    def listdir(self, prefix: str) -> List[str]:
        """Paths starting with ``prefix``, sorted."""

    # I/O accounting shared by all backends.
    bytes_written: int = 0
    bytes_read: int = 0

    def reset_counters(self) -> None:
        self.bytes_written = 0
        self.bytes_read = 0


class LocalFileSystem(FileSystem):
    """Real on-disk backend rooted at ``root``.

    The OS serializes the file operations themselves; the lock here
    only guards the I/O counters (``self.bytes_written += n`` is a
    read-modify-write and loses increments under concurrent flush +
    WAL append without it).  The fsync'd write happens *outside* the
    lock so accounting never serializes the actual I/O.
    """

    #: lock-discipline declaration consumed by tools/reprolint.
    _GUARDED_BY = {
        "bytes_written": "_lock",
        "bytes_read": "_lock",
    }

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = maybe_sanitize(threading.Lock(), "fs")
        self.bytes_written = 0
        self.bytes_read = 0

    def reset_counters(self) -> None:
        with self._lock:
            self.bytes_written = 0
            self.bytes_read = 0

    def _full(self, path: str) -> str:
        full = os.path.normpath(os.path.join(self.root, path))
        if not full.startswith(os.path.normpath(self.root)):
            raise ValueError(f"path {path!r} escapes the filesystem root")
        return full

    def write(self, path: str, data: bytes) -> None:
        """Atomic, durable write: temp file + fsync + ``os.replace``.

        A crash at any point leaves either the old object or the new
        one — never a torn mix — which the WAL and manifest recovery
        paths rely on.
        """
        full = self._full(path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        tmp = full + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, full)
        with self._lock:
            self.bytes_written += len(data)

    def append(self, path: str, data: bytes) -> None:
        """``O_APPEND`` write + fsync; no handle outlives the call."""
        full = self._full(path)
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(full, flags, 0o644)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(full), exist_ok=True)
            fd = os.open(full, flags, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
        with self._lock:
            self.bytes_written += len(data)

    def read(self, path: str) -> bytes:
        with open(self._full(path), "rb") as fh:
            data = fh.read()
        with self._lock:
            self.bytes_read += len(data)
        return data

    def exists(self, path: str) -> bool:
        return os.path.isfile(self._full(path))

    def delete(self, path: str) -> None:
        try:
            os.remove(self._full(path))
        except FileNotFoundError:
            pass

    def listdir(self, prefix: str) -> List[str]:
        found = []
        for dirpath, __, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".tmp"):
                    continue  # in-flight write abandoned by a crash
                rel = os.path.relpath(os.path.join(dirpath, name), self.root)
                rel = rel.replace(os.sep, "/")
                if rel.startswith(prefix):
                    found.append(rel)
        return sorted(found)


class InMemoryObjectStore(FileSystem):
    """Simulated Amazon S3: flat key space, whole-object semantics.

    Thread-safe because the distributed layer shares one store across
    simulated nodes, exactly as Milvus's compute nodes share S3.  Each
    object is a list of chunks, so an append costs its own bytes, not
    the object's; a read joins the chunks once.
    """

    #: lock-discipline declaration consumed by tools/reprolint.
    _GUARDED_BY = {
        "_objects": "_lock",
        "bytes_written": "_lock",
        "bytes_read": "_lock",
        "put_count": "_lock",
        "get_count": "_lock",
    }

    def __init__(self):
        self._objects: Dict[str, List[bytes]] = {}
        self._lock = maybe_sanitize(threading.Lock(), "fs")
        self.bytes_written = 0
        self.bytes_read = 0
        self.put_count = 0
        self.get_count = 0

    def reset_counters(self) -> None:
        with self._lock:
            self.bytes_written = 0
            self.bytes_read = 0
            self.put_count = 0
            self.get_count = 0

    def write(self, path: str, data: bytes) -> None:
        with self._lock:
            self._objects[path] = [bytes(data)]
            self.bytes_written += len(data)
            self.put_count += 1

    def append(self, path: str, data: bytes) -> None:
        with self._lock:
            self._objects.setdefault(path, []).append(bytes(data))
            self.bytes_written += len(data)
            self.put_count += 1

    def read(self, path: str) -> bytes:
        with self._lock:
            try:
                chunks = self._objects[path]
            except KeyError:
                raise FileNotFoundError(path) from None
            if len(chunks) != 1:
                chunks[:] = [b"".join(chunks)]
            data = chunks[0]
            self.bytes_read += len(data)
            self.get_count += 1
            return data

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self._objects

    def delete(self, path: str) -> None:
        with self._lock:
            self._objects.pop(path, None)

    def listdir(self, prefix: str) -> List[str]:
        with self._lock:
            return sorted(key for key in self._objects if key.startswith(prefix))


class SimulatedHDFS(InMemoryObjectStore):
    """Simulated HDFS: object store with block-size storage accounting.

    HDFS allocates in fixed blocks; :meth:`stored_bytes` reports the
    block-rounded footprint, which tests use to verify the abstraction
    actually differs from S3 in the way that matters.
    """

    def __init__(self, block_size: int = 64 * 1024):
        super().__init__()
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size

    def stored_bytes(self) -> int:
        with self._lock:
            total = 0
            for chunks in self._objects.values():
                size = sum(len(chunk) for chunk in chunks)
                blocks = (size + self.block_size - 1) // self.block_size
                total += max(blocks, 1) * self.block_size
            return total
