"""Compute-layer nodes (paper Sec. 5.3): one writer, many readers.

"The computing layer ... is stateless to achieve elasticity.  It
includes a single writer instance and multiple reader instances ...
The computing layer only sends logs (rather than the actual data) to
the storage layer, similar to Aurora."

The writer ships per-shard insert logs to shared storage; each reader
consumes the logs for its shard, materializes vectors, and serves
searches with a local index.  Readers are disposable: a restarted
reader rebuilds its entire state from shared storage.
"""

from __future__ import annotations

import io
import json
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.index import create_index
from repro.index.base import SearchResult, VectorIndex
from repro.metrics import get_metric
from repro.obs import get_obs
from repro.obs.profile import profile_count, profile_stage
from repro.storage.filesystem import FileSystem
from repro.utils.retry import RetryPolicy
from repro.utils.sanitizer import maybe_sanitize


class WriterNode:
    """The single writer: logs insert batches per shard to shared storage.

    Atomicity on crash comes from the log objects themselves: a batch
    is visible iff its log object was fully written (the WAL argument
    of Sec. 5.3).  A :class:`RetryPolicy` makes the append survive a
    flaky shared store: transient put failures are retried up to the
    policy's budget before the error reaches the caller.
    """

    def __init__(
        self,
        shared: FileSystem,
        node_id: str = "writer-0",
        retry: Optional[RetryPolicy] = None,
    ):
        self.shared = shared
        self.node_id = node_id
        self.retry = retry
        self._seq = self._recover_seq()

    def _recover_seq(self) -> int:
        seq = 0
        for path in self.shared.listdir("shardlog/"):
            try:
                seq = max(seq, int(path.split("/")[-1].split("-")[0]) + 1)
            except ValueError:
                continue
        return seq

    def append_shard_log(
        self, shard: str, row_ids: np.ndarray, vectors: np.ndarray
    ) -> str:
        """Write one insert-log object for ``shard``; returns its path."""
        obs = get_obs()
        with profile_stage("writer.append_shard_log", shard=shard):
            started = time.perf_counter()
            buf = io.BytesIO()
            np.savez(
                buf,
                row_ids=np.asarray(row_ids, dtype=np.int64),
                vectors=np.asarray(vectors, dtype=np.float32),
            )
            path = f"shardlog/{self._seq:012d}-{shard}.log"
            self._seq += 1
            if self.retry is not None:
                self.retry.call(self.shared.write, path, buf.getvalue())
            else:
                self.shared.write(path, buf.getvalue())
            elapsed = time.perf_counter() - started
        registry = obs.registry
        registry.counter("writer_shardlog_appends_total").inc()
        registry.counter("writer_shardlog_rows_total").inc(len(row_ids))
        registry.histogram("writer_shardlog_append_seconds").observe(elapsed)
        return path


class ReaderNode:
    """One stateless reader: serves searches over its shard.

    ``refresh()`` pulls any unseen log objects for this shard from
    shared storage (read/write separation: the writer never talks to
    readers directly).  ``busy_seconds`` accumulates the node's own
    *successful* search compute time (introspection only; the cluster
    derives per-node latency from per-call span timings, since
    cumulative deltas double-count under concurrent searches).

    The serving counters are guarded by ``_stats_lock`` (leaf role
    ``"reader-stats"``): two cluster searches issued from different
    client threads can serve from the same reader at once, and
    unguarded ``+=`` on a float drops updates.
    """

    #: lock-discipline declaration consumed by tools/reprolint.
    _GUARDED_BY = {
        "busy_seconds": "_stats_lock",
        "queries_served": "_stats_lock",
    }

    def __init__(
        self,
        node_id: str,
        shared: FileSystem,
        dim: int,
        metric: str = "l2",
        index_type: str = "IVF_FLAT",
        index_params: Optional[dict] = None,
    ):
        self.node_id = node_id
        self.shared = shared
        self.dim = dim
        self.metric = get_metric(metric)
        self.index_type = index_type
        self.index_params = dict(index_params or {})
        self._vectors: Optional[np.ndarray] = None
        self._ids: Optional[np.ndarray] = None
        self._consumed: set = set()
        self._index: Optional[VectorIndex] = None
        self._stats_lock = maybe_sanitize(threading.Lock(), "reader-stats")
        self.busy_seconds = 0.0
        self.queries_served = 0
        self.alive = True

    # -- log consumption -------------------------------------------------------

    def refresh(self) -> int:
        """Consume unseen shard-log objects; returns rows ingested."""
        self._check_alive()
        ingested = 0
        suffix = f"-{self.node_id}.log"
        for path in self.shared.listdir("shardlog/"):
            if not path.endswith(suffix) or path in self._consumed:
                continue
            blob = self.shared.read(path)
            profile_count("bytes_read", len(blob))
            with np.load(io.BytesIO(blob)) as archive:
                row_ids = archive["row_ids"]
                vectors = archive["vectors"]
            if self._vectors is None:
                self._vectors = vectors.copy()
                self._ids = row_ids.copy()
            else:
                self._vectors = np.concatenate([self._vectors, vectors])
                self._ids = np.concatenate([self._ids, row_ids])
            self._consumed.add(path)
            ingested += len(row_ids)
        if ingested:
            self._index = None  # invalidated; rebuilt lazily
        return ingested

    def build_index(self) -> None:
        self._check_alive()
        if self._vectors is None or not len(self._vectors):
            return
        params = dict(self.index_params)
        if self.index_type.startswith("IVF") and "nlist" not in params:
            params["nlist"] = max(4, int(np.sqrt(len(self._vectors))))
        index = create_index(self.index_type, self.dim, metric=self.metric.name, **params)
        if index.requires_training:
            index.train(self._vectors)
        index.add(self._vectors, ids=self._ids)
        self._index = index

    # -- query serving -----------------------------------------------------------

    def ensure_index(self) -> float:
        """Build the local index if data arrived without one; returns the
        seconds spent building (0.0 when already built or empty).

        Split out of :meth:`search` so lazy index construction is
        observable as its *own* cost: the cluster calls this before
        timing the fan-out, keeping per-node search latency free of
        build time (which used to pollute the Fig. 10b numbers
        whenever a reader built lazily inside ``search``).
        """
        self._check_alive()
        if self._index is not None or self._vectors is None or not len(self._vectors):
            return 0.0
        obs = get_obs()
        with profile_stage("reader.index_build", node=self.node_id,
                           index_type=self.index_type):
            started = time.perf_counter()
            self.build_index()
            elapsed = time.perf_counter() - started
        obs.registry.counter("reader_lazy_index_builds_total").inc()
        obs.registry.histogram("reader_lazy_index_build_seconds").observe(elapsed)
        return elapsed

    def search(self, queries: np.ndarray, k: int, **search_params) -> SearchResult:
        """Shard-local top-k; accumulates this node's busy time.

        ``queries_served``/``busy_seconds`` are accounted **only on
        success**: a query that raises (reader crashed mid-fan-out, a
        shared-storage read failed) was not served and must not count
        — the cluster's degraded-read statistics rely on that.
        """
        self._check_alive()
        self.ensure_index()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        obs = get_obs()
        started = time.perf_counter()
        with profile_stage("reader.search", node=self.node_id, nq=len(queries)):
            if self._index is None:
                result = SearchResult.empty(len(queries), k, self.metric)
            else:
                with profile_stage("index.search", node=self.node_id,
                                   index_type=self.index_type):
                    result = self._index.search(queries, k, **search_params)
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self.busy_seconds += elapsed
            self.queries_served += int(queries.shape[0])
        obs.registry.counter(
            "reader_queries_served_total", node=self.node_id
        ).inc(queries.shape[0])
        return result

    # -- lifecycle (K8s-style) ------------------------------------------------------

    def crash(self) -> None:
        """Simulate a crash: all local state is lost."""
        self.alive = False
        self._vectors = None
        self._ids = None
        self._index = None
        self._consumed = set()

    @classmethod
    def respawn(cls, dead: "ReaderNode") -> "ReaderNode":
        """K8s restart: a fresh instance with the same identity; state
        rebuilds entirely from shared storage (statelessness)."""
        node = cls(
            dead.node_id, dead.shared, dead.dim, dead.metric.name,
            dead.index_type, dead.index_params,
        )
        node.refresh()
        node.build_index()
        return node

    def _check_alive(self) -> None:
        if not self.alive:
            raise RuntimeError(f"reader {self.node_id} has crashed")

    @property
    def num_rows(self) -> int:
        return 0 if self._ids is None else len(self._ids)
