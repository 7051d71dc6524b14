"""The cluster facade: shared storage + coordinator + writer + readers.

Queries fan out to every reader (each owns one shard) and merge.  Two
timings are reported:

* wall-clock — honest in-process measurement (nodes run one after
  another on the request's thread, in one Python process);
* simulated parallel seconds — the max of per-node busy time for the
  batch, i.e. what an actual deployment with one node per machine
  would take.  Fig. 10b plots throughput from this value, which is
  where the near-linear scaling of the shared-storage design shows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import NodeNotFoundError, NoLiveReadersError
from repro.distributed.coordinator import Coordinator
from repro.distributed.node import ReaderNode, WriterNode
from repro.exec import QueryExecutor
from repro.index.base import SearchResult
from repro.metrics import get_metric
from repro.obs import get_obs
from repro.obs import events as obs_events
from repro.obs.profile import QueryProfile, profile_stage
from repro.storage.filesystem import FileSystem, InMemoryObjectStore
from repro.utils import merge_topk_batch
from repro.utils.retry import RetryPolicy


@dataclass
class RespawnPolicy:
    """When/how the coordinator auto-replaces crashed readers.

    ``auto=True`` makes :meth:`MilvusCluster.search` respawn any dead
    reader (state rebuilt from shared storage) before fanning out,
    as long as the node is under ``max_respawns_per_node`` — the
    K8s-style crash-loop backoff cap.  With ``auto=False`` (default)
    dead readers are merely skipped and reported.
    """

    auto: bool = False
    max_respawns_per_node: int = 3


@dataclass
class ClusterSearchResult:
    """Merged results plus the two timings and degradation status.

    ``degraded`` is True when at least one shard did not answer;
    ``missing_shards`` names the readers whose shards are absent from
    the merged result — the client's signal that recall is partial,
    not a lie.

    ``per_node_seconds`` is each answering reader's serve time for
    *this* call (span-derived, so concurrent searches never
    double-count); ``simulated_parallel_seconds`` is its max.  Lazy
    index builds triggered by the query are reported separately as
    ``index_build_seconds`` instead of polluting node latency.
    ``trace_id`` links to the query's span tree when observability is
    on.
    """

    result: SearchResult
    wall_seconds: float
    simulated_parallel_seconds: float
    degraded: bool = False
    missing_shards: List[str] = field(default_factory=list)
    per_node_seconds: Dict[str, float] = field(default_factory=dict)
    index_build_seconds: float = 0.0
    trace_id: Optional[str] = None
    #: per-shard work-counter profile; populated with ``explain=True``
    #: (see :mod:`repro.obs.profile`).
    profile: Optional[QueryProfile] = None


class MilvusCluster:
    """Single-writer / multi-reader shared-storage cluster."""

    def __init__(
        self,
        n_readers: int,
        dim: int,
        metric: str = "l2",
        index_type: str = "IVF_FLAT",
        index_params: Optional[dict] = None,
        shared: Optional[FileSystem] = None,
        respawn_policy: Optional[RespawnPolicy] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        if n_readers <= 0:
            raise ValueError("need at least one reader")
        self.shared = shared or InMemoryObjectStore()
        self.coordinator = Coordinator()
        self.respawn_policy = respawn_policy or RespawnPolicy()
        self.writer = WriterNode(self.shared, retry=retry)
        self.metric = get_metric(metric)
        self.dim = dim
        self.readers: Dict[str, ReaderNode] = {}
        for i in range(n_readers):
            self.add_reader(
                ReaderNode(
                    f"reader-{i}", self.shared, dim, self.metric.name,
                    index_type, index_params,
                )
            )

    # -- membership -------------------------------------------------------

    def add_reader(self, reader: ReaderNode) -> None:
        self.coordinator.register_reader(reader.node_id)
        self.readers[reader.node_id] = reader

    def _reader_or_raise(self, node_id: str) -> ReaderNode:
        try:
            return self.readers[node_id]
        except KeyError:
            raise NodeNotFoundError(
                f"unknown reader node {node_id!r}; cluster has "
                f"{sorted(self.readers)}"
            ) from None

    def crash_reader(self, node_id: str) -> None:
        self._reader_or_raise(node_id).crash()

    def restart_reader(self, node_id: str) -> None:
        """K8s-style replacement: same identity, state from shared storage."""
        dead = self._reader_or_raise(node_id)
        self.readers[node_id] = ReaderNode.respawn(dead)

    def _auto_respawn(self) -> List[str]:
        """Respawn dead readers the policy allows; returns their ids."""
        obs = get_obs()
        respawned = []
        for node_id, reader in list(self.readers.items()):
            if reader.alive:
                continue
            if self.coordinator.respawns_of(node_id) >= (
                self.respawn_policy.max_respawns_per_node
            ):
                continue  # crash-looping node: leave it down, degrade
            self.coordinator.record_respawn(node_id)
            with profile_stage("cluster.respawn", node=node_id):
                self.readers[node_id] = ReaderNode.respawn(reader)
            obs.registry.counter("cluster_respawns_total", node=node_id).inc()
            obs.events.emit(
                obs_events.READER_RESPAWN, node=node_id,
                respawns=self.coordinator.respawns_of(node_id))
            respawned.append(node_id)
        return respawned

    # -- write path -----------------------------------------------------------

    def insert(self, row_ids: np.ndarray, vectors: np.ndarray) -> None:
        """Shard the batch by row id and ship per-shard logs."""
        obs = get_obs()
        row_ids = np.asarray(row_ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float32)
        with profile_stage("cluster.insert", rows=len(row_ids)):
            owners = np.array([self.coordinator.route(int(r)) for r in row_ids])
            for shard in np.unique(owners):
                mask = owners == shard
                self.writer.append_shard_log(
                    str(shard), row_ids[mask], vectors[mask]
                )
        obs.registry.counter("cluster_insert_rows_total").inc(len(row_ids))

    def sync(self, build_indexes: bool = True) -> None:
        """Have every reader consume pending logs (and index)."""
        for reader in self.readers.values():
            reader.refresh()
            if build_indexes:
                reader.build_index()

    # -- read path ---------------------------------------------------------------

    def search(
        self,
        queries: np.ndarray,
        k: int,
        auto_refresh: bool = False,
        explain: bool = False,
        **search_params,
    ) -> ClusterSearchResult:
        """Fan out to all live readers, merge, and report timings.

        Partial failure degrades instead of raising: crashed readers
        (whether found dead up front or dying mid-fan-out) are
        skipped, and the result carries ``degraded=True`` plus the
        list of ``missing_shards`` so callers know recall is partial.
        Only when *no* reader can answer does the call raise
        :class:`~repro.core.errors.NoLiveReadersError`.  When the
        cluster's :class:`RespawnPolicy` has ``auto=True``, dead
        readers under the respawn cap are replaced (state rebuilt from
        shared storage) before the fan-out.

        ``auto_refresh=True`` gives read-your-writes at the cluster
        level: every reader consumes pending shard logs before serving
        (at the cost of an extra shared-storage listing per query).

        Per-node latency is timed locally around each reader's call for
        *this* query (the old scheme diffed cumulative
        ``busy_seconds``, which double-counts whenever searches overlap
        and silently absorbed lazy index builds).  Builds are hoisted
        via :meth:`ReaderNode.ensure_index` and reported separately as
        ``index_build_seconds``.

        Readers are asked one after another on the calling thread, in
        reader order (see :mod:`repro.exec`).
        """
        obs = get_obs()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        injected0 = float(getattr(self.shared, "injected_latency_seconds", 0.0))
        if explain:
            profile = QueryProfile("cluster.search", nq=len(queries), k=int(k))
            stage = profile.root
        else:
            profile = None
            stage = profile_stage("cluster.search", nq=len(queries), k=int(k))
        with stage:
            if self.respawn_policy.auto:
                self._auto_respawn()
            live = [r for r in self.readers.values() if r.alive]
            missing = [n for n, r in self.readers.items() if not r.alive]
            if not live:
                raise NoLiveReadersError(
                    f"all {len(self.readers)} readers are down"
                )
            index_build_seconds = 0.0
            started = time.perf_counter()

            def serve(reader: ReaderNode):
                # Each task returns (build_seconds, result, node_seconds);
                # the timed window sits inside the fan-out wall window,
                # so max(per_node) <= wall holds.  The refresh runs
                # inside the task so a shared-storage read failure
                # degrades this shard instead of failing the whole query.
                with profile_stage("shard.search", node=reader.node_id):
                    if auto_refresh and reader.refresh():
                        reader.build_index()
                    build = reader.ensure_index()
                    node_started = time.perf_counter()
                    shard = reader.search(queries, k, **search_params)
                    return build, shard, time.perf_counter() - node_started

            tasks = [partial(serve, reader) for reader in live]
            settled = QueryExecutor().map_settled(
                tasks,
                # Died between the liveness check and its turn in the
                # fan-out (or its shared-storage read failed): degrade,
                # don't raise.
                catch=(RuntimeError, IOError),
            )
            partials = []
            per_node: Dict[str, float] = {}
            for reader, (value, error) in zip(live, settled):
                if error is not None:
                    missing.append(reader.node_id)
                    continue
                build, shard, node_seconds = value
                index_build_seconds += build
                partials.append(shard)
                per_node[reader.node_id] = node_seconds
            if not partials:
                raise NoLiveReadersError(
                    f"all {len(self.readers)} readers failed during fan-out"
                )
            wall = time.perf_counter() - started

            ids, scores = merge_topk_batch(
                [(p.ids, p.scores) for p in partials],
                k,
                self.metric.higher_is_better,
                nq=len(queries),
                dtype=np.float64,
            )
            merged = SearchResult(ids, scores)

        registry = obs.registry
        registry.counter("cluster_searches_total").inc()
        registry.histogram("cluster_search_seconds").observe(wall)
        if index_build_seconds:
            registry.histogram("cluster_lazy_index_build_seconds").observe(
                index_build_seconds
            )
        if missing:
            registry.counter("cluster_degraded_searches_total").inc()
            registry.counter("cluster_missing_shards_total").inc(len(missing))
        injected = (
            float(getattr(self.shared, "injected_latency_seconds", 0.0))
            - injected0
        )
        obs.slow_query_log.observe(
            "cluster.search",
            wall + max(0.0, injected),
            trace_id=stage.trace_id,
            nq=len(queries),
            k=k,
            degraded=bool(missing),
            profile=stage,
        )
        return ClusterSearchResult(
            result=merged,
            wall_seconds=wall,
            simulated_parallel_seconds=(
                max(per_node.values()) if per_node else 0.0
            ),
            degraded=bool(missing),
            missing_shards=sorted(missing),
            per_node_seconds=per_node,
            index_build_seconds=index_build_seconds,
            trace_id=stage.trace_id,
            profile=profile,
        )

    # -- introspection ----------------------------------------------------------------

    @property
    def num_readers(self) -> int:
        return len(self.readers)

    def total_rows(self) -> int:
        return sum(r.num_rows for r in self.readers.values() if r.alive)

    def shard_sizes(self) -> Dict[str, int]:
        return {node_id: r.num_rows for node_id, r in self.readers.items()}
