"""Observability layer: metrics, the span tree, slow-query log, accounting.

Covers the repro.obs primitives in isolation, the switchboard contract
(off by default, injectable for tests), the REST exposition endpoints,
the end-to-end trace chain (client -> cluster -> every reader -> index
search), and the two query-accounting regressions this layer's
instrumentation surfaced:

* a failed ``ReaderNode.search`` used to count toward
  ``queries_served``/``busy_seconds`` (accounting sat in a ``finally``);
* ``MilvusCluster.search`` derived per-node latency from cumulative
  ``busy_seconds`` deltas, which double-counts under concurrent
  searches and silently absorbed lazy index-build time.
"""

import pathlib
import re
import threading

import numpy as np
import pytest

from repro import obs
from repro.client import ClusterClient, RestRouter
from repro.datasets import random_queries, sift_like
from repro.distributed import MilvusCluster, RespawnPolicy
from repro.obs import (
    MetricsRegistry,
    Profiler,
    SlowQueryLog,
    Stopwatch,
)
from repro.obs import profile as obs_profile
from repro.obs.profile import NULL_STAGE, current_node, profile_stage
from repro.storage import (
    FaultPlan,
    FaultyFileSystem,
    InMemoryObjectStore,
)


@pytest.fixture()
def obs_on():
    """A fresh, injected observability handle; always disabled after."""
    handle = obs.enable()
    yield handle
    obs.disable()


@pytest.fixture()
def cluster2():
    data = sift_like(120, dim=8, seed=50)
    queries = random_queries(data, 4, seed=51)
    cluster = MilvusCluster(2, dim=8, index_type="FLAT")
    cluster.insert(np.arange(len(data)), data)
    cluster.sync()
    return cluster, queries


# -- metrics primitives ----------------------------------------------------


class TestMetrics:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total").inc()
        reg.counter("reqs_total").inc(2)
        reg.counter("reqs_total", node="a").inc(5)
        assert reg.counter("reqs_total").value == 3
        assert reg.counter("reqs_total", node="a").value == 5
        assert reg.total("reqs_total") == 8

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c_total").inc(-1)

    def test_gauge_up_down(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_histogram_quantiles_on_known_data(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        for __ in range(50):
            h.observe(0.001)
        for __ in range(45):
            h.observe(0.02)
        for __ in range(5):
            h.observe(0.3)
        assert h.count == 100
        p = h.percentiles()
        assert 0.0005 <= p["p50"] <= 0.0025
        assert 0.01 <= p["p95"] <= 0.025
        assert 0.25 <= p["p99"] <= 0.5

    def test_histogram_bounded_memory(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        for i in range(10000):
            h.observe((i % 7) * 0.001)
        # Fixed buckets: storage never grows with observations.
        assert len(h._bucket_counts) == len(h.boundaries) + 1
        assert h.count == 10000

    def test_histogram_overflow_bucket_returns_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        h.observe(42.0)  # beyond the last finite boundary
        assert h.quantile(0.99) == 42.0

    def test_prometheus_render(self):
        reg = MetricsRegistry()
        reg.counter("flushes_total").inc(3)
        reg.histogram("flush_seconds").observe(0.002)
        text = reg.render_prometheus()
        assert "# TYPE flushes_total counter" in text
        assert "flushes_total 3" in text
        assert "# TYPE flush_seconds histogram" in text
        assert 'flush_seconds_bucket{le="+Inf"} 1' in text
        assert "flush_seconds_count 1" in text

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.histogram("b_seconds").observe(0.1)
        snap = reg.snapshot()
        assert snap["a_total"] == 1
        assert snap["b_seconds"]["count"] == 1
        assert "p99" in snap["b_seconds"]


# -- the span tree ---------------------------------------------------------


class TestTracing:
    """The one span API: ``profile_stage`` nodes, kept by the profiler."""

    def test_parent_child_ambient_propagation(self, obs_on):
        with profile_stage("outer") as outer:
            assert current_node() is outer
            with profile_stage("inner") as inner:
                assert current_node() is inner
                assert inner.trace_id == outer.trace_id
        assert current_node() is None
        assert outer.children == [inner]
        assert inner.start >= outer.start
        doc = obs_on.profiler.get(outer.trace_id).document()
        assert doc["trace_id"] == outer.trace_id
        assert doc["root"]["name"] == "outer"
        assert doc["root"]["children"][0]["name"] == "inner"
        # only roots are kept: the child lives inside its root's tree
        assert obs_on.profiler.trace_ids() == [outer.trace_id]

    def test_separate_roots_get_separate_traces(self, obs_on):
        with profile_stage("a") as a:
            pass
        with profile_stage("b") as b:
            pass
        assert a.trace_id != b.trace_id
        assert obs_on.profiler.trace_ids() == [a.trace_id, b.trace_id]

    def test_deterministic_sequence_ids(self, obs_on):
        with profile_stage("x") as x:
            pass
        assert re.fullmatch(r"t\d{6}", x.trace_id)
        assert x.trace_id == "t000001"  # a fresh profiler counts from 1

    def test_error_recorded_on_exception(self, obs_on):
        with pytest.raises(RuntimeError):
            with profile_stage("boom") as stage:
                raise RuntimeError("nope")
        assert stage.attrs["error"] == "RuntimeError"
        assert obs_on.profiler.get(stage.trace_id) is stage  # still kept

    def test_trace_store_is_bounded(self, monkeypatch):
        handle = obs.enable(profiler=Profiler(max_profiles=3))
        try:
            ids = []
            for __ in range(5):
                with profile_stage("root") as root:
                    ids.append(root.trace_id)
            assert handle.profiler.trace_ids() == ids[2:]
            assert handle.profiler.get(ids[0]) is None  # LRU-evicted
            monkeypatch.setattr(obs_profile, "MAX_CHILDREN_PER_NODE", 2)
            with profile_stage("wide") as wide:
                for name in ("c1", "c2", "c3", "c4"):
                    with profile_stage(name):
                        pass
            assert [c.name for c in wide.children] == ["c1", "c2"]
            assert wide.dropped_children == 2
            doc = handle.profiler.get(wide.trace_id).document()
            assert doc["root"]["dropped_children"] == 2
        finally:
            obs.disable()


# -- slow-query log --------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_gating(self):
        log = SlowQueryLog(threshold_seconds=0.1, capacity=8)
        assert log.observe("q", 0.05) is False
        assert log.observe("q", 0.15, trace_id="t000001", k=5) is True
        assert log.observed == 2 and log.recorded == 1
        (entry,) = log.entries()
        assert entry.trace_id == "t000001"
        assert entry.detail["k"] == 5

    def test_ring_capacity(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=3)
        for i in range(10):
            log.observe(f"q{i}", 1.0)
        names = [e.name for e in log.entries()]
        assert names == ["q7", "q8", "q9"]
        assert log.recorded == 10


# -- switchboard -----------------------------------------------------------


class TestSwitchboard:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        obs.disable()
        handle = obs.get_obs()
        assert handle.registry.snapshot() == {}
        with profile_stage("noop") as stage:
            assert stage is NULL_STAGE and stage.trace_id is None
            assert current_node() is None
        assert handle.slow_query_log.observe("q", 99.0) is False
        assert "disabled" in handle.registry.render_prometheus()

    def test_enable_injects_and_replaces(self):
        reg = MetricsRegistry()
        handle = obs.enable(registry=reg)
        try:
            assert obs.get_obs().registry is reg
            fresh = obs.enable()
            assert obs.get_obs() is fresh
            assert obs.get_obs().registry is not reg
        finally:
            obs.disable()

    def test_env_var_enables(self, monkeypatch):
        obs.disable()
        monkeypatch.setenv("REPRO_OBS", "1")
        try:
            handle = obs.get_obs()
            handle.registry.counter("seen_total").inc()
            assert obs.get_obs().registry.total("seen_total") == 1
        finally:
            obs.disable()

    def test_stopwatch_records_when_enabled(self, obs_on):
        with Stopwatch("sw_seconds") as sw:
            pass
        assert sw.seconds >= 0.0
        assert obs_on.registry.histogram("sw_seconds").count == 1


# -- accounting regressions ------------------------------------------------


class TestAccountingRegressions:
    def test_failed_query_not_counted_as_served(self, cluster2):
        """Satellite 1: a raising search must not bump queries_served.

        Before the fix the accounting sat in a ``finally`` block, so a
        reader whose index read blew up still "served" the batch.
        """
        cluster, queries = cluster2
        victim = cluster.readers["reader-0"]

        class ExplodingIndex:
            def search(self, *args, **kwargs):
                raise IOError("storage read failed")

        victim._index = ExplodingIndex()
        served0 = victim.queries_served
        busy0 = victim.busy_seconds
        res = cluster.search(queries, 5)
        assert res.degraded is True
        assert res.missing_shards == ["reader-0"]
        assert victim.queries_served == served0
        assert victim.busy_seconds == busy0

    def test_successful_query_still_counted(self, cluster2):
        cluster, queries = cluster2
        reader = cluster.readers["reader-1"]
        served0 = reader.queries_served
        cluster.search(queries, 5)
        assert reader.queries_served == served0 + len(queries)

    def test_per_node_latency_not_polluted_by_concurrent_busy_time(
        self, cluster2
    ):
        """Satellite 2: per-node latency is per-call, not a busy delta.

        Simulate a concurrent search charging 100 busy-seconds to a
        reader while our fan-out is in flight: the old
        ``busy_seconds``-delta scheme attributed all of it to this
        query (simulated_parallel_seconds > 100s); span-derived per-call
        timing stays at the real few-milliseconds scale.
        """
        cluster, queries = cluster2
        victim = cluster.readers["reader-0"]
        inner = victim._index

        class BusyChargingIndex:
            def search(self, *args, **kwargs):
                victim.busy_seconds += 100.0  # the "other" query's time
                return inner.search(*args, **kwargs)

        victim._index = BusyChargingIndex()
        res = cluster.search(queries, 5)
        assert res.simulated_parallel_seconds < 50.0
        assert set(res.per_node_seconds) == {"reader-0", "reader-1"}

    def test_lazy_index_build_reported_separately(self, obs_on):
        data = sift_like(80, dim=8, seed=52)
        queries = random_queries(data, 2, seed=53)
        cluster = MilvusCluster(2, dim=8, index_type="FLAT")
        cluster.insert(np.arange(len(data)), data)
        cluster.sync(build_indexes=False)  # force lazy builds at query time
        res = cluster.search(queries, 5)
        assert res.index_build_seconds > 0.0
        assert obs_on.registry.total("reader_lazy_index_builds_total") == 2
        # Build time is its own metric, not per-node search latency.
        assert res.simulated_parallel_seconds < res.wall_seconds + 1.0


# -- end-to-end trace chain ------------------------------------------------


class TestTraceChain:
    def test_cluster_search_produces_full_trace_tree(self, obs_on, cluster2):
        """Acceptance: one SDK search yields client -> cluster ->
        every reader -> index search, retrievable by trace id."""
        cluster, queries = cluster2
        client = ClusterClient(cluster)
        res = client.search(queries, 5)
        assert res.trace_id is not None
        tree = obs_on.profiler.get(res.trace_id)
        assert tree is not None
        root = tree.document()["root"]
        assert root["name"] == "client.search"
        (cluster_span,) = root["children"]
        assert cluster_span["name"] == "cluster.search"

        # Each reader call sits in a "shard.search" stage, so search
        # the whole subtree rather than only direct children.
        def collect(span, name):
            found = [c for c in span["children"] if c["name"] == name]
            for child in span["children"]:
                found.extend(collect(child, name))
            return found

        reader_spans = collect(cluster_span, "reader.search")
        assert {s["attrs"]["node"] for s in reader_spans} == {
            "reader-0", "reader-1",
        }
        for reader_span in reader_spans:
            names = [c["name"] for c in reader_span["children"]]
            assert "index.search" in names

    def test_single_node_chain_reaches_storage(self, obs_on):
        """A search through the router keeps exactly one tree, rooted at
        its ``rest.request``, reaching storage, with the same exact
        counters as EXPLAIN of the same query, served alike by
        ``/traces/{id}`` and ``/profiles/{id}``."""
        router = RestRouter()
        router.handle("POST", "/collections", {
            "name": "t", "vector_fields": [{"name": "emb", "dim": 8}],
        })
        data = sift_like(60, dim=8, seed=54)
        router.handle("POST", "/collections/t/entities", {
            "data": {"emb": data.tolist()},
        })
        router.handle("POST", "/flush", {})
        body = {"field": "emb", "queries": data[:2].tolist(), "k": 3}
        assert router.handle("POST", "/collections/t/search", body).ok  # warm

        before = set(obs_on.profiler.trace_ids())
        resp = router.handle("POST", "/collections/t/search", body)
        assert resp.ok
        (trace_id,) = [
            tid for tid in obs_on.profiler.trace_ids()
            if tid not in before
            and obs_on.profiler.get(tid).name == "rest.request"
        ]
        tree = obs_on.profiler.get(trace_id)

        def names(node):
            yield node.name
            for child in node.children:
                yield from names(child)

        assert {"rest.request", "sdk.search", "collection.search",
                "lsm.search", "segment.search"} <= set(names(tree))
        explained = router.handle("POST", "/explain", dict(body, collection="t"))
        assert explained.ok
        assert tree.total_counters() == explained.body["profile"]["total_counters"]
        assert tree.total_counters()["distance_evals"] > 0
        as_trace = router.handle("GET", f"/traces/{trace_id}")
        as_profile = router.handle("GET", f"/profiles/{trace_id}")
        assert as_trace.ok and as_trace.body == as_profile.body
        assert as_trace.body["root"]["name"] == "rest.request"

    def test_slowlog_trace_id_resolves_on_both_routes(self):
        handle = obs.enable(slow_query_log=SlowQueryLog(threshold_seconds=0.0))
        try:
            router = RestRouter()
            router.handle("POST", "/collections", {
                "name": "s", "vector_fields": [{"name": "v", "dim": 4}],
            })
            router.handle("POST", "/collections/s/entities", {
                "data": {"v": np.eye(4).tolist()},
            })
            router.handle("POST", "/collections/s/search", {
                "field": "v", "queries": np.eye(4)[:1].tolist(), "k": 1,
            })
            (entry,) = [e for e in handle.slow_query_log.entries()
                        if e.name == "collection.search"]
            as_trace = router.handle("GET", f"/traces/{entry.trace_id}")
            as_profile = router.handle("GET", f"/profiles/{entry.trace_id}")
            assert as_trace.ok and as_trace.body == as_profile.body
            assert as_trace.body["root"]["name"] == "rest.request"
            # the entry embeds the query's own stage, not the request
            assert entry.profile["root"]["name"] == "collection.search"
            assert entry.profile["trace_id"] == entry.trace_id
        finally:
            obs.disable()


# -- engine metrics --------------------------------------------------------


class TestEngineMetrics:
    def test_search_metrics_exposed_via_rest(self, obs_on):
        router = RestRouter()
        router.handle("POST", "/collections", {
            "name": "m", "vector_fields": [{"name": "emb", "dim": 8}],
        })
        data = sift_like(60, dim=8, seed=55)
        router.handle("POST", "/collections/m/entities", {
            "data": {"emb": data.tolist()},
        })
        router.handle("POST", "/flush", {})
        router.handle("POST", "/collections/m/search", {
            "field": "emb", "queries": data[:2].tolist(), "k": 3,
        })
        resp = router.handle("GET", "/metrics")
        assert resp.ok
        text = resp.body["text"]
        for metric in (
            "lsm_insert_rows_total", "wal_appends_total", "lsm_flushes_total",
            "lsm_searches_total", "bufferpool_hits_total",
            "collection_search_seconds", "rest_requests_total",
        ):
            assert metric in text, metric

    def test_trace_endpoints(self, obs_on, cluster2):
        cluster, queries = cluster2
        res = cluster.search(queries, 3)
        router = RestRouter()
        listing = router.handle("GET", "/traces")
        assert res.trace_id in listing.body["trace_ids"]
        tree = router.handle("GET", f"/traces/{res.trace_id}")
        assert tree.ok and tree.body["trace_id"] == res.trace_id
        assert router.handle("GET", "/traces/t999999").status == 404

    def test_retry_metrics(self, obs_on):
        from repro.utils.retry import RetryExhaustedError, RetryPolicy

        policy = RetryPolicy(max_attempts=3, sleep=lambda s: None, seed=1)
        with pytest.raises(RetryExhaustedError):
            policy.call(self._always_fails)
        assert obs_on.registry.total("retry_retries_total") == 2
        assert obs_on.registry.total("retry_exhausted_total") == 1

    @staticmethod
    def _always_fails():
        raise IOError("flaky")

    def test_cache_miss_counted_after_eviction(self, obs_on):
        from repro.storage import LSMConfig, LSMManager, TieredMergePolicy

        lsm = LSMManager(
            {"emb": (8, "l2")},
            config=LSMConfig(
                memtable_flush_bytes=1 << 30,
                index_build_min_rows=1 << 30,
                auto_merge=False,
                bufferpool_bytes=1,  # every segment overflows: instant evict
            ),
        )
        rng = np.random.default_rng(56)
        for start in (0, 40):
            lsm.insert(
                np.arange(start, start + 40),
                {"emb": rng.normal(size=(40, 8)).astype(np.float32)},
            )
            lsm.flush()
        lsm.search("emb", rng.normal(size=(1, 8)).astype(np.float32), 3)
        assert obs_on.registry.total("bufferpool_misses_total") >= 1
        assert obs_on.registry.total("bufferpool_evictions_total") >= 1


# -- chaos + observability -------------------------------------------------


class TestChaosObservability:
    def test_degraded_search_and_respawn_counters(self, obs_on):
        data = sift_like(100, dim=8, seed=57)
        queries = random_queries(data, 3, seed=58)
        cluster = MilvusCluster(
            3, dim=8, index_type="FLAT",
            respawn_policy=RespawnPolicy(auto=True, max_respawns_per_node=1),
        )
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()
        cluster.crash_reader("reader-1")
        cluster.search(queries, 5)  # respawned under the cap
        assert obs_on.registry.total("cluster_respawns_total") == 1
        cluster.crash_reader("reader-1")
        res = cluster.search(queries, 5)  # over the cap: degrades
        assert res.degraded
        assert obs_on.registry.total("cluster_degraded_searches_total") == 1
        assert obs_on.registry.total("cluster_missing_shards_total") == 1

    def test_slow_query_log_captures_injected_latency(self, obs_on):
        """FaultPlan latency is accounted, not slept — the slow log
        folds the injected delta into the reported latency, so chaos
        tests assert slow-path capture without slow tests."""
        obs.enable(slow_query_log=SlowQueryLog(threshold_seconds=0.5))
        handle = obs.get_obs()
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=59)
        shared = FaultyFileSystem(inner, plan)
        cluster = MilvusCluster(2, dim=8, index_type="FLAT", shared=shared)
        data = sift_like(80, dim=8, seed=60)
        queries = random_queries(data, 2, seed=61)
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()
        # Delay the *next* shard-log read: a late insert leaves pending
        # logs, and auto_refresh consumes them inside this one query's
        # timed window.
        plan.latency("shardlog/*", op="read", seconds=2.0, times=1)
        extra = sift_like(20, dim=8, seed=64)
        cluster.insert(np.arange(len(data), len(data) + 20), extra)
        cluster.search(queries, 5, auto_refresh=True)
        slow = handle.slow_query_log.entries()
        assert len(slow) == 1
        assert slow[0].name == "cluster.search"
        assert slow[0].seconds >= 2.0
        assert slow[0].trace_id is not None


# -- hygiene ---------------------------------------------------------------


class TestTimeHygiene:
    def test_no_wall_clock_durations_in_src(self):
        """Durations must use time.perf_counter(); time.time() steps
        with wall-clock adjustments and is banned from src/repro."""
        root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if "time.time()" in line and not line.lstrip().startswith("#"):
                    # Allow mentions inside docstrings that ban it.
                    if "never" in line or "banned" in line:
                        continue
                    offenders.append(f"{path.name}:{lineno}")
        assert offenders == []

    def test_threaded_search_with_obs_enabled_is_clean(self, obs_on):
        """Instruments under engine locks: no sanitizer violations."""
        from repro.utils import sanitizer as san

        tsan = san.enable()
        tsan.reset()
        try:
            data = sift_like(100, dim=8, seed=62)
            queries = random_queries(data, 3, seed=63)
            cluster = MilvusCluster(2, dim=8, index_type="FLAT")
            cluster.insert(np.arange(len(data)), data)
            cluster.sync()

            errors = []

            def worker():
                try:
                    for __ in range(5):
                        cluster.search(queries, 5)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for __ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            report = tsan.report()
            assert report["lock_order_violations"] == []
            assert report["unguarded_mutations"] == []
        finally:
            san.disable()
