"""Query EXPLAIN/ANALYZE: profile trees, exact work counters, REST.

Covers the :mod:`repro.obs.profile` primitives, the planner dump from
:mod:`repro.obs.explain`, and the PR's determinism contract: work
counters are exact integers, identical across two seeded builds and
across repeats of one query (every index type, and a filtered
cluster fan-out).  Comparisons always *warm up first* — the very first
query on a fresh engine populates the norm caches, so its
``normcache_misses`` differ from every later run by design.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.client import RestRouter
from repro.core import (
    AttributeField,
    Collection,
    CollectionSchema,
    VectorField,
)
from repro.datasets import random_queries, sift_like
from repro.distributed import MilvusCluster
from repro.index import (
    AnnoyIndex,
    FlatIndex,
    HNSWIndex,
    IVFFlatIndex,
    IVFPQIndex,
    IVFSQ8Index,
    NSGIndex,
)
from repro.obs import SlowQueryLog
from repro.obs.explain import ExplainedResult
from repro.obs.profile import (
    NULL_STAGE,
    Profiler,
    QueryProfile,
    current_node,
    profile_count,
    profile_stage,
)
from repro.storage import LSMConfig, TieredMergePolicy


@pytest.fixture()
def obs_on():
    handle = obs.enable()
    yield handle
    obs.disable()


def build_collection(data, prices, index_type="IVF_FLAT", n_segments=2,
                     name="prof", **index_params):
    """Collection with ``n_segments`` sealed segments and built indexes."""
    schema = CollectionSchema(
        name,
        vector_fields=[VectorField("emb", data.shape[1])],
        attribute_fields=[AttributeField("price")],
    )
    cfg = LSMConfig(
        memtable_flush_bytes=1 << 30,
        index_build_min_rows=1 << 30,
        merge_policy=TieredMergePolicy(merge_factor=64, min_segment_bytes=1),
        # keep fully-tombstoned segments around: the explain tests below
        # assert the planner *skips* them rather than compaction purging them
        tombstone_purge_ratio=0.0,
    )
    coll = Collection(schema, lsm_config=cfg)
    for chunk, price_chunk in zip(
        np.array_split(data, n_segments), np.array_split(prices, n_segments)
    ):
        coll.insert({"emb": chunk, "price": price_chunk})
        coll.flush()
    coll.create_index("emb", index_type, **index_params)
    return coll


@pytest.fixture(scope="module")
def prof_data():
    data = sift_like(400, dim=16, n_clusters=8, seed=21)
    prices = np.linspace(0.0, 100.0, len(data))
    queries = random_queries(data, 4, seed=22)
    return data, prices, queries


# -- profile primitives ----------------------------------------------------


class TestProfilePrimitives:
    def test_stage_tree_counters_and_to_dict(self):
        with QueryProfile("q", nq=2) as prof:
            with profile_stage("outer", seg=1) as outer:
                profile_count("rows_scanned", 10)
                with outer.stage("inner"):
                    profile_count("rows_scanned", 5)
                    profile_count("heap_pushes")
        assert prof.root.attrs["nq"] == 2
        assert prof.total_counters() == {"rows_scanned": 15, "heap_pushes": 1}
        tree = prof.to_dict()
        assert set(tree) == {"trace_id", "root", "total_counters"}
        (outer_d,) = tree["root"]["children"]
        assert outer_d["name"] == "outer"
        assert outer_d["counters"] == {"rows_scanned": 10}
        assert outer_d["children"][0]["counters"] == {
            "rows_scanned": 5, "heap_pushes": 1,
        }
        assert prof.seconds >= 0.0

    def test_helpers_are_noops_without_active_profile(self):
        assert current_node() is None
        profile_count("rows_scanned", 3)          # must not raise
        assert profile_stage("orphan") is NULL_STAGE  # reprolint: disable=span-context
        assert NULL_STAGE.stage("child") is NULL_STAGE
        with NULL_STAGE as s:
            s.count("x", 1)
            s.set_attr("k", "v")

    def test_exception_marks_stage(self):
        prof = QueryProfile("q")
        with pytest.raises(RuntimeError):
            with prof:
                with profile_stage("boom"):
                    raise RuntimeError("nope")
        assert prof.root.children[0].attrs["error"] == "RuntimeError"

    def test_profiler_store_is_lru(self):
        store = Profiler(max_profiles=2)
        for i in range(3):
            store.record(f"t{i}", QueryProfile("q"))
        assert store.profile_ids() == ["t1", "t2"]
        assert store.get("t0") is None
        assert store.get("t2") is not None
        auto = store.record(None, QueryProfile("q"))
        assert auto.startswith("p") and store.get(auto) is not None
        store.clear()
        assert store.profile_ids() == []


# -- EXPLAIN plan content --------------------------------------------------


class TestExplain:
    def test_plan_and_counters(self, prof_data):
        data, prices, queries = prof_data
        coll = build_collection(data, prices, nlist=8, seed=0)
        res = coll.search("emb", queries, 5, explain=True)
        assert isinstance(res, ExplainedResult)
        plan = res.plan
        assert plan["collection"] == "prof"
        assert plan["field"] == "emb"
        assert plan["k"] == 5 and plan["nq"] == len(queries)
        assert len(plan["segments"]) == 2
        for entry in plan["segments"]:
            assert entry["plan"] == "index:IVF_FLAT"
            assert entry["selected"] is True
            assert entry["index"]["nlist"] == 8
        counters = res.profile.total_counters()
        assert counters["distance_evals"] > 0
        assert counters["rows_scanned"] > 0
        assert counters["buckets_probed"] > 0
        # plain dict round-trips to JSON (REST serves it verbatim)
        json.dumps(res.to_dict())

    def test_filter_section_reports_cost_model(self, prof_data):
        data, prices, queries = prof_data
        coll = build_collection(data, prices, nlist=8, seed=0)
        res = coll.search(
            "emb", queries[:1], 5, filter=("price", 10.0, 50.0), explain=True
        )
        section = res.plan["filter"]
        assert 0.0 < section["selectivity"] < 1.0
        assert section["recommended"] in ("A", "B", "C")
        assert set(section["cost_model"]) == {"A", "B", "C"}
        assert section["executed"] in ("A", "B", "C")
        assert "knobs" in section

    def test_empty_segments_are_skipped_with_reason(self, prof_data):
        data, prices, queries = prof_data
        coll = build_collection(data, prices, nlist=8, seed=0)
        ids = coll.insert({"emb": data[:10], "price": prices[:10]})
        coll.flush()
        coll.delete(ids)
        coll.flush()                     # deletes are visible after flush
        res = coll.search("emb", queries[:1], 3, explain=True)
        skipped = [e for e in res.plan["segments"] if not e["selected"]]
        assert skipped and skipped[0]["reason"] == "all rows tombstoned"


# -- determinism contract --------------------------------------------------


def _explain_counters(coll, queries, k=5, **kw):
    return coll.search("emb", queries, k, explain=True, **kw).profile.total_counters()


class TestDeterminism:
    def test_identical_across_two_seeded_builds(self, prof_data):
        data, prices, queries = prof_data
        runs = []
        for __ in range(2):
            coll = build_collection(data, prices, nlist=8, seed=0)
            _explain_counters(coll, queries)        # warm the norm caches
            runs.append(_explain_counters(coll, queries))
        assert runs[0] == runs[1]
        assert all(isinstance(v, int) for v in runs[0].values())

    def test_filtered_cluster_counters_repeat_exactly(self):
        data = sift_like(300, dim=16, n_clusters=8, seed=23)
        queries = random_queries(data, 3, seed=24)
        cluster = MilvusCluster(
            3, dim=16, index_type="IVF_FLAT",
            index_params={"nlist": 8, "seed": 0},
        )
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()
        row_filter = np.arange(0, len(data), 2, dtype=np.int64)

        def run():
            res = cluster.search(
                queries, 5, explain=True, row_filter=row_filter
            )
            return res.result.ids, res.profile.total_counters()

        run()                                      # warm the norm caches
        ids_a, first = run()
        ids_b, second = run()
        assert first == second
        assert first["candidates_pruned"] > 0      # the filter did prune
        np.testing.assert_array_equal(ids_a, ids_b)
        assert np.isin(ids_a[ids_a >= 0], row_filter).all()

    def test_cluster_profile_has_one_stage_per_shard(self):
        data = sift_like(120, dim=8, seed=25)
        cluster = MilvusCluster(2, dim=8, index_type="FLAT")
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()
        res = cluster.search(random_queries(data, 2, seed=26), 3, explain=True)
        names = [c.name for c in res.profile.root.children]
        assert names == ["shard.search", "shard.search"]
        nodes = sorted(c.attrs["node"] for c in res.profile.root.children)
        assert nodes == ["reader-0", "reader-1"]


# -- disabled-path contract ------------------------------------------------


@pytest.fixture()
def obs_off(monkeypatch):
    """Force observability off even when the suite runs REPRO_OBS=1."""
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.disable()
    yield


class TestDisabledPath:
    def test_search_returns_plain_result_and_records_nothing(
        self, obs_off, prof_data
    ):
        data, prices, queries = prof_data
        coll = build_collection(data, prices, nlist=8, seed=0)
        result = coll.search("emb", queries, 5)
        assert not isinstance(result, ExplainedResult)
        assert obs.get_obs().profiler.profile_ids() == []
        assert current_node() is None

    def test_explain_works_with_obs_off(self, obs_off, prof_data):
        """EXPLAIN ANALYZE is not gated on REPRO_OBS — only the
        profiler *store* is."""
        data, prices, queries = prof_data
        coll = build_collection(data, prices, nlist=8, seed=0)
        res = coll.search("emb", queries[:1], 3, explain=True)
        assert res.profile.total_counters()["distance_evals"] > 0
        assert obs.get_obs().profiler.profile_ids() == []


# -- profiler store, REST, slowlog -----------------------------------------


def _rest_collection(router, name="t", dim=8, n=60, seed=30):
    data = sift_like(n, dim=dim, seed=seed)
    router.handle("POST", "/collections", {
        "name": name, "vector_fields": [{"name": "emb", "dim": dim}],
    })
    router.handle("POST", f"/collections/{name}/entities", {
        "data": {"emb": data.tolist()},
    })
    router.handle("POST", "/flush", {})
    return data


class TestStoreAndRest:
    def test_every_search_is_profiled_when_enabled(self, obs_on, prof_data):
        data, prices, queries = prof_data
        coll = build_collection(data, prices, nlist=8, seed=0)
        coll.search("emb", queries, 5)
        ids = obs_on.profiler.profile_ids()
        assert len(ids) == 1
        profile = obs_on.profiler.get(ids[-1])
        assert profile.root.name == "collection.search"
        assert profile.total_counters()["distance_evals"] > 0

    def test_nested_search_joins_ambient_profile(self, obs_on, prof_data):
        """A search issued while a profile is active becomes a stage of
        it instead of spawning (and recording) its own profile."""
        data, prices, queries = prof_data
        coll = build_collection(data, prices, nlist=8, seed=0)
        with QueryProfile("outer") as prof:
            coll.search("emb", queries[:1], 3)
        assert obs_on.profiler.profile_ids() == []
        assert prof.root.children[0].name == "collection.search"

    def test_rest_profile_endpoints(self, obs_on):
        router = RestRouter()
        data = _rest_collection(router)
        router.handle("POST", "/collections/t/search", {
            "field": "emb", "queries": data[:2].tolist(), "k": 3,
        })
        listing = router.handle("GET", "/profiles")
        assert listing.ok and len(listing.body["profile_ids"]) == 1
        trace_id = listing.body["profile_ids"][-1]
        tree = router.handle("GET", f"/profiles/{trace_id}")
        assert tree.ok
        assert tree.body["total_counters"]["distance_evals"] > 0
        assert router.handle("GET", "/profiles/t999999").status == 404

    def test_rest_explain_endpoint(self):
        router = RestRouter()
        data = _rest_collection(router)
        resp = router.handle("POST", "/explain", {
            "collection": "t", "field": "emb",
            "queries": data[:2].tolist(), "k": 3,
        })
        assert resp.ok
        assert resp.body["plan"]["field"] == "emb"
        assert resp.body["profile"]["total_counters"]["distance_evals"] > 0
        assert len(resp.body["hits"]) == 2
        assert router.handle("POST", "/explain", {
            "collection": "missing", "field": "emb", "queries": [[0.0] * 8],
        }).status == 404

    def test_slowlog_embeds_profile(self, prof_data):
        data, prices, queries = prof_data
        handle = obs.enable(
            slow_query_log=SlowQueryLog(threshold_seconds=0.0)
        )
        try:
            coll = build_collection(data, prices, nlist=8, seed=0)
            coll.search("emb", queries, 5)
            entries = [
                e for e in handle.slow_query_log.entries()
                if e.name == "collection.search"
            ]
            assert entries and entries[-1].profile is not None
            assert entries[-1].profile["total_counters"]["distance_evals"] > 0
        finally:
            obs.disable()


# -- per-index counter smoke -----------------------------------------------


INDEXES = [
    ("FLAT", lambda dim: FlatIndex(dim)),
    ("IVF_FLAT", lambda dim: IVFFlatIndex(dim, nlist=8, seed=0)),
    ("IVF_SQ8", lambda dim: IVFSQ8Index(dim, nlist=8, seed=0)),
    ("IVF_PQ", lambda dim: IVFPQIndex(dim, nlist=8, m=4, seed=0)),
    ("HNSW", lambda dim: HNSWIndex(dim, M=8, ef_construction=32, seed=0)),
    ("NSG", lambda dim: NSGIndex(dim, knn=8, out_degree=8, search_l=16, seed=0)),
    ("ANNOY", lambda dim: AnnoyIndex(dim, n_trees=4, leaf_size=16, seed=0)),
]


class TestPerIndexCounters:
    @pytest.mark.parametrize("name,factory", INDEXES, ids=[n for n, __ in INDEXES])
    def test_counters_flow_and_repeat_exactly(self, name, factory,
                                              small_data, small_queries):
        index = factory(small_data.shape[1])
        if not index._trained:
            index.train(small_data)
        index.add(small_data)
        index.search(small_queries, 5)             # warm: lazy builds, caches
        runs = []
        for __ in range(2):
            with QueryProfile("q") as prof:
                index.search(small_queries, 5)
            runs.append(prof.total_counters())
        assert runs[0] == runs[1], name
        assert runs[0]["distance_evals"] > 0
        if name.startswith(("HNSW", "NSG", "ANNOY")):
            assert runs[0]["heap_pushes"] > 0
        if name.startswith("IVF"):
            assert runs[0]["buckets_probed"] > 0
