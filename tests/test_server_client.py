"""Server facade, SDK client, and REST router."""

import threading

import numpy as np
import pytest

from repro.core import (
    CollectionExistsError,
    CollectionNotFoundError,
    CollectionSchema,
    InvalidQueryError,
    MilvusLite,
    ServerConfig,
    VectorField,
)
from repro.client import MilvusClient, RestRouter, connect
from repro.datasets import sift_like
from repro.storage import LSMConfig


@pytest.fixture(scope="module")
def data():
    return sift_like(100, dim=8, seed=0)


class TestMilvusLite:
    def test_collection_lifecycle(self):
        server = MilvusLite()
        schema = CollectionSchema("c1", vector_fields=[VectorField("v", 8)])
        server.create_collection(schema)
        assert server.has_collection("c1")
        assert server.list_collections() == ["c1"]
        with pytest.raises(CollectionExistsError):
            server.create_collection(schema)
        server.drop_collection("c1")
        with pytest.raises(CollectionNotFoundError):
            server.get_collection("c1")
        with pytest.raises(CollectionNotFoundError):
            server.drop_collection("c1")

    def test_flush_all(self, data):
        server = MilvusLite()
        for name in ("a", "b"):
            schema = CollectionSchema(name, vector_fields=[VectorField("v", 8)])
            coll = server.create_collection(schema)
            coll.insert({"v": data})
        server.flush_all()
        assert all(
            server.get_collection(n).num_entities == 100 for n in ("a", "b")
        )

    def test_local_storage_backend(self, tmp_path, data):
        from repro.core import ServerConfig

        server = MilvusLite(ServerConfig(storage=str(tmp_path)))
        schema = CollectionSchema("disk", vector_fields=[VectorField("v", 8)])
        coll = server.create_collection(schema)
        coll.insert({"v": data})
        coll.flush()
        files = list((tmp_path / "disk").rglob("*.seg"))
        assert files, "segments should be persisted on local disk"


class TestSDK:
    def test_end_to_end(self, data):
        client = connect()
        client.create_collection("things", {"v": (8, "l2")}, ["price"])
        ids = client.insert(
            "things", {"v": data, "price": np.linspace(0, 10, 100)}
        )
        client.flush("things")
        assert client.count("things") == 100
        hits = client.search("things", "v", data[3], 5)
        assert hits[0][0][0] == 3
        filtered = client.search(
            "things", "v", data[3], 5, filter=("price", 0.0, 5.0)
        )
        assert all(i < 50 or True for i, __ in filtered[0])
        client.delete("things", [int(ids[0])])
        client.flush("things")
        assert client.count("things") == 99

    def test_describe_and_list(self, data):
        client = connect()
        client.create_collection("c", {"v": (8, "l2")})
        assert client.list_collections() == ["c"]
        assert client.describe_collection("c")["name"] == "c"
        client.drop_collection("c")
        assert not client.has_collection("c")


class TestRest:
    @pytest.fixture()
    def router(self):
        return RestRouter()

    def test_create_and_describe(self, router):
        resp = router.handle("POST", "/collections", {
            "name": "web",
            "vector_fields": [{"name": "v", "dim": 8}],
            "attribute_fields": ["price"],
        })
        assert resp.status == 201
        resp = router.handle("GET", "/collections/web")
        assert resp.ok and resp.body["name"] == "web"
        resp = router.handle("GET", "/collections")
        assert resp.body["collections"] == ["web"]

    def test_insert_flush_search(self, router, data):
        router.handle("POST", "/collections", {
            "name": "web",
            "vector_fields": [{"name": "v", "dim": 8}],
            "attribute_fields": ["price"],
        })
        resp = router.handle("POST", "/collections/web/entities", {
            "data": {"v": data.tolist(), "price": list(range(100))},
        })
        assert resp.status == 201 and len(resp.body["ids"]) == 100
        router.handle("POST", "/flush", {"collection": "web"})
        resp = router.handle("POST", "/collections/web/search", {
            "field": "v", "queries": [data[5].tolist()], "k": 3,
        })
        assert resp.ok
        assert resp.body["hits"][0][0]["id"] == 5

    def test_filtered_search(self, router, data):
        self.test_insert_flush_search(router, data)
        resp = router.handle("POST", "/collections/web/search", {
            "field": "v", "queries": [data[5].tolist()], "k": 3,
            "filter": {"attribute": "price", "low": 0, "high": 10},
        })
        assert resp.ok
        assert all(hit["id"] <= 10 for hit in resp.body["hits"][0])

    def test_delete_route(self, router, data):
        self.test_insert_flush_search(router, data)
        resp = router.handle("DELETE", "/collections/web/entities", {"ids": [5]})
        assert resp.ok
        router.handle("POST", "/flush", {})
        resp = router.handle("POST", "/collections/web/search", {
            "field": "v", "queries": [data[5].tolist()], "k": 1,
        })
        assert resp.body["hits"][0][0]["id"] != 5

    @pytest.mark.parametrize("ids", [[1.7], ["a"], [1, "a"], [[1]]])
    def test_delete_ids_must_be_integers(self, router, data, ids):
        self.test_insert_flush_search(router, data)
        resp = router.handle("DELETE", "/collections/web/entities", {"ids": ids})
        assert resp.status == 400 and "ids" in resp.body["error"]
        router.handle("POST", "/flush", {})
        resp = router.handle("POST", "/collections/web/search", {
            "field": "v", "queries": [data[1].tolist()], "k": 1,
        })
        assert resp.body["hits"][0][0]["id"] == 1  # row 1 was not deleted

    @pytest.mark.parametrize("field,bad", [
        ("v", float("nan")), ("v", float("inf")),
        ("v", 1e39),  # finite in JSON, inf as float32
        ("price", float("nan")), ("price", -float("inf")),
    ])
    def test_non_finite_insert_refused(self, router, data, field, bad):
        self.test_insert_flush_search(router, data)
        payload = {"v": data[:2].tolist(), "price": [1.0, 2.0]}
        if field == "v":
            payload["v"][1][3] = bad
        else:
            payload["price"][1] = bad
        with np.errstate(over="ignore"):
            resp = router.handle("POST", "/collections/web/entities", {"data": payload})
        assert resp.status == 400 and repr(field) in resp.body["error"]
        col = router.client.server.get_collection("web")
        assert col.lsm.wal.next_lsn == 1  # nothing reached the log

    def test_unknown_route_404(self, router):
        assert router.handle("GET", "/nope").status == 404

    def test_bad_request_400(self, router):
        resp = router.handle("POST", "/collections", {"name": "x"})  # missing fields
        assert resp.status == 400

    def test_describe_missing_404(self, router):
        assert router.handle("GET", "/collections/ghost").status == 404

    def test_index_route(self, router, data):
        self.test_insert_flush_search(router, data)
        resp = router.handle("POST", "/collections/web/index", {
            "field": "v", "index_type": "IVF_FLAT", "params": {"nlist": 4},
        })
        assert resp.ok and resp.body["segments_indexed"] == 1


class TestSearchRequestValidation:
    """A search that cannot be served is a 400 naming the argument —
    decided in ``Collection.search``, so REST and SDK agree."""

    @pytest.fixture()
    def router(self):
        router = RestRouter()
        router.handle("POST", "/collections", {
            "name": "tiny", "vector_fields": [{"name": "v", "dim": 4}],
        })
        rows = np.arange(40, dtype=np.float32).reshape(10, 4)
        router.handle("POST", "/collections/tiny/entities", {"data": {"v": rows.tolist()}})
        router.handle("POST", "/flush", {"collection": "tiny"})
        return router

    def search(self, router, **body):
        request = {"field": "v", "queries": [[0.0, 1.0, 2.0, 3.0]], "k": 3}
        request.update(body)
        return router.handle("POST", "/collections/tiny/search", request)

    @pytest.mark.parametrize("body,named", [
        ({"k": 10 ** 9}, "k"),          # was an uncaught MemoryError (7.45 GiB)
        ({"k": -1}, "k"),               # was "negative dimensions are not allowed"
        ({"k": 0}, "k"),
        ({"k": 16385}, "k"),
        ({"k": 2.5}, "k"),
        ({"k": "many"}, "k"),
        ({"k": None}, "k"),
        ({"k": 1e999}, "k"),            # json.loads gives float('inf')
        ({"queries": [[0.0, float("nan"), 2.0, 3.0]]}, "queries"),  # was 200, no hits
        ({"queries": [[0.0, float("inf"), 2.0, 3.0]]}, "queries"),
        ({"queries": [[0.0, 1.0, 2.0]]}, "queries"),                # 3-d against 4-d: ditto
        ({"queries": [[[0.0, 1.0, 2.0, 3.0]]]}, "queries"),
        ({"queries": []}, "queries"),
        ({"queries": [[]]}, "queries"),
        ({"params": {"snapshot": 5}}, "snapshot"),
    ])
    def test_refused_with_the_argument_named(self, router, body, named):
        resp = self.search(router, **body)
        assert resp.status == 400
        assert named in resp.body["error"]

    @pytest.mark.parametrize("body", [
        {"queries": [[10 ** 400, 0, 0, 0]]},   # no float32 holds it
        {"queries": "abcd"},
        {"queries": {"0": [0, 1, 2, 3]}},
        {"queries": [[0, 1, 2, 3], [0, 1]]},
        {"field": "nope"},
        {"field": ["v"]},
        {"params": [1, 2]},
        {"filter": {"attribute": "ghost", "low": 0, "high": 1}},
        {"filter": 7},
    ])
    def test_other_bad_bodies_are_4xx_not_exceptions(self, router, body):
        assert self.search(router, **body).status == 400

    @pytest.mark.parametrize("params", [
        {"nprobe": "x"}, {"nprobe": 1e999}, {"nprobe": 0}, {"nprobe": None},
        {"bogus": 1},
    ])
    def test_bad_index_params_are_4xx_once_an_index_reads_them(self, router, params):
        assert router.handle("POST", "/collections/tiny/index", {
            "field": "v", "index_type": "IVF_FLAT", "params": {"nlist": 2}}).ok
        assert self.search(router, params=params).status == 400
        assert self.search(router, params={"nprobe": 2}).ok

    def test_largest_k_still_answers(self, router):
        resp = self.search(router, k=16384)
        assert resp.ok and len(resp.body["hits"][0]) == 10
        assert resp.body["hits"][0][0] == {"id": 0, "score": 0.0}

    def test_sdk_raises_the_same_refusals(self):
        from repro.core import MilvusError

        client = connect()
        client.create_collection("c", {"v": (4, "l2")})
        client.insert("c", {"v": np.eye(4, dtype=np.float32)})
        client.flush("c")
        for queries, k in [(np.zeros(4), 10 ** 9), (np.zeros(4), -1),
                           (np.full(4, np.nan), 1), (np.zeros(3), 1)]:
            with pytest.raises(MilvusError):
                client.search("c", "v", queries, k)
        assert client.search("c", "v", np.zeros(4), np.int64(2))[0][0][0] in range(4)


class TestFilterAndBodyValidation:
    """A filter or body of the wrong shape is a 400 naming the caller's
    mistake, not an empty 200 or a Python internal; SDK callers get
    the same refusal from ``Collection``."""

    @pytest.fixture()
    def router(self, data):
        router = RestRouter()
        router.handle("POST", "/collections", {
            "name": "d", "vector_fields": [{"name": "v", "dim": 8}],
            "attribute_fields": ["price"],
        })
        router.handle("POST", "/collections/d/entities", {
            "data": {"v": data[:50].tolist(), "price": np.linspace(0, 1, 50).tolist()},
        })
        router.handle("POST", "/flush", {"collection": "d"})
        return router

    def search(self, router, filter):
        return router.handle("POST", "/collections/d/search", {
            "field": "v", "queries": [[0.0] * 8], "k": 3, "filter": filter,
        })

    @pytest.mark.parametrize("filter,named", [
        ({"attribute": "price", "low": 0.9, "high": 0.1}, "inverted"),  # was 200, no hits
        ({"attribute": "price", "low": float("nan"), "high": 1}, "finite"),  # ditto
        ({"attribute": "price", "low": 0, "high": float("inf")}, "finite"),
        ({"attribute": "price", "low": "cheap", "high": 1}, "numbers"),
        ("price > 3", "filter"),  # was "string indices must be integers"
        (["price", 0.1], "filter"),
        ({"attribute": 7, "low": 0, "high": 1}, "filter"),
    ])
    def test_bad_filter_refused_naming_filter(self, router, filter, named):
        resp = self.search(router, filter)
        assert resp.status == 400
        assert "filter" in resp.body["error"] and named in resp.body["error"]

    def test_good_filters_still_answer(self, router):
        resp = self.search(router, {"attribute": "price", "low": 0.5, "high": 0.5})
        assert resp.ok
        resp = self.search(router, ["price", 0.0, 0.2])
        assert resp.ok and len(resp.body["hits"][0]) == 3

    @pytest.mark.parametrize("body,kind", [([1, 2], "list"), (5, "int"), ("x", "str")])
    def test_non_object_body_names_the_body(self, router, body, kind):
        resp = router.handle("POST", "/collections/d/search", body)
        assert resp.status == 400
        assert resp.body["error"] == f"request body must be a JSON object, got {kind}"

    def test_sdk_gets_the_same_refusal(self, router):
        client = router.client
        for bad in [("price", 0.9, 0.1), ("price", float("nan"), 1.0), "abc",
                    {"attribute": "price"}]:
            with pytest.raises(InvalidQueryError, match="filter"):
                client.search("d", "v", np.zeros(8), 3, filter=bad)
        with pytest.raises(InvalidQueryError, match="inverted"):
            router.client.server.get_collection("d").query(("price", 1.0, 0.0))


class TestDropStopsBackgroundThreads:
    """Dropping a collection stops the threads it started."""

    @pytest.mark.parametrize("lsm", [
        LSMConfig(background=True),
        LSMConfig(async_index_build=True, index_build_min_rows=10,
                  index_params={"nlist": 4}),
    ])
    def test_threads_return_to_before_create(self, data, lsm):
        # threads, not names: other tests' collections may run
        # same-named threads for as long as they live
        before = set(threading.enumerate())
        router = RestRouter(MilvusLite(ServerConfig(lsm=lsm)))
        router.handle("POST", "/collections", {
            "name": "d", "vector_fields": [{"name": "v", "dim": 8}],
        })
        router.handle("POST", "/collections/d/entities", {"data": {"v": data.tolist()}})
        router.handle("POST", "/flush", {"collection": "d"})
        started = {t.name for t in set(threading.enumerate()) - before}
        assert started & {"lsm-flusher", "index-builder"}
        assert router.handle("DELETE", "/collections/d").ok
        assert not set(threading.enumerate()) - before


class TestSearchParamsAreKnobsOnly:
    """``params`` carries index knobs; an argument of the SDK or of the
    engine below it is refused by name, and nothing in it starts a
    thread."""

    @pytest.fixture()
    def router(self):
        router = RestRouter()
        router.handle("POST", "/collections", {
            "name": "two", "vector_fields": [{"name": "v", "dim": 8}],
            "attribute_fields": ["price"],
        })
        rng = np.random.default_rng(3)
        for lo in (0, 200):  # two flushed segments
            router.handle("POST", "/collections/two/entities", {"data": {
                "v": rng.random((200, 8)).tolist(),
                "price": list(range(lo, lo + 200)),
            }})
            router.handle("POST", "/flush", {"collection": "two"})
        assert router.client.describe_collection("two")["num_segments"] == 2
        return router

    @staticmethod
    def search(router, params, nq=2, route="/collections/two/search"):
        body = {"field": "v", "queries": np.eye(8)[np.arange(nq) % 8].tolist(),
                "k": 3, "params": params}
        if route == "/explain":
            body["collection"] = "two"
        return router.handle("POST", route, body)

    def test_pool_params_start_no_threads(self, router):
        """64 queries x 32 probes over two segments is the bucket-major
        fan-out; whatever its params say, it runs on the request's own
        thread and leaves no thread behind."""
        before = threading.active_count()
        resp = self.search(
            router, {"parallel": True, "pool_size": 300, "nprobe": 32}, nq=64)
        assert threading.active_count() <= before
        assert resp.ok or "parallel" in resp.body["error"]

    #: SDK and engine arguments, each with a value of the type the
    #: layer that owns it takes.
    ARGUMENTS = {
        "brute_force": True,
        "row_filter": [1, 2],
        "hidden": [1, 2],
        "explain": True,
        "filter": {"attribute": "price", "low": 0, "high": 1},
    }

    @pytest.mark.parametrize("indexed", [False, True], ids=["flat", "indexed"])
    @pytest.mark.parametrize("named", sorted(ARGUMENTS))
    def test_arguments_are_not_knobs(self, router, indexed, named):
        if indexed:
            assert router.handle("POST", "/collections/two/index", {
                "field": "v", "index_type": "IVF_FLAT", "params": {"nlist": 4}}).ok
        for route in ("/collections/two/search", "/explain"):
            resp = self.search(router, {named: self.ARGUMENTS[named]}, route=route)
            assert resp.status == 400, (route, resp.body)
            assert repr(named) in resp.body["error"], (route, resp.body)
        assert self.search(router, {"nprobe": 2}).ok

    def test_refused_before_a_snapshot_is_taken(self, monkeypatch):
        client = connect()
        client.create_collection("c", {"v": (4, "l2")})
        client.insert("c", {"v": np.eye(4, dtype=np.float32)})
        client.flush("c")
        lsm = client.server.get_collection("c").lsm
        monkeypatch.setattr(lsm, "snapshot", lambda: pytest.fail("snapshot taken"))
        for name in ("brute_force", "row_filter"):
            with pytest.raises(InvalidQueryError, match=name):
                client.search("c", "v", np.zeros(4), 1, **{name: True})


class TestStatsFlags:
    """``GET /stats`` reports the switches in effect, however they
    were turned on."""

    def test_sanitize_enabled_in_process(self, monkeypatch):
        from repro.utils import sanitizer

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sanitizer.disable()
        router = RestRouter()
        assert router.handle("GET", "/stats").body["flags"]["sanitize"] is False
        sanitizer.enable()
        try:
            assert router.handle("GET", "/stats").body["flags"]["sanitize"] is True
        finally:
            sanitizer.disable()

    def test_background_flush_from_the_server_config(self, monkeypatch):
        monkeypatch.delenv("REPRO_BG_FLUSH", raising=False)
        assert RestRouter().handle(
            "GET", "/stats").body["flags"]["background_flush"] is False
        server = MilvusLite(ServerConfig(lsm=LSMConfig(background=True)))
        router = RestRouter(server)
        assert router.handle("GET", "/stats").body["flags"]["background_flush"] is True
        router.handle("POST", "/collections", {
            "name": "c", "vector_fields": [{"name": "v", "dim": 4}]})
        try:
            stats = router.handle("GET", "/collections/c/stats").body
            assert stats["background"] is True
        finally:
            server.get_collection("c").lsm.close()
        monkeypatch.setenv("REPRO_BG_FLUSH", "1")
        assert RestRouter().handle(
            "GET", "/stats").body["flags"]["background_flush"] is True


class TestFilteredSearchRecall:
    ROWS, DIM, K = 4000, 32, 10

    def test_replies_are_admissible_full_and_accurate(self):
        """However few rows pass, a filtered reply through the served
        path is full, admissible and — at ~1 %, where pushdown at the
        request's ``nprobe`` finds too few admissible rows in the probed
        buckets — exact, because the planner scans those rows instead."""
        # 256 centres against nlist=64: buckets split clusters, so IVF
        # recall moves with nprobe (on sift_like it is 1.0 at any nprobe)
        rng = np.random.default_rng(7)
        centres = rng.standard_normal((256, self.DIM))

        def draw(n):
            picks = rng.integers(0, len(centres), n)
            return (centres[picks]
                    + rng.standard_normal((n, self.DIM))).astype(np.float32)

        vectors, queries = draw(self.ROWS), draw(16)
        prices = rng.permutation(self.ROWS).astype(np.float64)  # exact fractions
        router = RestRouter()
        router.handle("POST", "/collections", {
            "name": "c", "vector_fields": [{"name": "v", "dim": self.DIM}],
            "attribute_fields": ["price"],
        })
        router.handle("POST", "/collections/c/entities", {
            "data": {"v": vectors.tolist(), "price": prices.tolist()},
        })
        router.handle("POST", "/flush", {"collection": "c"})
        assert router.handle("POST", "/collections/c/index", {
            "field": "v", "index_type": "IVF_FLAT", "params": {"nlist": 64},
        }).ok

        recall = {}
        for fraction in (0.01, 0.10, 0.50):
            low, high = 100.0, 100.0 + fraction * self.ROWS - 1
            admissible = np.flatnonzero((prices >= low) & (prices <= high))
            assert len(admissible) == round(fraction * self.ROWS) >= self.K
            resp = router.handle("POST", "/collections/c/search", {
                "field": "v", "queries": queries.tolist(), "k": self.K,
                "filter": {"attribute": "price", "low": low, "high": high},
                "params": {"nprobe": 16},
            })
            assert resp.ok
            dists = ((queries[:, np.newaxis, :].astype(np.float64)
                      - vectors[admissible].astype(np.float64)) ** 2).sum(axis=2)
            truth = admissible[np.argsort(dists, axis=1)[:, :self.K]]
            hit = 0
            for reply, want in zip(resp.body["hits"], truth):
                ids = [entry["id"] for entry in reply]
                assert len(ids) == self.K, fraction  # never short: >= k rows pass
                assert np.isin(ids, admissible).all(), fraction
                hit += len(set(ids) & set(want.tolist()))
            recall[fraction] = hit / truth.size
        assert recall[0.01] >= 0.95, recall
