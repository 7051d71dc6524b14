"""Figure 9: recall-throughput on the HNSW index.

Paper: Milvus vs System A / Vearch / System C, all running HNSW.
Differences between systems are architectural (batch execution vs
per-query request paths vs relational row access), so one shared HNSW
graph is built and each engine class drives it through its own
execution path — exactly the paper's apples-to-apples setup.  Smaller
n than Fig. 8 because graph construction is the expensive step in
pure Python.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.bench import print_series
from repro.datasets import exact_ground_truth, recall_at_k, sift_like, random_queries
from repro.index import HNSWIndex
from repro.index.base import SearchResult
from repro.metrics import get_metric

from common import best_time, count_calls

N = 6000
DIM = 32
NQ = 100
K = 10
EFS = (10, 20, 40, 80, 160)
#: the checks' graph: (rows, dim, queries) — graph construction is
#: the slow step, so it is small and built once
CHECK_SIZE = (500, 16, 30)


_cache = {}


def setup(n=N, dim=DIM, nq=NQ):
    if (n, dim, nq) not in _cache:
        data = sift_like(n, dim=dim, n_clusters=32, seed=0)
        queries = random_queries(data, nq, seed=1)
        truth = exact_ground_truth(queries, data, K, "l2")
        index = HNSWIndex(dim, M=12, ef_construction=80, seed=0)
        index.add(data)
        _cache[n, dim, nq] = (data, queries, truth, index)
    return _cache[n, dim, nq]


def _milvus_search(index, queries, k, ef):
    """Batch submission straight into the engine."""
    return index.search(queries, k, ef=ef)


def _vearch_search(index, queries, k, ef):
    """Per-query request path with JSON (de)serialization."""
    rows = []
    for qi in range(len(queries)):
        request = json.dumps({"vector": queries[qi].tolist(), "size": k})
        payload = json.loads(request)
        result = index.search(
            np.asarray(payload["vector"], dtype=np.float32), k, ef=ef
        )
        response = json.dumps([
            {"id": int(i), "score": float(s)} for i, s in result.row(0)
        ])
        json.loads(response)
        rows.append(result)
    return SearchResult(
        np.concatenate([r.ids for r in rows]),
        np.concatenate([r.scores for r in rows]),
    )


def _relational_search(index, queries, k, ef, metric=None):
    """System C class (PASE-style): HNSW as an opaque access method
    whose distance function is invoked *per tuple* through the
    extension ABI — no vectorized batch evaluation anywhere.  The
    graph is identical; only the execution model differs, which is
    exactly the paper's argument about relational extensions."""
    metric = metric or get_metric("l2")

    def tuple_at_a_time_dist(query, nodes, _index=index, _metric=metric):
        nodes = np.asarray(nodes, dtype=np.int64)
        return np.array([
            _metric.single(query, _index._data[n]) for n in nodes
        ])

    original = index._dist
    index._dist = tuple_at_a_time_dist
    try:
        rows = []
        for qi in range(len(queries)):
            plan = json.dumps({
                "select": ["id", "distance"], "order_by": "distance",
                "limit": k, "probe": queries[qi].tolist(),
            })
            json.loads(plan)
            rows.append(index.search(queries[qi], k, ef=ef))
    finally:
        index._dist = original
    return SearchResult(
        np.concatenate([r.ids for r in rows]),
        np.concatenate([r.scores for r in rows]),
    )


SYSTEMS = {
    "Milvus_HNSW": _milvus_search,
    "SystemA (HNSW service)": _vearch_search,
    "Vearch": _vearch_search,
    "SystemC (relational)": _relational_search,
}


def run_figure(bundle=None, timed=True, systems=tuple(SYSTEMS)):
    """{system: [(recall, qps, ids)]} over ``EFS``; qps ``None`` unless
    ``timed``."""
    data, queries, truth, index = bundle or setup()
    curves = {}
    for name in systems:
        search = SYSTEMS[name]
        search(index, queries[:10], K, EFS[0])  # warm-up
        points = []
        for ef in EFS:
            result = search(index, queries, K, ef)
            qps = None
            if timed:
                qps = len(queries) / best_time(
                    lambda: search(index, queries, K, ef), repeats=2)
            points.append((recall_at_k(result.ids, truth), qps, result.ids))
        curves[name] = points
    return curves


# -- assertions on the figure's shape --------------------------------------

@pytest.fixture(scope="module")
def bundle():
    return setup(*CHECK_SIZE)


@pytest.fixture(scope="module")
def curves(bundle):
    # System C is checked on its own, below: per-tuple calls are slow
    return run_figure(bundle, timed=False, systems=(
        "Milvus_HNSW", "SystemA (HNSW service)", "Vearch"))


def test_hnsw_reaches_high_recall(curves):
    assert max(p[0] for p in curves["Milvus_HNSW"]) >= 0.95


def test_recall_monotone_in_ef(curves):
    recalls = [p[0] for p in curves["Milvus_HNSW"]]
    assert all(b >= a - 0.02 for a, b in zip(recalls, recalls[1:]))


def test_service_engines_walk_milvus_graph(curves):
    """Paper: 8.0x-17.1x over System A, 15.1x-60.4x over Vearch.  The
    service engines walk the same graph one request at a time and find
    Milvus' ids at every ef; the gap is their per-request JSON tax,
    which main prints and nothing asserts."""
    for rival in ("SystemA (HNSW service)", "Vearch"):
        for (__, ___, m_ids), (____, _____, r_ids) in zip(
            curves["Milvus_HNSW"], curves[rival]
        ):
            assert (m_ids == r_ids).all(), rival


def test_relational_pays_one_call_per_tuple(bundle):
    """System C finds Milvus' ids by evaluating the same distances, one
    call per tuple, where Milvus evaluates a whole neighbourhood per
    call."""
    __, queries, ___, index = bundle
    sizes = []
    original = index._dist

    def counting(query, nodes):
        sizes.append(len(nodes))
        return original(query, nodes)

    index._dist = counting
    try:
        milvus = index.search(queries, K, ef=40)
    finally:
        index._dist = original
    metric = count_calls(copy.copy(get_metric("l2")), "single")
    relational = _relational_search(index, queries, K, 40, metric=metric)
    assert (relational.ids == milvus.ids).all()
    assert metric.calls == sum(sizes)
    assert sum(sizes) >= 4 * len(sizes)


def main():
    print(f"=== Figure 9: HNSW, n={N}, k={K} ===")
    for name, points in run_figure().items():
        print_series(
            name,
            [f"recall={p[0]:.3f}" for p in points],
            [f"{p[1]:.0f} qps" for p in points],
        )


if __name__ == "__main__":
    main()
