"""Figure 8: recall-throughput on IVF (quantization) indexes.

Paper setup: SIFT10M / Deep10M, k=50, Milvus IVF_FLAT / IVF_SQ8 /
IVF_PQ against Vearch, SPTAG and commercial systems.  Here: SIFT-like
and Deep-like at laptop scale, k=10, with the architectural baselines.
Expected shape: Milvus dominates at every recall level; SPTAG-like
cannot reach the highest recall; the relational engine (System B/C
class) trails by orders of magnitude.

The checks run a smaller copy of the SIFT-like workload and assert
recall and exact work: Vearch does Milvus' work once per request, and
Milvus at high recall evaluates a fraction of the distances the
relational scan does.  Throughput is printed by :func:`main` only.
"""

from __future__ import annotations

import copy
import functools

import pytest

from repro.baselines import (
    MilvusEngine,
    RelationalVectorEngine,
    SPTAGLikeEngine,
    VearchLikeEngine,
)
from repro.bench import print_series
from repro.datasets import recall_at_k

from common import K, best_time, count_calls, deep_bundle, profiled, sift_bundle

NPROBES = (1, 2, 4, 8, 16, 32)
#: the checks' workload: (rows, queries)
CHECK_SIZE = (2000, 30)


def _curve(engine, queries, truth, knob, values, timed):
    """Sweep one knob -> [(recall, qps, counters, ids)], qps ``None``
    unless ``timed``.  A call-counted metric on the engine (the
    relational ones, which score a tuple per call) stands in for the
    profile's ``distance_evals``."""
    points = []
    for value in values:
        search = functools.partial(engine.search, queries, K, **{knob: value})
        counting = hasattr(engine.metric, "calls")
        before = engine.metric.calls if counting else 0
        result, counters = profiled(search)
        if counting:
            counters["distance_evals"] = engine.metric.calls - before
        qps = len(queries) / best_time(search, repeats=1) if timed else None
        points.append((recall_at_k(result.ids, truth), qps, counters, result.ids))
    return points


def run_figure(bundle, metric, timed=True):
    data, queries, truth = bundle
    curves = {}
    for name, engine in [
        ("Milvus_IVF_FLAT", MilvusEngine(index_type="IVF_FLAT", metric=metric, nlist=128)),
        ("Milvus_IVF_SQ8", MilvusEngine(index_type="IVF_SQ8", metric=metric, nlist=128)),
        ("Milvus_IVF_PQ", MilvusEngine(index_type="IVF_PQ", metric=metric, nlist=128, m=8)),
        ("Vearch", VearchLikeEngine(index_type="IVF_FLAT", metric=metric, nlist=128)),
    ]:
        engine.fit(data)
        curves[name] = _curve(engine, queries, truth, "nprobe", NPROBES, timed)

    sptag = SPTAGLikeEngine(n_trees=10, leaf_size=48, metric=metric)
    sptag.fit(data)
    curves["SPTAG"] = _curve(
        sptag, queries[:50], truth[:50], "search_k", (200, 800, 2000, 6000), timed)

    system_b = RelationalVectorEngine(metric=metric, use_index=False)
    system_b.fit(data)
    system_b.metric = count_calls(copy.copy(system_b.metric), "single")
    curves["SystemB (brute scan)"] = _curve(
        system_b, queries[:5], truth[:5], "nprobe", (1,), timed)

    system_c = RelationalVectorEngine(metric=metric, use_index=True, nlist=128)
    system_c.fit(data)
    system_c.metric = count_calls(copy.copy(system_c.metric), "single")
    curves["SystemC (relational+IVF)"] = _curve(
        system_c, queries[:10], truth[:10], "nprobe", (4, 16, 64), timed)
    return curves


def evals_per_query(curves, series, i):
    """Distance evaluations per query at point ``i`` of ``series``."""
    recall, __, counters, ids = curves[series][i]
    return counters["distance_evals"] / len(ids)


# -- assertions on the figure's shape --------------------------------------

@pytest.fixture(scope="module")
def sift_curves():
    return run_figure(sift_bundle(*CHECK_SIZE), "l2", timed=False)


def test_vearch_does_milvus_work_per_request(sift_curves):
    """Vearch runs the same index one request at a time: at every
    nprobe it returns Milvus' ids for the same distance evaluations, so
    its throughput gap is the per-request tax (printed by main)."""
    for (__, ___, m_work, m_ids), (____, _____, v_work, v_ids) in zip(
        sift_curves["Milvus_IVF_FLAT"], sift_curves["Vearch"]
    ):
        assert (m_ids == v_ids).all()
        assert m_work["distance_evals"] == v_work["distance_evals"]


def test_milvus_evaluates_fraction_of_relational_scan(sift_curves):
    """At recall >= 0.9 Milvus evaluates under a fifth of the distances
    the relational full scan does (one per row per query)."""
    n = len(sift_bundle(*CHECK_SIZE)[0])
    assert evals_per_query(sift_curves, "SystemB (brute scan)", 0) == n
    first = next(i for i, point in enumerate(sift_curves["Milvus_IVF_FLAT"])
                 if point[0] >= 0.9)
    assert evals_per_query(sift_curves, "Milvus_IVF_FLAT", first) < n / 5


def test_milvus_reaches_high_recall(sift_curves):
    assert max(p[0] for p in sift_curves["Milvus_IVF_FLAT"]) >= 0.99


def test_sq8_tracks_flat_recall(sift_curves):
    flat_best = max(p[0] for p in sift_curves["Milvus_IVF_FLAT"])
    sq8_best = max(p[0] for p in sift_curves["Milvus_IVF_SQ8"])
    assert sq8_best >= flat_best - 0.02  # footnote 6: ~1% recall loss


def main():
    for name, bundle, metric in [
        ("SIFT-like (Fig. 8a)", sift_bundle(), "l2"),
        ("Deep-like (Fig. 8b)", deep_bundle(), "ip"),
    ]:
        print(f"=== Figure 8: {name}, k={K} ===")
        for series, points in run_figure(bundle, metric).items():
            print_series(
                series,
                [f"recall={p[0]:.3f}" for p in points],
                [f"{p[1]:.0f} qps" for p in points],
            )


if __name__ == "__main__":
    main()
