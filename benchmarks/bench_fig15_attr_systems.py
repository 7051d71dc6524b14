"""Figure 15: attribute filtering — Milvus vs other systems.

Paper: Milvus is 48.5x ~ 41299.5x faster than Systems A/B/C and
Vearch on filtered queries.  Here the architectural stand-ins run the
same selectivity sweep; expected shape: Milvus fastest at every
selectivity, the relational engines orders of magnitude behind.

The checks assert the rows each system reads per query (the profile's
``rows_scanned``; the tuples the relational scan operator yields) on a
smaller copy of the workload.  Latency is printed by :func:`main` only.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    MilvusEngine,
    RelationalVectorEngine,
    VearchLikeEngine,
)
from repro.bench import print_series

from common import SIFT_N, attribute_bundle, best_time, profiled, selectivity_to_range

SELECTIVITIES = (0.0, 0.3, 0.7, 0.9, 0.99)
K = 10
NQ = 10
#: the checks' workload: (rows, queries)
CHECK_SIZE = (4000, 5)

_cache = {}


def count_tuples(engine):
    """Count the tuples a relational engine's scan operator yields, in
    ``engine.tuples_read``."""
    scan = engine._scan

    def counting(positions=None):
        for row in scan(positions):
            engine.tuples_read += 1
            yield row

    engine.tuples_read = 0
    engine._scan = counting
    return engine


def engines(n=SIFT_N):
    if n not in _cache:
        data, attrs, queries = attribute_bundle(n)
        built = {}
        milvus = MilvusEngine(nlist=64, filter_strategy="D")
        milvus.fit(data, attrs)
        built["Milvus"] = milvus
        vearch = VearchLikeEngine(nlist=64)
        vearch.fit(data, attrs)
        built["Vearch"] = vearch
        system_b = RelationalVectorEngine(use_index=False)
        system_b.fit(data, attrs)
        built["SystemB (relational scan)"] = count_tuples(system_b)
        system_c = RelationalVectorEngine(use_index=True, nlist=64)
        system_c.fit(data, attrs)
        built["SystemC (relational+IVF)"] = count_tuples(system_c)
        _cache[n] = (built, queries[:NQ], attrs)
    return _cache[n]


def run_figure(n=SIFT_N, nq=NQ, timed=True):
    """``{system: [(sel, s/q or None, rows read per query)]}``."""
    built, queries, __ = engines(n)
    queries = queries[:nq]
    results = {}
    for name, engine in built.items():
        engine.filtered_search(queries[:2], K, 0.0, 10000.0, nprobe=16)  # warm-up
        points = []
        for sel in SELECTIVITIES:
            lo, hi = selectivity_to_range(sel)
            search = lambda: engine.filtered_search(queries, K, lo, hi, nprobe=16)
            before = getattr(engine, "tuples_read", 0)
            __, counters = profiled(search)
            rows = (getattr(engine, "tuples_read", 0) - before
                    + counters.get("rows_scanned", 0))
            seconds = best_time(search, repeats=2) / nq if timed else None
            points.append((sel, seconds, rows / nq))
        results[name] = points
    return results


@pytest.fixture(scope="module")
def fig15():
    return run_figure(*CHECK_SIZE, timed=False)


def _rows(fig15, name, sel):
    return fig15[name][SELECTIVITIES.index(sel)][2]


def test_milvus_reads_fewest_rows_at_high_selectivity(fig15):
    """Where the cost-based/partitioned machinery matters most, Milvus
    reads under half the rows of every other system."""
    for sel in (0.9, 0.99):
        for name in fig15:
            if name != "Milvus":
                assert _rows(fig15, "Milvus", sel) < 0.5 * _rows(fig15, name, sel)


def test_relational_scan_reads_every_tuple(fig15):
    """Paper: 48.5x ~ 41299.5x.  System B reads every tuple at every
    selectivity, never fewer rows than Milvus, and >20x more at the
    high-selectivity extreme; its per-tuple interpretation cost is
    printed by main."""
    n = CHECK_SIZE[0]
    for sel in SELECTIVITIES:
        assert _rows(fig15, "SystemB (relational scan)", sel) == n
        assert _rows(fig15, "Milvus", sel) <= n
    assert _rows(fig15, "Milvus", 0.99) * 20 < n


def test_results_respect_filter():
    built, queries, attrs = engines(CHECK_SIZE[0])
    lo, hi = selectivity_to_range(0.7)
    for engine in built.values():
        result = engine.filtered_search(queries[:CHECK_SIZE[1]], K, lo, hi, nprobe=16)
        hits = result.ids[result.ids >= 0]
        assert ((attrs[hits] >= lo) & (attrs[hits] <= hi)).all()


def main():
    print("=== Figure 15: filtered search across systems ===")
    for name, points in run_figure().items():
        print_series(
            name,
            [f"sel={s}" for s, *__ in points],
            [f"{t * 1000:.2f} ms/q" for __, t, ___ in points],
        )


if __name__ == "__main__":
    main()
