"""Observability overhead gate: the same workload with obs on vs off.

The operational layer's contract (INTERNALS §19) is that turning
``REPRO_OBS=1`` on costs almost nothing: disabled call sites hit
shared null objects, enabled ones pay one registry/journal update per
*operation* (never per row or per distance evaluation).  This module
measures that claim on two surfaces; run directly, it exits 1 if
enabling observability costs more than :data:`OVERHEAD_BUDGET_PCT` of
qps (CI's observability job runs it so):

* ``kernel`` — the fig8 subset: ``MilvusEngine`` IVF_FLAT on the
  SIFT-like bundle, nprobe sweep.  Exercises the kernel-layer hooks
  (norm cache counters, heterogeneous dispatch).
* ``served`` — the embedded-server path: ``Collection.search`` over
  an LSM collection, where obs-on additionally keeps one span tree
  (:mod:`repro.obs.profile`) per query batch, records per-collection
  usage, and feeds the slow-query log.

Measurement design: every instrumented call site fetches the active
handle per call (``obs.get_obs()``), so one engine object can be timed
under either mode.  Samples are taken in *interleaved off/on pairs*
(order alternating per pair) against the same pre-built engine, and
each arm reports its fastest sample — machine-level drift (frequency
scaling, noisy CI neighbours) lands on both arms equally instead of on
whichever arm ran last.  Re-enabling reuses the original components,
so counters/journal/usage accumulate across on-samples and the proof
assertions can check the on-arm really observed.  Those checks run
under pytest on a small workload with one pair; the timed gate does not.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pytest

from repro import obs
from repro.baselines import MilvusEngine
from repro.bench import print_table
from repro.core.schema import CollectionSchema, VectorField
from repro.core.server import MilvusLite
from repro.datasets import recall_at_k

from common import K, sift_bundle

#: CI fails when obs-on qps drops more than this vs obs-off (ISSUE 10).
OVERHEAD_BUDGET_PCT = 10.0

NPROBES = (4, 16)
#: interleaved off/on sample pairs per point; each arm keeps its best.
#: the true served-path overhead is ~3-6% against a 10% budget, so the
#: estimator needs enough pairs that sampling noise stays well inside
#: the remaining margin.
PAIRS = 9
#: back-to-back query-set sweeps inside one timed sample, so a sample
#: is long enough (tens of ms) for perf_counter deltas to be stable.
ROUNDS = 3

SERVED_ROWS = 6000
SERVED_QUERIES = 64
#: the checks' workload: (rows, queries)
CHECK_SIZE = (2000, 32)


def _reenable(handle) -> None:
    """Turn obs back on with ``handle``'s original components, so
    state (registry, journal, usage) accumulates across on-samples."""
    obs.enable(
        registry=handle.registry,
        slow_query_log=handle.slow_query_log, profiler=handle.profiler,
        events=handle.events, jobs=handle.jobs, health=handle.health,
        usage=handle.usage,
    )


def paired_qps(handle, num_queries: int, sample, pairs: int) -> dict:
    """Time ``sample()`` in ``pairs`` interleaved off/on pairs -> qps
    per arm.

    Leaves observability enabled (with ``handle``'s components) on
    return.
    """
    best = {"off": float("inf"), "on": float("inf")}
    for pair in range(pairs):
        arms = ("off", "on") if pair % 2 == 0 else ("on", "off")
        for arm in arms:
            if arm == "on":
                _reenable(handle)
            else:
                obs.disable()
            started = time.perf_counter()
            sample()
            best[arm] = min(best[arm], time.perf_counter() - started)
    _reenable(handle)
    return {arm: ROUNDS * num_queries / t for arm, t in best.items()}


def run_kernel_surface(handle, bundle, pairs) -> list:
    """Fig8 subset: IVF_FLAT nprobe sweep through the kernel layer."""
    data, queries, truth = bundle
    engine = MilvusEngine(index_type="IVF_FLAT", metric="l2", nlist=128)
    engine.fit(data)
    engine.search(queries, K, nprobe=max(NPROBES))  # warm caches
    rows = []
    for nprobe in NPROBES:
        qps = paired_qps(handle, len(queries), lambda: [
            engine.search(queries, K, nprobe=nprobe) for _ in range(ROUNDS)
        ], pairs)
        # one verification search per arm: watching must not change results
        obs.disable()
        off_ids = engine.search(queries, K, nprobe=nprobe).ids
        _reenable(handle)
        on_ids = engine.search(queries, K, nprobe=nprobe).ids
        identical = bool(np.array_equal(off_ids, on_ids))
        for mode in ("off", "on"):
            rows.append({
                "surface": "kernel", "mode": mode, "nprobe": nprobe,
                "qps": qps[mode],
                "recall": recall_at_k(on_ids if mode == "on" else off_ids,
                                      truth),
                "counters": {"ids_identical": int(identical)},
            })
    return rows


def run_served_surface(handle, bundle, pairs) -> list:
    """Embedded-server path: Collection.search (span trees/usage)."""
    data, queries, _ = bundle
    data = data[:SERVED_ROWS]
    queries = queries[:SERVED_QUERIES]
    server = MilvusLite()
    coll = server.create_collection(CollectionSchema(
        name="overhead",
        vector_fields=[VectorField("emb", data.shape[1], "l2")],
    ))
    coll.insert({"emb": data})  # under obs-on: metered + journaled
    coll.flush()
    coll.search("emb", queries, K)  # warm (1 usage-metered query)
    qps = paired_qps(handle, len(queries), lambda: [
        coll.search("emb", queries, K) for _ in range(ROUNDS)
    ], pairs)
    # proof each arm really ran in its mode: only on-samples may have
    # fed the usage meter and the event journal.
    usage = handle.usage.collection("overhead") or {}
    counters = {
        "usage_queries": int(usage.get("queries", 0)),
        "usage_inserts": int(usage.get("inserts", 0)),
        "journal_events": int(handle.events.last_seq()),
    }
    return [
        {"surface": "served", "mode": mode, "qps": qps[mode],
         "counters": counters}
        for mode in ("off", "on")
    ]


def run_comparison(bundle=None, pairs=PAIRS):
    # pop the env var so an ``REPRO_OBS=1`` CI environment cannot turn
    # the off-arm back on through ``get_obs()``'s env fallback.
    had = os.environ.pop("REPRO_OBS", None)
    handle = obs.enable()
    try:
        bundle = bundle or sift_bundle()
        series = run_kernel_surface(handle, bundle, pairs)
        series.extend(run_served_surface(handle, bundle, pairs))
        return series, overhead_by_point(series)
    finally:
        obs.disable()
        if had is not None:
            os.environ["REPRO_OBS"] = had


def overhead_by_point(series) -> dict:
    """{point-name: qps loss of obs-on vs obs-off, in percent}."""

    def ident(row):
        return tuple(sorted(
            (k, v) for k, v in row.items()
            if k not in ("mode", "qps", "recall", "counters")
        ))

    off = {ident(r): r["qps"] for r in series if r["mode"] == "off"}
    out = {}
    for row in series:
        if row["mode"] != "on":
            continue
        base = off[ident(row)]
        name = row["surface"]
        if "nprobe" in row:
            name += f"_nprobe{row['nprobe']}"
        out[name] = 100.0 * (base - row["qps"]) / base
    return out


# -- checks on the arms ------------------------------------------------------

@pytest.fixture(scope="module")
def comparison():
    return run_comparison(sift_bundle(*CHECK_SIZE), pairs=1)


def test_on_arm_really_observed(comparison):
    series, _ = comparison
    served = next(r for r in series
                  if r["surface"] == "served" and r["mode"] == "on")
    # exactly the warm search + the one on-sample of ROUNDS batches
    # lands in usage; the interleaved off-sample must not.
    assert served["counters"]["usage_queries"] == 1 + ROUNDS
    assert served["counters"]["usage_inserts"] == 1
    assert served["counters"]["journal_events"] > 0  # freeze/flush/...


def test_observing_does_not_change_results(comparison):
    series, _ = comparison
    kernel_rows = [r for r in series if r["surface"] == "kernel"]
    assert kernel_rows
    assert all(r["counters"]["ids_identical"] == 1 for r in kernel_rows)
    for nprobe in NPROBES:
        recalls = {r["recall"] for r in kernel_rows
                   if r["nprobe"] == nprobe}
        assert len(recalls) == 1


# -- report and gate ---------------------------------------------------------

def main() -> int:
    """Print the comparison; 1 if the worst point is over budget."""
    print("== observability overhead: obs on vs off ==")
    series, overhead = run_comparison()
    print_table(
        ["surface", "mode", "nprobe", "qps", "recall"],
        [
            [r["surface"], r["mode"], r.get("nprobe", "-"),
             f"{r['qps']:.0f}",
             f"{r['recall']:.3f}" if "recall" in r else "-"]
            for r in series
        ],
        title=f"matched points (best of {PAIRS} interleaved pairs)",
    )
    print_table(
        ["point", "overhead %"],
        [[name, f"{pct:+.1f}"] for name, pct in sorted(overhead.items())],
        title=f"obs-on qps loss (budget {OVERHEAD_BUDGET_PCT:.0f}%)",
    )
    worst, pct = max(overhead.items(), key=lambda item: item[1])
    if pct > OVERHEAD_BUDGET_PCT:
        print(f"obs-on qps regressed {pct:.1f}% at {worst} "
              f"(budget {OVERHEAD_BUDGET_PCT}%)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
