"""Ablation: bucket-major batched IVF execution vs per-query search.

The cache-aware idea (Sec. 3.2.1) applied to inverted files: instead
of each query streaming its probed buckets, each bucket is scanned
once for every query probing it.  This is the real (measured, not
modeled) engine-level speedup behind the Milvus curves in Fig. 8.

Both sides run the production probe (``IVFIndexBase._search_pruned``):
one ``search`` of ``b`` queries — bucket-major once the batch shares
buckets (from ``b = 64`` here), every probed bucket scored once for all
its queries — against ``b`` searches of one query each, where every
query streams its buckets alone (query-major).  main prints the
speedup; the checks assert identical results and what the speedup is
made of: how many queries share each bucket scan, by batch size.

The probe has two regimes, and ``probes_query_major`` picks one per
request from ``nq``, ``nprobe`` and ``nlist``.  ``--regimes`` prints
the sweep that rule was fitted to and is judged by (a report, not a
gate; recorded in EXPERIMENTS.md, "IVF probe regimes"): both regimes
called directly over ``nq`` x ``nprobe`` x {2k, 8k, 30k rows} x
{unfiltered, 10 % ``row_filter``}, the time of query-major over
bucket-major, and whether the rule took the faster side.  It is
followed by the same question one level up (``collects_scans``, recorded
in EXPERIMENTS.md, "Many segments, one collector"): over snapshots
shaped like ``mixed_rw``'s — segments x tombstones x (``nq``,
``nprobe``) — every scan scoring into one ``TopKCollector`` against a
top-k per scan and one merge, each composed directly from
``Segment.search``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.bench import print_series
from repro.datasets import random_queries, sift_like
from repro.index import IVFFlatIndex
from repro.index.ivf_common import probes_query_major
from repro.storage import Segment
from repro.storage.lsm import collects_scans
from repro.utils import TopKCollector, merge_topk_batch

N = 30000
DIM = 48
K = 10
NLIST = 128
BATCHES = (1, 8, 64, 256, 1024)
#: rows of the checks' index
CHECK_N = 4000

_cache = {}


def setup(n=N):
    if n not in _cache:
        data = sift_like(n, dim=DIM, n_clusters=64, seed=0)
        queries = random_queries(data, max(BATCHES), seed=1)
        index = IVFFlatIndex(DIM, nlist=NLIST, seed=0)
        index.train(data)
        index.add(data)
        _cache[n] = (queries, index)
    return _cache[n]


def search_one_by_one(index, queries, nprobe):
    return [index.search(q[np.newaxis, :], K, nprobe=nprobe) for q in queries]


def run_sweep(nprobe=16):
    queries, index = setup()
    rows = []
    for m in BATCHES:
        q = queries[:m]
        index.search(q[:1], K, nprobe=nprobe)  # warm-up
        t0 = time.perf_counter()
        search_one_by_one(index, q, nprobe)
        per_query = time.perf_counter() - t0
        t0 = time.perf_counter()
        index.search(q, K, nprobe=nprobe)
        bucket_major = time.perf_counter() - t0
        rows.append((m, per_query, bucket_major))
    return rows


def bucket_sharing(index, queries, nprobe):
    """Queries per distinct probed bucket: how many queries one bucket
    scan serves in the bucket-major regime (1 = nothing shared)."""
    buckets = index.select_buckets(queries, nprobe)
    return buckets.size / len(np.unique(buckets))


def test_identical_results():
    queries, index = setup(CHECK_N)
    solo = search_one_by_one(index, queries[:64], 16)
    batch = index.search(queries[:64], K, nprobe=16)
    np.testing.assert_array_equal(np.concatenate([r.ids for r in solo]), batch.ids)


def test_batched_shares_buckets_at_large_batch():
    """The rule runs the largest batch bucket-major, where every bucket
    scan serves many queries; a single query runs query-major."""
    queries, index = setup(CHECK_N)
    assert probes_query_major(1, 16, NLIST)
    assert not probes_query_major(BATCHES[-1], 16, NLIST)
    assert bucket_sharing(index, queries[:BATCHES[-1]], 16) > 16


def test_sharing_grows_with_batch():
    queries, index = setup(CHECK_N)
    sharing = [bucket_sharing(index, queries[:m], 16) for m in BATCHES]
    assert sharing[0] == 1
    assert all(b > a for a, b in zip(sharing, sharing[1:]))


# -- the regime sweep -------------------------------------------------------------

SWEEP_ROWS = (2000, 8000, 30000)
SWEEP_NQ = (1, 2, 8, 16, 64)
SWEEP_NPROBE = (4, 8, 16, 32, 64)
SWEEP_DIM, SWEEP_NLIST = 64, 128


def time_regimes(index, queries, nprobe, row_filter, budget=0.3):
    """Best seconds of one probe in each regime, ``(bucket-major,
    query-major)``, after the coarse step they share.  The two take
    turns until ``budget`` is spent, so a slow stretch of the machine
    lands on both."""
    buckets = index.select_buckets(queries, nprobe)
    best = [float("inf"), float("inf")]
    spent = 0.0
    while spent < budget:
        for query_major in (False, True):
            t0 = time.perf_counter()
            index._search_pruned(queries, K, buckets, row_filter, query_major)
            took = time.perf_counter() - t0
            best[query_major] = min(best[query_major], took)
            spent += took
    return best


def regime_sweep(nlist=SWEEP_NLIST):
    """Rows ``(n, filtered, nq, nprobe, bucket-major s, query-major s)``."""
    rows = []
    for n in SWEEP_ROWS:
        data = sift_like(n, dim=SWEEP_DIM, n_clusters=64, seed=0)
        queries = random_queries(data, max(SWEEP_NQ), seed=1)
        index = IVFFlatIndex(SWEEP_DIM, nlist=nlist, seed=0)
        index.train(data)
        index.add(data)
        index.warm()
        tenth = np.sort(np.random.default_rng(2).choice(n, n // 10, replace=False))
        for row_filter in (None, tenth.astype(np.int64)):
            for nq in SWEEP_NQ:
                for nprobe in SWEEP_NPROBE:
                    if nprobe > nlist:
                        continue
                    times = time_regimes(index, queries[:nq], nprobe, row_filter)
                    rows.append((n, row_filter is not None, nq, nprobe, *times))
    return rows


def format_regime_sweep(rows, nlist=SWEEP_NLIST) -> str:
    """The sweep as a markdown table, one line per (rows, filter, nq):
    query-major time / bucket-major time at each ``nprobe``; ``*`` where
    the rule runs query-major, ``!`` where the regime it runs is more
    than 10 % slower than the other."""
    nprobes = [p for p in SWEEP_NPROBE if p <= nlist]
    lines = [
        f"IVF_FLAT, dim {SWEEP_DIM}, nlist {nlist}, k {K}: time of "
        "query-major / bucket-major, and the faster one's time, for the "
        "probe after the shared coarse step; `*` = the rule runs "
        "query-major, `!` = the rule's side is > 10 % slower.",
        "",
        "| rows | filter | nq | " + " | ".join(
            f"nprobe {p}" for p in nprobes) + " |",
        "|---|---|---|" + "---|" * len(nprobes),
    ]
    cells = {}
    for n, filtered, nq, nprobe, bucket_s, query_s in rows:
        ratio = query_s / bucket_s
        chosen = probes_query_major(nq, nprobe, nlist)
        wrong = ratio > 1.1 if chosen else ratio < 1 / 1.1
        cells[n, filtered, nq, nprobe] = (
            f"{ratio:.2f}{'*' if chosen else ''}{'!' if wrong else ''}"
            f" ({min(bucket_s, query_s) * 1e6:.0f} us)")
    for n in SWEEP_ROWS:
        for filtered in (False, True):
            for nq in SWEEP_NQ:
                lines.append(
                    f"| {n} | {'10 %' if filtered else 'none'} | {nq} | "
                    + " | ".join(cells[n, filtered, nq, p] for p in nprobes)
                    + " |")
    return "\n".join(lines)


# -- the collector sweep -----------------------------------------------------------

#: the segments a ``mixed_rw`` snapshot is made of at different moments
#: of its window, as (rows, indexed) — ids are consecutive
COLLECT_LAYOUTS = (
    ((8000, True), (2000, False), (2000, False), (2000, False), (492, False), (492, False)),
    ((8000, True), (7818, True)),
    ((8000, True), (7818, True), (492, False), (492, False)),
    ((8000, True), (7818, True), (1951, False), (492, False)),
    ((8000, True), (7818, True), (1951, False), (1950, False)),
)
#: tombstones each layout carries in the benchmark's traced run
COLLECT_DEAD = (160, 169, 328, 539, 769)
COLLECT_SHAPES = ((1, 8), (2, 8), (4, 16), (8, 16), (16, 16), (32, 32), (64, 32))


def mixture(n, seed, centres=512):
    """The served-path benchmark's data: a 64-d Gaussian mixture."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((centres, SWEEP_DIM))
    return (means[rng.integers(0, centres, n)]
            + rng.standard_normal((n, SWEEP_DIM))).astype(np.float32)


def build_scans(layout, built):
    """The layout's segments; ``built`` keeps them across layouts (an
    index build is the slow part)."""
    scans, lo = [], 0
    for rows, indexed in layout:
        key = (lo, rows, indexed)
        if key not in built:
            segment = Segment(
                len(built), np.arange(lo, lo + rows), {"emb": mixture(rows, seed=lo)},
                {}, {"emb": (SWEEP_DIM, "l2")})
            if indexed:
                segment.build_index("emb", "IVF_FLAT", nlist=SWEEP_NLIST)
            built[key] = segment
        scans.append(built[key])
        lo += rows
    return scans, lo


def time_combiners(scans, queries, nprobe, exclude, budget=0.3):
    """Best seconds of one request ``(top-k per scan + merge, one
    collector)``, the two taking turns like :func:`time_regimes`."""

    def merge():
        partials = [
            scan.search("emb", queries, K, exclude=exclude, nprobe=nprobe)
            for scan in scans]
        return merge_topk_batch(
            [(p.ids, p.scores) for p in partials], K, nq=len(queries),
            dtype=np.float64)

    def collect():
        collector = TopKCollector(len(queries), K)
        for scan in scans:
            scan.search("emb", queries, K, exclude=exclude, nprobe=nprobe,
                        collector=collector)
        return collector.close()

    assert (merge()[0] == collect()[0]).all()
    best = [float("inf"), float("inf")]
    spent = 0.0
    while spent < budget:
        for which, combine in enumerate((merge, collect)):
            t0 = time.perf_counter()
            combine()
            took = time.perf_counter() - t0
            best[which] = min(best[which], took)
            spent += took
    return best


def collector_sweep():
    """Rows ``(layout, tombstones, nq, nprobe, merge s, collector s)``:
    every layout at the benchmark's 1 x 8, the last over every shape."""
    built, rows = {}, []
    queries = mixture(max(nq for nq, __ in COLLECT_SHAPES), seed=1)
    for layout, dead in zip(COLLECT_LAYOUTS, COLLECT_DEAD):
        scans, total = build_scans(layout, built)
        shapes = COLLECT_SHAPES if layout is COLLECT_LAYOUTS[-1] else COLLECT_SHAPES[:1]
        for n_dead in (0, dead):
            exclude = np.sort(np.random.default_rng(3).choice(
                total, n_dead, replace=False)).astype(np.int64)
            for nq, nprobe in shapes:
                times = time_combiners(scans, queries[:nq], nprobe, exclude)
                rows.append((layout, n_dead, nq, nprobe, *times))
    return rows


def format_collector_sweep(rows) -> str:
    """The sweep as a markdown table: collector time / merge time; ``*``
    where the rule collects, ``!`` where the side it takes is more than
    10 % slower than the other."""
    lines = [
        f"IVF_FLAT nlist {SWEEP_NLIST} and unindexed segments, dim "
        f"{SWEEP_DIM}, k {K}, l2: one request over the snapshot, every scan "
        "into one collector against a top-k per scan and one merge; `*` = "
        "the rule collects, `!` = the rule's side is > 10 % slower.",
        "",
        "| segments (rows, i = indexed) | tombstones | nq x nprobe | merge us "
        "| collector us | collector / merge |",
        "|---|---|---|---|---|---|",
    ]
    for layout, n_dead, nq, nprobe, merge_s, collect_s in rows:
        ratio = collect_s / merge_s
        chosen = collects_scans(nq, nprobe, SWEEP_NLIST, len(layout))
        wrong = ratio > 1.1 if chosen else ratio < 1 / 1.1
        name = " + ".join(f"{n}{'i' if indexed else ''}" for n, indexed in layout)
        lines.append(
            f"| {name} | {n_dead} | {nq} x {nprobe} | {merge_s * 1e6:.0f} | "
            f"{collect_s * 1e6:.0f} | {ratio:.2f}{'*' if chosen else ''}"
            f"{'!' if wrong else ''} |")
    return "\n".join(lines)


def main(argv=()):
    parser = argparse.ArgumentParser(
        description="Batched-IVF ablation; --regimes prints the probe-regime sweep.")
    parser.add_argument("--regimes", action="store_true",
                        help="print the probe-regime sweep instead")
    parser.add_argument("--nlist", type=int, default=SWEEP_NLIST,
                        help="lists of the swept index (default %(default)s)")
    parser.add_argument("--out", help="also write the sweep table to this file")
    args = parser.parse_args(argv)
    if args.regimes:
        table = (format_regime_sweep(regime_sweep(args.nlist), args.nlist)
                 + "\n\n" + format_collector_sweep(collector_sweep()))
        print(table)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(table + "\n")
        return
    rows = run_sweep()
    print("=== Ablation: per-query vs bucket-major IVF execution ===")
    print_series(
        "speedup", [m for m, *__ in rows],
        [f"{pq / bm:.2f}x" for __, pq, bm in rows],
    )
    for m, pq, bm in rows:
        print(f"  batch {m:5d}: per-query {pq * 1000:8.1f}ms  "
              f"bucket-major {bm * 1000:8.1f}ms")


if __name__ == "__main__":
    main(sys.argv[1:])
