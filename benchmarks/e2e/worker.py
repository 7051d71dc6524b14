"""Runs one workload in this process and returns its result dict.

Phases: generate inputs -> set up (ingest, flush, build index; several
times when untraced) -> exact ground truth -> warm up -> measured
window -> verify every reply -> crash, restart and verify durability.
A traced run installs the span wrappers after set-up, so write-path
spans only ever come from the measured traffic.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import tempfile
import threading
import time
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import dataset as ds
import layers
from loadgen import (
    Request, RestHarness, Sample, closed_loop, latencies_ms, open_loop,
    percentile, run_for, time_slices,
)
from trace import Tracer
from workloads import (
    COLLECTION, DELETE_EVERY, DELETE_ROWS, FIELD, MIXED_MEMTABLE_BYTES,
    MIXED_SETUP_BATCH_ROWS, NLIST, SETUP_BATCH_ROWS, WRITE_BATCH_ROWS,
    WRITE_RATE, Profile, Workload,
)

from repro.client.rest import RestRouter
from repro.core import Collection, MilvusLite, ServerConfig
from repro.storage import LSMConfig

HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch space inside the checkout (git-ignored): mixed_rw's storage
#: directory and the traced run's span dump
WORK_DIR = os.path.join(HERE, ".work")

ENTITIES = f"/collections/{COLLECTION}/entities"
SEARCH = f"/collections/{COLLECTION}/search"
#: reported on mixed_rw only; null (never fired) on the search workloads
MIXED_ONLY_METRICS = (
    "insert_p95_ms", "loadgen.insert_lateness_p50_ms",
    "loadgen.insert_lateness_max_ms", "storage.filesystem.bytes_written",
    "storage.write_amp", "storage.space_amp",
)
#: a reader's cycle holds at least this many distinct request bodies
CYCLE_MIN = 128
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(seed: int) -> Dict[str, object]:
    return {
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


class Failures:
    """Attempted / failed operation counts, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


# -- request construction ----------------------------------------------------

def insert_requests(
    data: ds.Dataset, lo: int, hi: int, batch: int
) -> List[Request]:
    out = []
    for start in range(lo, hi, batch):
        stop = min(start + batch, hi)
        body = {"data": {
            FIELD: data.vectors[start:stop].tolist(),
            "price": data.prices[start:stop].tolist(),
        }}
        out.append(Request("POST", ENTITIES, json.dumps(body), "insert"))
    return out


def search_cycle(
    data: ds.Dataset, spec: Workload, seed: int
) -> Tuple[List[dict], List[Tuple[np.ndarray, Optional[int]]]]:
    """The request bodies a reader cycles through, and what each asks.

    ``asks[i]`` is ``(positions in the query pool, filter index or
    None)``.  Each body draws its ``nq`` queries from the whole pool, so
    even at ``nq=64`` the cycle holds many distinct batches and no single
    heavy batch sets the tail.  Filters are interleaved so any stretch
    of the cycle covers every pass fraction.
    """
    rng = np.random.default_rng([seed, 2])
    pool = len(data.queries)
    bodies, asks = [], []
    filters: Sequence[Optional[int]] = (
        range(len(data.filters)) if data.filters else (None,)
    )
    for __ in range(max(pool // spec.nq, min(pool, CYCLE_MIN))):
        picks = rng.choice(pool, size=spec.nq, replace=False)
        for f in filters:
            body = {
                "field": FIELD,
                "queries": data.queries[picks].tolist(),
                "k": ds.K,
                "params": {"nprobe": spec.nprobe},
            }
            if f is not None:
                low, high = data.filters[f]
                body["filter"] = {"attribute": "price", "low": low, "high": high}
            bodies.append(body)
            asks.append((picks, f))
    return bodies, asks


def delete_plan(seed: int, preload: int, batches: int) -> List[List[int]]:
    """Ids deleted after every DELETE_EVERY-th batch: distinct, and
    always among rows acknowledged before the delete is sent."""
    rng = np.random.default_rng([seed, 1])
    gone: set = set()
    plan = []
    for done in range(DELETE_EVERY, batches + 1, DELETE_EVERY):
        acked = preload + done * WRITE_BATCH_ROWS
        picks: List[int] = []
        while len(picks) < DELETE_ROWS:
            candidate = int(rng.integers(0, acked))
            if candidate not in gone:
                gone.add(candidate)
                picks.append(candidate)
        plan.append(picks)
    return plan


def writer_schedule(
    inserts: Sequence[Request], deletes: Sequence[List[int]]
) -> List[Tuple[float, Request]]:
    """Insert *i* is due at ``i / WRITE_RATE``; a delete shares the due
    time of the insert it follows, so it goes out as soon as that insert
    returns and any time it takes counts against the next insert."""
    schedule = []
    for i, request in enumerate(inserts):
        due = i / WRITE_RATE
        schedule.append((due, request))
        if (i + 1) % DELETE_EVERY == 0:
            ids = deletes[(i + 1) // DELETE_EVERY - 1]
            schedule.append((due, Request(
                "DELETE", ENTITIES, json.dumps({"ids": ids}), "delete")))
    return schedule


# -- set-up -------------------------------------------------------------------

def make_router(spec: Workload, storage_dir: Optional[str]) -> RestRouter:
    if not spec.mixed:
        return RestRouter(MilvusLite())      # program defaults, in memory
    config = ServerConfig(
        storage=storage_dir,
        lsm=LSMConfig(memtable_flush_bytes=MIXED_MEMTABLE_BYTES),
    )
    return RestRouter(MilvusLite(config))


def set_up(
    spec: Workload, preload: Sequence[Request], rows: int,
    storage_dir: Optional[str], failures: Failures,
) -> Tuple[RestRouter, Dict[str, float], List[float]]:
    """Create, ingest, flush and index through REST; timed per phase."""
    router = make_router(spec, storage_dir)
    harness = RestHarness(router)
    create = Request("POST", "/collections", json.dumps({
        "name": COLLECTION,
        "vector_fields": [{"name": FIELD, "dim": ds.DIM, "metric": "l2"}],
        "attribute_fields": ["price"],
    }))
    t0 = time.perf_counter()
    status, __ = harness.call(create)
    failures.check(status == 201, f"create -> {status}")
    insert_ms = []
    next_id = 0
    for request in preload:
        started = time.perf_counter()
        status, reply = harness.call(request)
        insert_ms.append((time.perf_counter() - started) * 1e3)
        next_id = check_insert(status, reply, next_id, failures)
    t1 = time.perf_counter()
    status, __ = harness.call(Request(
        "POST", "/flush", json.dumps({"collection": COLLECTION})))
    failures.check(status == 200, f"flush -> {status}")
    t2 = time.perf_counter()
    status, __ = harness.call(Request(
        "POST", f"/collections/{COLLECTION}/index", json.dumps({
            "field": FIELD, "index_type": "IVF_FLAT",
            "params": {"nlist": NLIST},
        })))
    failures.check(status == 200, f"index -> {status}")
    t3 = time.perf_counter()
    failures.check(next_id == rows, f"ingested {next_id} of {rows} rows")
    phases = {
        "setup_s": t3 - t0,
        "setup.ingest_s": t1 - t0,
        "setup.ingest_rows_per_s": rows / (t1 - t0),
        "setup.flush_s": t2 - t1,
        "setup.index_build_s": t3 - t2,
    }
    return router, phases, insert_ms


def check_insert(status: int, reply: str, next_id: int, failures: Failures) -> int:
    """An insert must return 201 and the next consecutive row ids."""
    ids = json.loads(reply).get("ids") if status == 201 else None
    ok = bool(ids) and ids == list(range(next_id, next_id + len(ids)))
    failures.check(ok, f"insert at row {next_id} -> {status}")
    return next_id + len(ids) if ok else next_id


# -- verification ---------------------------------------------------------------

def reply_ids(sample: Sample, nq: int, failures: Failures) -> Optional[List[List[int]]]:
    """Hit ids of a search reply; None (and a failure) when malformed."""
    if not failures.check(sample.status == 200, f"search -> {sample.status}"):
        return None
    hits = json.loads(sample.reply).get("hits")
    ok = isinstance(hits, list) and len(hits) == nq
    if not failures.check(ok, "search reply has the wrong shape"):
        return None
    return [[hit["id"] for hit in row] for row in hits]


def verify_searches(
    spec: Workload, data: ds.Dataset, samples: Sequence[Sample],
    asks: Sequence[Tuple[np.ndarray, Optional[int]]],
    truths: Dict[Optional[int], np.ndarray], failures: Failures,
) -> Tuple[int, int]:
    """Recall (hits, possible) over every reply; filter violations fail."""
    hits = possible = 0
    for sample in samples:
        ids = reply_ids(sample, spec.nq, failures)
        if ids is None:
            continue
        picks, f = asks[sample.index % len(asks)]
        if f is not None:
            low, high = data.filters[f]
            flat = np.array([i for row in ids for i in row], dtype=np.int64)
            prices = data.prices[flat]
            failures.check(
                bool(np.all((prices >= low) & (prices <= high))),
                f"filter [{low:.1f}, {high:.1f}] violated",
            )
        got, want = ds.recall(ids, truths[f][picks])
        hits += got
        possible += want
    return hits, possible


def sliced_percentile(
    slices: Sequence[Sequence[Sample]], pct: float, min_beyond: int
) -> Optional[float]:
    """Median over slices of each slice's percentile; None if any slice
    has too few samples beyond it."""
    values = [percentile(latencies_ms(part), pct, min_beyond) for part in slices]
    return None if None in values else median(values)


# -- restart -------------------------------------------------------------------

def restart(storage, probe: np.ndarray, repeats: int):
    """Time restart-to-first-answer over an abandoned server's storage.

    ``storage`` is the dead server's ``(schema, lsm config, filesystem)``.
    ``recover()`` is idempotent until the next flush, so the restart is
    repeated on fresh ``Collection`` objects and the median reported.
    Returns (median seconds, WAL records replayed, the last collection).
    """
    schema, config, fs = storage
    seconds = []
    for __ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        collection = Collection(schema, lsm_config=config, fs=fs)
        replayed = collection.lsm.recover()
        collection.search(FIELD, probe, ds.K)
        seconds.append(time.perf_counter() - started)
    return median(seconds), replayed, collection


def verify_recovered(
    collection: Collection, data: ds.Dataset, spec: Workload,
    acked_rows: int, deleted: Sequence[int], failures: Failures,
) -> Tuple[int, int]:
    """Durability and final-state search quality after the restart.

    Every acknowledged insert, minus every acknowledged delete, must be
    there once the recovered memtable is flushed; no deleted id may be
    returned; recall is against the exact top-k of the live rows.
    """
    collection.flush()
    live = np.ones(acked_rows, dtype=bool)
    live[np.asarray(deleted, dtype=np.int64)] = False
    failures.check(
        collection.num_entities == int(live.sum()),
        f"recovered {collection.num_entities} rows, acknowledged {int(live.sum())}",
    )
    queries = data.queries
    truth = ds.exact_topk(
        queries, data.vectors[:acked_rows][live], np.flatnonzero(live))
    result = collection.search(FIELD, queries, ds.K, nprobe=spec.nprobe)
    returned = [[int(i) for i in row if i >= 0] for row in result.ids]
    flat = np.array([i for row in returned for i in row], dtype=np.int64)
    failures.check(bool(live[flat].all()), "a deleted id was returned")
    return ds.recall(returned, truth)


# -- the traced extras -----------------------------------------------------------

def numpy_floor_us(vectors: np.ndarray, queries: np.ndarray, reps: int = 30) -> float:
    """Median µs of brute-forcing one batch over all rows in bare numpy."""
    norms = (vectors * vectors).sum(axis=1)
    times = []
    for __ in range(reps):
        started = time.perf_counter()
        dists = norms - 2.0 * queries @ vectors.T
        part = np.argpartition(dists, ds.K - 1, axis=1)[:, :ds.K]
        order = np.argsort(np.take_along_axis(dists, part, axis=1), axis=1)
        np.take_along_axis(part, order, axis=1)
        times.append(time.perf_counter() - started)
    return median(times) * 1e6


def explain_counts(
    harness: RestHarness, bodies: Sequence[dict], spec: Workload,
    failures: Failures,
) -> Dict[str, Optional[float]]:
    """Per-request means of the program's own work counters."""
    totals: Dict[str, float] = {}
    segments = admissible = filtered = 0
    for body in bodies:
        request = Request("POST", "/explain", json.dumps(
            dict(body, collection=COLLECTION)), "explain")
        status, reply = harness.call(request)
        if not failures.check(status == 200, f"explain -> {status}"):
            continue
        doc = json.loads(reply)
        for key, value in doc["profile"]["total_counters"].items():
            totals[key] = totals.get(key, 0) + value
        segments += doc["plan"]["segments_selected"]
        if doc["plan"].get("filter"):
            filtered += 1
            admissible += doc["plan"]["filter"]["admissible_rows"]
    n = len(bodies)

    def mean(key: str) -> Optional[float]:
        return totals[key] / n if key in totals else None

    evals = mean("distance_evals")
    return {
        "index.distance_evals": evals,
        "index.rows_scanned": mean("rows_scanned"),
        "index.buckets_probed": mean("buckets_probed"),
        "index.bytes_read": mean("bytes_read"),
        "index.candidates_pruned": mean("candidates_pruned"),
        "index.evals_per_result": (
            evals / (spec.nq * ds.K) if evals is not None else None),
        "storage.lsm.segments_scanned": segments / n,
        "storage.attributes.admissible_rows": (
            admissible / filtered if filtered else None),
    }


def stored_bytes(root: str) -> int:
    total = 0
    for dirpath, __, names in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
    return total


# -- one run ---------------------------------------------------------------------

class Run:
    """One workload, one seed, one window; ``execute()`` returns the result."""

    def __init__(
        self, spec: Workload, profile: Profile, seed: int, seconds: float,
        trace: bool,
    ):
        if spec.threads > nproc():
            raise SystemExit(
                f"{spec.name} needs {spec.threads} generator threads, "
                f"nproc is {nproc()}"
            )
        self.spec, self.profile, self.seed = spec, profile, seed
        self.seconds, self.trace = seconds, trace
        self.failures = Failures()
        self.metrics: Dict[str, Optional[float]] = dict.fromkeys(
            MIXED_ONLY_METRICS)
        self.counts: Dict[str, int] = {}
        self.share: Dict[str, float] = {}
        self.storage_dirs: List[str] = []
        self.tracer: Optional[Tracer] = None

    def execute(self) -> Dict[str, object]:
        os.makedirs(WORK_DIR, exist_ok=True)
        try:
            self.generate()
            self.set_up()
            try:
                self.warm_up()
                self.window()
            finally:
                if self.tracer is not None:
                    self.tracer.uninstall()
            self.timings()
            self.verify_replies()
            self.layer_numbers()
            self.restart_and_verify()
        finally:
            for path in self.storage_dirs:
                shutil.rmtree(path, ignore_errors=True)
        return self.result()

    # -- inputs, from the seed alone ---------------------------------------

    def generate(self) -> None:
        spec, profile = self.spec, self.profile
        self.preload_rows = profile.mixed_rows if spec.mixed else profile.rows
        n_batches = int(round(WRITE_RATE * self.seconds)) if spec.mixed else 0
        self.total_rows = self.preload_rows + n_batches * WRITE_BATCH_ROWS
        self.data = ds.make_dataset(
            self.seed, self.total_rows, profile.query_pool, spec.pass_fractions)
        self.preload = insert_requests(
            self.data, 0, self.preload_rows,
            MIXED_SETUP_BATCH_ROWS if spec.mixed else SETUP_BATCH_ROWS)
        self.bodies, self.asks = search_cycle(self.data, spec, self.seed)
        self.searches = [
            Request("POST", SEARCH, json.dumps(b), "search") for b in self.bodies
        ]
        self.deletes = delete_plan(self.seed, self.preload_rows, n_batches)
        self.schedule = writer_schedule(
            insert_requests(
                self.data, self.preload_rows, self.total_rows, WRITE_BATCH_ROWS),
            self.deletes)

    # -- set-up: several times when untraced, median reported ---------------

    def set_up(self) -> None:
        runs = []
        self.router = None
        for __ in range(1 if self.trace else self.profile.setups):
            self.router = None    # drop the previous server first
            gc.collect()
            self.storage_dir = None
            if self.spec.mixed:
                self.storage_dir = tempfile.mkdtemp(prefix="mixed-", dir=WORK_DIR)
                self.storage_dirs.append(self.storage_dir)
            self.router, phases, insert_ms = set_up(
                self.spec, self.preload, self.preload_rows, self.storage_dir,
                self.failures)
            runs.append((phases, insert_ms))
        for key in runs[0][0]:
            self.metrics[key] = median(phases[key] for phases, __ in runs)
        self.counts["setup_s"] = len(runs)
        self.setup_insert_ms = [ms for __, per_run in runs for ms in per_run]

    # -- warm-up; the traced run then measures what its wrappers cost ----------

    def warm_up(self) -> None:
        self.harness = RestHarness(self.router)
        warm = closed_loop(
            self.harness.call, self.searches, run_for(self.profile.warmup_s))
        self.untraced_p50 = float(np.median(latencies_ms(warm)))
        self.sent = len(warm)
        if not self.trace:
            return
        self.tracer = Tracer()
        self.tracer.install(layers.TARGETS)
        self.harness = RestHarness(self.router, self.tracer)

        def alternating(request: Request) -> Tuple[int, str]:
            # Traced and pass-through requests take turns, so a drift in
            # machine speed during the warm-up lands on both alike.
            self.tracer.enabled = not self.tracer.enabled
            return self.harness.call(request)

        warm = latencies_ms(closed_loop(
            alternating, self.searches, run_for(self.profile.warmup_s),
            first=self.sent))
        self.sent += len(warm)
        # the first request flipped enabled to False: even = pass-through
        plain, traced = np.median(warm[0::2]), np.median(warm[1::2])
        self.metrics["trace.overhead_pct"] = float(
            100.0 * (traced - plain) / plain)
        self.tracer.enabled = True

    # -- the measured window -------------------------------------------------

    def window(self) -> None:
        fs = self.router.client.server.get_collection(COLLECTION).lsm.fs
        written_before = fs.bytes_written
        self.window_start = time.perf_counter()
        if self.spec.mixed:
            self.reads, self.writes = self.mixed_window()
        else:
            self.reads = closed_loop(
                self.harness.call, self.searches, run_for(self.seconds),
                first=self.sent)
            self.writes = []
        self.window_end = time.perf_counter()
        self.fs_written = fs.bytes_written - written_before

    def mixed_window(self) -> Tuple[List[Sample], List[Sample]]:
        """Open-loop writer beside a closed-loop reader, one thread each;
        the reader stops when the writer has sent its whole schedule."""
        done = threading.Event()
        out: Dict[str, object] = {}

        def writer():
            try:
                out["writes"] = open_loop(self.harness.call, self.schedule)
            except BaseException as exc:    # re-raised on the main thread
                out["error"] = exc
            finally:
                done.set()

        def reader():
            try:
                out["reads"] = closed_loop(
                    self.harness.call, self.searches, done.is_set,
                    first=self.sent)
            except BaseException as exc:
                out["error"] = exc

        threads = [
            threading.Thread(target=writer, name="e2e-writer"),
            threading.Thread(target=reader, name="e2e-reader"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if "error" in out:
            raise out["error"]
        return out["reads"], out["writes"]

    # -- end-to-end timings ----------------------------------------------------

    def timings(self) -> None:
        spec, metrics, counts = self.spec, self.metrics, self.counts
        if not self.trace:
            # Read now: ground truth and the restart below are the
            # benchmark's own work, not the served path's footprint.
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        reads = self.reads
        beyond = self.profile.min_beyond
        # Each is a median over equal time slices of the window.
        slices = time_slices(reads, 10)
        slice_s = (reads[-1].end - reads[0].start) / len(slices)
        metrics["search_qps"] = median(
            spec.nq * len(part) / slice_s for part in slices)
        metrics["search_p50_ms"] = sliced_percentile(slices, 50, beyond)
        metrics["search_tail_ms"] = sliced_percentile(
            time_slices(reads, spec.tail_slices), spec.tail_pct, beyond)
        for key in ("search_qps", "search_p50_ms", "search_tail_ms"):
            counts[key] = len(reads)
        metrics["loadgen.reader_requests"] = len(reads)

        self.inserts = [
            s for s, (__, r) in zip(self.writes, self.schedule)
            if r.kind == "insert"
        ]
        if spec.mixed:
            insert_ms = latencies_ms(self.inserts)
            late = np.array([(s.sent - s.start) * 1e3 for s in self.inserts])
            metrics["insert_p95_ms"] = percentile(insert_ms, 95, beyond)
            metrics["loadgen.insert_lateness_p50_ms"] = float(np.median(late))
            metrics["loadgen.insert_lateness_max_ms"] = float(late.max())
        else:
            # the only inserts a search workload issues are its set-up's
            insert_ms = np.asarray(self.setup_insert_ms)
        metrics["insert_p50_ms"] = percentile(insert_ms, 50, beyond)
        counts["insert_p50_ms"] = counts["insert_p95_ms"] = len(insert_ms)

    # -- every reply is checked --------------------------------------------------

    def verify_replies(self) -> None:
        spec, data, failures = self.spec, self.data, self.failures
        next_id = self.preload_rows
        for sample, (__, request) in zip(self.writes, self.schedule):
            if request.kind == "insert":
                next_id = check_insert(
                    sample.status, sample.reply, next_id, failures)
            else:
                failures.check(sample.status == 200, f"delete -> {sample.status}")
        self.acked_rows = next_id
        if spec.mixed:
            # Data moves under the reader, so its replies are checked for
            # shape only; recall comes from the final state after restart.
            for sample in self.reads:
                reply_ids(sample, spec.nq, failures)
            return
        truths: Dict[Optional[int], np.ndarray] = {}
        for f, (low, high) in enumerate(data.filters):
            keep = (data.prices >= low) & (data.prices <= high)
            truths[f] = ds.exact_topk(
                data.queries, data.vectors[keep], np.flatnonzero(keep))
        if not data.filters:
            truths[None] = ds.exact_topk(data.queries, data.vectors)
        self.recall = verify_searches(
            spec, data, self.reads, self.asks, truths, failures)

    # -- per-layer numbers (traced run) -------------------------------------------

    def layer_numbers(self) -> None:
        metrics = self.metrics
        if not self.trace:
            return
        harness = RestHarness(self.router)
        layer_metrics, self.share, layer_counts = layers.analyse(
            self.tracer.spans, self.tracer.request_kinds,
            (self.window_start, self.window_end))
        metrics.update(layer_metrics)
        self.counts.update(layer_counts)
        self.tracer.dump(os.path.join(WORK_DIR, f"spans-{self.spec.name}.tsv"))
        metrics.update(explain_counts(
            harness, self.bodies[:self.profile.explain_requests], self.spec,
            self.failures))
        floor = numpy_floor_us(
            self.data.vectors[:self.preload_rows],
            self.data.queries[:self.spec.nq])
        metrics["floor.numpy_us"] = floor
        metrics["stack.vs_floor"] = self.untraced_p50 * 1e3 / floor
        stats = json.loads(harness.call(
            Request("GET", f"/collections/{COLLECTION}/stats", None))[1])
        metrics["storage.bufferpool.hit_rate"] = stats["bufferpool"]["hit_rate"]
        metrics["storage.bufferpool.evictions"] = stats["bufferpool"]["evictions"]
        for key in ("flush_count", "merge_count", "live_segments",
                    "indexed_segments", "tombstones"):
            metrics[f"storage.lsm.{key}"] = stats[key]
        if self.spec.mixed:
            user_bytes = (
                len(self.inserts) * WRITE_BATCH_ROWS * ds.USER_ROW_BYTES)
            metrics["storage.filesystem.bytes_written"] = self.fs_written
            metrics["storage.write_amp"] = self.fs_written / user_bytes
            metrics["storage.space_amp"] = stored_bytes(self.storage_dir) / (
                stats["live_rows"] * ds.USER_ROW_BYTES)

    # -- crash, restart, verify -------------------------------------------------------

    def restart_and_verify(self) -> None:
        old = self.router.client.server.get_collection(COLLECTION)
        storage = (old.schema, old.lsm.config, old.lsm.fs)
        del old
        self.router = self.harness = None    # the server is abandoned here
        seconds, replayed, recovered = restart(
            storage, self.data.queries[:1], self.profile.recoveries)
        self.metrics["recovery_s"] = seconds
        self.counts["recovery_s"] = self.profile.recoveries
        self.metrics["storage.wal.replayed_records"] = replayed
        if self.spec.mixed:
            deleted = [i for ids in self.deletes for i in ids]
            self.recall = verify_recovered(
                recovered, self.data, self.spec, self.acked_rows, deleted,
                self.failures)
        else:
            self.failures.check(
                recovered.num_entities == self.preload_rows,
                f"recovered {recovered.num_entities} of {self.preload_rows} rows")

    # -- result ------------------------------------------------------------------------

    def result(self) -> Dict[str, object]:
        spec, failures, metrics = self.spec, self.failures, self.metrics
        hits, possible = self.recall
        metrics["recall_at_10"] = hits / possible if possible else None
        self.counts["recall_at_10"] = possible
        if self.profile.gate_recall and spec.recall_floor is not None:
            failures.check(
                (metrics["recall_at_10"] or 0.0) >= spec.recall_floor,
                f"recall_at_10 {metrics['recall_at_10']} below "
                f"{spec.recall_floor}")
        metrics["error_rate"] = failures.failed / failures.attempted
        return {
            "workload": spec.name,
            "profile": self.profile.name,
            "seconds": self.seconds,
            "trace": self.trace,
            "env": environment(self.seed),
            "attempted": failures.attempted,
            "failed": failures.failed,
            "correct": failures.failed == 0,
            "failures": failures.reasons,
            "metrics": metrics,
            "counts": self.counts,
            "layer_share": self.share,
        }
