"""Counters, gauges, and bounded-memory histograms.

The registry is the numeric half of the observability layer (the
VDBMS survey calls monitoring of the query pipeline a core component;
the Faiss paper shows per-stage stats are what make ANN tuning
tractable).  Design constraints, in order:

* **bounded memory** — histograms keep fixed-boundary bucket counts
  plus sum/count/min/max, never raw samples, so p50/p95/p99 are
  readable (:meth:`Histogram.quantile`) at O(#buckets) space no matter
  how many observations land;
* **near-zero cost when disabled** — the module also provides
  :class:`NullCounter`/:class:`NullGauge`/:class:`NullHistogram`
  singletons behind :data:`NULL_REGISTRY`; an instrument call on the
  null path is one no-op method call;
* **thread-safe** — every instrument serializes its mutations on a
  leaf lock (sanitizer role ``"obs"``: any engine lock may be held
  while an instrument updates, but an instrument never acquires
  anything else);
* **injectable** — the process-global registry lives in
  :mod:`repro.obs` and tests swap it via ``obs.enable(registry=...)``.

Metric naming convention (see docs/INTERNALS.md §12):
``<component>_<noun>_<unit>`` with ``_total`` for counters and
``_seconds``/``_bytes`` for histograms/gauges, e.g.
``bufferpool_hits_total``, ``lsm_flush_seconds``.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.utils.sanitizer import maybe_sanitize

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "METRIC_DESCRIPTIONS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "NULL_REGISTRY",
    "describe_metric",
]

#: default histogram boundaries: latency in seconds, 100us .. 10s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: a label set, normalized to a sorted tuple of (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus text-format escaping for label values.

    Backslash first (so later escapes are not double-escaped), then the
    quote delimiter, then literal newlines — per the exposition-format
    spec.  Hostile values (shard names, user-supplied collection names)
    must not be able to break out of the label quoting or inject lines.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help_text(text: str) -> str:
    """Escaping for ``# HELP`` description text.

    Per the exposition-format spec this is **not** the label escaping:
    HELP text is unquoted, so only backslash and newline are escaped
    (a raw newline would terminate the comment and inject a line;
    quotes pass through verbatim).
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


#: one-line operator descriptions rendered as ``# HELP`` lines in the
#: exposition.  Keyed by metric family name; unknown families fall
#: back to :func:`describe_metric`'s generated text so every family
#: always carries a HELP line.
METRIC_DESCRIPTIONS: Dict[str, str] = {
    # storage / LSM
    "lsm_insert_rows_total": "Rows accepted into memtables.",
    "lsm_insert_seconds": "Latency of one insert batch (WAL append + memtable).",
    "lsm_flushes_total": "Memtable flushes committed to sealed segments.",
    "lsm_flush_seconds": "Latency of one memtable flush (encode + write + commit).",
    "lsm_merges_total": "Segment merge compactions committed.",
    "lsm_merge_seconds": "Latency of one segment merge.",
    "lsm_compaction_seconds": "Latency of one compaction task (merge or purge).",
    "lsm_purged_rows_total": "Tombstoned rows physically removed by purge compactions.",
    "lsm_searches_total": "Searches served by the LSM read path.",
    "lsm_search_seconds": "Latency of one LSM search across memtable and segments.",
    "lsm_compaction_backlog": "Compaction tasks planned but not yet executed.",
    "lsm_frozen_memtables": "Frozen memtables queued for background flush.",
    "wal_appends_total": "Write-ahead-log records appended.",
    "wal_append_seconds": "Latency of one WAL append (serialize + write).",
    "wal_lag_bytes": "WAL bytes not yet covered by a flushed-LSN checkpoint.",
    "index_builds_total": "Segment index builds completed.",
    "index_build_seconds": "Latency of one segment index build.",
    "bloom_hits_total": "Point lookups answered by a segment bloom filter.",
    "bloom_negatives_total": "Point lookups skipped by a bloom-filter negative.",
    # buffer pool / caches
    "bufferpool_hits_total": "Segment reads served from the buffer pool.",
    "bufferpool_misses_total": "Segment reads faulted in from storage.",
    "bufferpool_evictions_total": "Segments evicted from the buffer pool.",
    "bufferpool_resident_bytes": "Bytes currently pinned or cached in the buffer pool.",
    "normcache_hits_total": "Query-norm cache hits.",
    "normcache_misses_total": "Query-norm cache misses.",
    # distributed
    "cluster_searches_total": "Cluster fan-out searches served.",
    "cluster_search_seconds": "Latency of one cluster fan-out search.",
    "cluster_insert_rows_total": "Rows routed through the cluster write path.",
    "cluster_degraded_searches_total": "Searches answered with one or more shards missing.",
    "cluster_missing_shards_total": "Shard reads skipped because no reader held the shard.",
    "cluster_respawns_total": "Reader nodes respawned by the coordinator watchdog.",
    "cluster_lazy_index_build_seconds": "Latency of lazy index builds during cluster sync.",
    "reader_queries_served_total": "Queries served per reader node.",
    "reader_lazy_index_builds_total": "Lazy index builds performed by reader nodes.",
    "reader_lazy_index_build_seconds": "Latency of one reader-side lazy index build.",
    "writer_shardlog_appends_total": "Shard-log appends by the writer node.",
    "writer_shardlog_rows_total": "Rows appended to shard logs by the writer node.",
    "writer_shardlog_append_seconds": "Latency of one shard-log append.",
    # retry / faults
    "retry_retries_total": "Transient faults absorbed by retry policies.",
    "retry_exhausted_total": "Operations that ran out of retry budget.",
    # client / REST
    "rest_requests_total": "REST requests handled, by method and status.",
    "rest_request_seconds": "Latency of one REST request end to end.",
    "collection_search_seconds": "Latency of one collection-level search call.",
    # queries / engine
    "hetero_dispatch_total": "Query batches dispatched per heterogeneous backend.",
    # background jobs / ops (INTERNALS §19)
    "bg_jobs_running": "Background jobs currently running, by kind.",
    "bg_jobs_total": "Background jobs finished, by kind and terminal state.",
    "bg_job_seconds": "Wall-clock duration of one background job.",
    "bg_queue_depth": "Depth of each named background work queue.",
    "process_uptime_seconds": "Seconds since this process imported the REST layer.",
    # benchmarks
    "bench_search_seconds": "Latency samples recorded by benchmark stopwatches.",
}


def describe_metric(name: str) -> str:
    """The ``# HELP`` text for a metric family.

    Falls back to a generated description so families minted at call
    sites (tests, future instruments) still expose a HELP line.
    """
    return METRIC_DESCRIPTIONS.get(name, f"Metric {name}.")


def _render_labels(labels: LabelSet, extra: Iterable[Tuple[str, str]] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing float counter."""

    #: lock-discipline declaration consumed by tools/reprolint.
    _GUARDED_BY = {"_value": "_lock"}

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._lock = maybe_sanitize(threading.Lock(), "obs")
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (resident bytes, queue depth)."""

    _GUARDED_BY = {"_value": "_lock"}

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._lock = maybe_sanitize(threading.Lock(), "obs")
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram: percentile reads without stored samples.

    ``boundaries`` are the inclusive upper edges of the finite buckets
    (ascending); one implicit +Inf bucket catches the overflow.  An
    observation is a bisect plus three float adds, all under the
    instrument lock, so memory stays O(#buckets) forever.
    """

    _GUARDED_BY = {
        "_bucket_counts": "_lock",
        "_sum": "_lock",
        "_count": "_lock",
        "_min": "_lock",
        "_max": "_lock",
    }

    def __init__(
        self,
        name: str,
        boundaries: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        labels: LabelSet = (),
    ):
        if not boundaries or list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be ascending and non-empty")
        self.name = name
        self.labels = labels
        self.boundaries: Tuple[float, ...] = tuple(float(b) for b in boundaries)
        self._lock = maybe_sanitize(threading.Lock(), "obs")
        # one count per finite bucket + the +Inf overflow bucket.
        self._bucket_counts = [0] * (len(self.boundaries) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            self._bucket_counts[idx] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    # -- reads ------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (q in [0, 1]) from bucket counts.

        Linear interpolation inside the winning bucket, clamped by the
        observed min/max; overflow-bucket hits return the observed max.
        Returns 0.0 when the histogram is empty.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            counts = list(self._bucket_counts)
            total = self._count
            lo, hi = self._min, self._max
        if not total:
            return 0.0
        rank = q * total
        cumulative = 0.0
        for idx, bucket_count in enumerate(counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                if idx == len(self.boundaries):  # +Inf bucket
                    return hi
                upper = self.boundaries[idx]
                lower = self.boundaries[idx - 1] if idx else min(lo, upper)
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, lo), hi)
            cumulative += bucket_count
        return hi

    def percentiles(self) -> Dict[str, float]:
        """The operator's triple: p50/p95/p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """(upper_edge, cumulative_count) pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        with self._lock:
            counts = list(self._bucket_counts)
        cumulative = 0
        for edge, bucket_count in zip(self.boundaries, counts):
            cumulative += bucket_count
            out.append((edge, cumulative))
        out.append((float("inf"), cumulative + counts[-1]))
        return out


class MetricsRegistry:
    """Name+labels -> instrument, created on first use.

    One name maps to one instrument kind; asking for an existing name
    with a different kind raises.  Lookup is a dict get under the
    registry lock — cheap enough for batch-granularity call sites; hot
    loops may hold the returned instrument.
    """

    _GUARDED_BY = {"_instruments": "_lock"}

    def __init__(self):
        self._lock = maybe_sanitize(threading.Lock(), "obs")
        self._instruments: Dict[Tuple[str, LabelSet], object] = {}
        self._kinds: Dict[str, type] = {}

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = (name, _labelset(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                known = self._kinds.get(name)
                if known is not None and known is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as {known.__name__}"
                    )
                instrument = cls(name, labels=key[1], **kwargs)
                self._instruments[key] = instrument
                self._kinds[name] = cls
            elif not isinstance(instrument, cls):  # pragma: no cover - guarded above
                raise ValueError(f"metric {name!r} is not a {cls.__name__}")
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        boundaries: Optional[Tuple[float, ...]] = None,
        **labels,
    ) -> Histogram:
        return self._get(
            Histogram, name, labels,
            boundaries=boundaries or DEFAULT_LATENCY_BUCKETS,
        )

    # -- reads ------------------------------------------------------------

    def instruments(self) -> List[object]:
        with self._lock:
            return [
                self._instruments[key] for key in sorted(self._instruments)
            ]

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across all of its label sets."""
        with self._lock:
            values = [
                inst.value
                for (iname, __), inst in self._instruments.items()
                if iname == name and isinstance(inst, (Counter, Gauge))
            ]
        return float(sum(values))

    def snapshot(self) -> Dict[str, object]:
        """JSON-compatible dump (tests, /stats-style endpoints)."""
        out: Dict[str, object] = {}
        for inst in self.instruments():
            key = inst.name + _render_labels(inst.labels)
            if isinstance(inst, Histogram):
                out[key] = {
                    "count": inst.count,
                    "sum": inst.sum,
                    "mean": inst.mean,
                    **inst.percentiles(),
                }
            else:
                out[key] = inst.value
        return out

    def render_prometheus(self) -> str:
        """The classic Prometheus text exposition format.

        Each metric family is announced once with a ``# HELP`` line
        (description from :data:`METRIC_DESCRIPTIONS`, HELP-escaped)
        followed by its ``# TYPE`` line, then the samples.
        """
        lines: List[str] = []
        seen_types = set()
        for inst in self.instruments():
            if isinstance(inst, Counter):
                kind = "counter"
            elif isinstance(inst, Gauge):
                kind = "gauge"
            else:
                kind = "histogram"
            if inst.name not in seen_types:
                seen_types.add(inst.name)
                lines.append(
                    f"# HELP {inst.name} {_escape_help_text(describe_metric(inst.name))}"
                )
                lines.append(f"# TYPE {inst.name} {kind}")
            if isinstance(inst, Histogram):
                for edge, cumulative in inst.bucket_counts():
                    le = "+Inf" if edge == float("inf") else repr(edge)
                    lines.append(
                        f"{inst.name}_bucket"
                        f"{_render_labels(inst.labels, [('le', le)])} {cumulative}"
                    )
                lines.append(
                    f"{inst.name}_sum{_render_labels(inst.labels)} {inst.sum!r}"
                )
                lines.append(
                    f"{inst.name}_count{_render_labels(inst.labels)} {inst.count}"
                )
            else:
                value = inst.value
                rendered = repr(value) if value != int(value) else str(int(value))
                lines.append(f"{inst.name}{_render_labels(inst.labels)} {rendered}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# null (disabled) implementations — one shared instance of each
# ---------------------------------------------------------------------------


class NullCounter:
    """No-op counter: the disabled-path cost is one method call."""

    name = ""
    labels: LabelSet = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge:
    name = ""
    labels: LabelSet = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class NullHistogram:
    name = ""
    labels: LabelSet = ()
    count = 0
    sum = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> Dict[str, float]:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def bucket_counts(self) -> List[Tuple[float, int]]:
        return []


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry stand-in when observability is off: shared no-op instruments."""

    def counter(self, name: str, **labels) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, boundaries=None, **labels) -> NullHistogram:
        return _NULL_HISTOGRAM

    def instruments(self) -> List[object]:
        return []

    def total(self, name: str) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, object]:
        return {}

    def render_prometheus(self) -> str:
        return "# observability disabled (set REPRO_OBS=1 or call repro.obs.enable())\n"


NULL_REGISTRY = NullRegistry()
