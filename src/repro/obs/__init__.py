"""repro.obs — the dependency-free observability layer.

Cooperating pieces, bundled behind one process-global (but
injectable) :class:`Observability` handle:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  bounded-memory histograms (p50/p95/p99 without stored samples),
  rendered in Prometheus text format by ``GET /metrics``;
* :class:`~repro.obs.profile.Profiler` — the one span tree: every
  instrumented layer opens one
  :func:`~repro.obs.profile.profile_stage` (ambient contextvar
  parenting, stage timings + exact work counters); a stage with no
  parent is a root, and finished roots are kept in a bounded store
  served by ``GET /traces/<trace_id>`` and ``GET /profiles/<trace_id>``
  (the same document);
* :class:`~repro.obs.slowlog.SlowQueryLog` — threshold-gated ring of
  slow queries, each linking to its tree by trace id and embedding the
  offending query's stage;
* the operational layer (INTERNALS §19) —
  :class:`~repro.obs.events.EventJournal` (``GET /events``),
  :class:`~repro.obs.jobs.JobRegistry` (``GET /jobs``),
  :class:`~repro.obs.health.HealthMonitor` (``GET /health``) and
  :class:`~repro.obs.usage.UsageMeter` (``GET /usage``).

Switchboard (mirrors :mod:`repro.utils.sanitizer`): observability is
**off by default** and every instrumented call site then runs against
shared null objects — one no-op method call of overhead.  Turn it on
with ``REPRO_OBS=1`` in the environment, or programmatically::

    from repro import obs
    handle = obs.enable()                    # fresh registry/profiler/log
    handle = obs.enable(registry=my_registry)  # injected (tests)
    ...
    obs.disable()

Call sites fetch the handle per call (``obs.get_obs()``), so enabling
or injecting takes effect immediately, including for objects built
earlier.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from repro.obs.events import (
    Event,
    EventJournal,
    NullEventJournal,
    NULL_JOURNAL,
)
from repro.obs.health import (
    HealthMonitor,
    NullHealthMonitor,
    NULL_HEALTH,
)
from repro.obs.jobs import (
    Job,
    JobRegistry,
    NullJobRegistry,
    NULL_JOB,
    NULL_JOBS,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    METRIC_DESCRIPTIONS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    describe_metric,
)
from repro.obs.usage import (
    NullUsageMeter,
    NULL_USAGE,
    UsageMeter,
)
from repro.obs.profile import (
    NullProfiler,
    NULL_PROFILER,
    NULL_STAGE,
    Profiler,
    ProfileNode,
    QueryProfile,
    current_node,
    profile_attr,
    profile_count,
    profile_stage,
)
from repro.obs.slowlog import (
    NullSlowQueryLog,
    NULL_SLOW_LOG,
    SlowQuery,
    SlowQueryLog,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "METRIC_DESCRIPTIONS",
    "describe_metric",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "SlowQuery",
    "SlowQueryLog",
    "NullSlowQueryLog",
    "ProfileNode",
    "QueryProfile",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
    "NULL_STAGE",
    "Event",
    "EventJournal",
    "NullEventJournal",
    "NULL_JOURNAL",
    "Job",
    "JobRegistry",
    "NullJobRegistry",
    "NULL_JOB",
    "NULL_JOBS",
    "HealthMonitor",
    "NullHealthMonitor",
    "NULL_HEALTH",
    "UsageMeter",
    "NullUsageMeter",
    "NULL_USAGE",
    "current_node",
    "profile_count",
    "profile_attr",
    "profile_stage",
    "Observability",
    "Stopwatch",
    "enabled",
    "enable",
    "disable",
    "get_obs",
]


class Observability:
    """One registry + slow-query log + profiler + ops layer.

    The operational members default to instances wired to each other:
    the job registry exports gauges through ``registry``, the health
    monitor reads the same gauges back and watches the job heartbeats.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        slow_query_log: Optional[SlowQueryLog] = None,
        profiler: Optional[Profiler] = None,
        events: Optional[EventJournal] = None,
        jobs: Optional[JobRegistry] = None,
        health: Optional[HealthMonitor] = None,
        usage: Optional[UsageMeter] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slow_query_log = (
            slow_query_log if slow_query_log is not None else SlowQueryLog()
        )
        self.profiler = profiler if profiler is not None else Profiler()
        self.events = events if events is not None else EventJournal()
        self.jobs = (
            jobs if jobs is not None else JobRegistry(registry=self.registry)
        )
        self.health = (
            health
            if health is not None
            else HealthMonitor(registry=self.registry, jobs=self.jobs)
        )
        self.usage = usage if usage is not None else UsageMeter()


class _NullObservability:
    """The disabled-path handle: all members are shared no-ops."""

    registry = NULL_REGISTRY
    slow_query_log = NULL_SLOW_LOG
    profiler = NULL_PROFILER
    events = NULL_JOURNAL
    jobs = NULL_JOBS
    health = NULL_HEALTH
    usage = NULL_USAGE


_NULL_OBS = _NullObservability()


def _from_env() -> Optional[Observability]:
    return Observability() if os.environ.get("REPRO_OBS") == "1" else None


#: the installed handle; None means off.  ``REPRO_OBS`` is resolved here
#: at import, again by :func:`disable`, and lazily by :func:`get_obs`,
#: so :func:`~repro.obs.profile.profile_stage` can read this one global
#: instead of the environment on every disabled call.
_obs: Optional[Observability] = _from_env()
_state_lock = threading.Lock()


def enabled() -> bool:
    """True when observability is active (env var or :func:`enable`)."""
    return _obs is not None or os.environ.get("REPRO_OBS") == "1"


def get_obs() -> "Observability":
    """The active :class:`Observability` handle, or the shared null one.

    (Typed as :class:`Observability` — the null handle is duck-typed
    to the same surface — so static analysis can resolve the
    ``get_obs().registry.counter(...)`` chains to the obs-lock-taking
    methods.)

    This is the single accessor every instrumented call site uses; the
    disabled path is one global read plus an environ get.
    """
    global _obs
    if _obs is not None:
        return _obs
    if os.environ.get("REPRO_OBS") == "1":
        with _state_lock:
            if _obs is None:
                _obs = Observability()
            return _obs
    return _NULL_OBS


def enable(
    registry: Optional[MetricsRegistry] = None,
    slow_query_log: Optional[SlowQueryLog] = None,
    profiler: Optional[Profiler] = None,
    events: Optional[EventJournal] = None,
    jobs: Optional[JobRegistry] = None,
    health: Optional[HealthMonitor] = None,
    usage: Optional[UsageMeter] = None,
) -> Observability:
    """Force observability on; optionally inject components (tests).

    Replaces any previously active handle, so a test gets a clean
    registry by simply calling ``obs.enable()`` again.
    """
    global _obs
    with _state_lock:
        _obs = Observability(registry, slow_query_log, profiler,
                             events, jobs, health, usage)
        return _obs


def disable() -> None:
    """Turn observability off and drop the collected data.

    Note: with ``REPRO_OBS=1`` in the environment this installs a fresh
    handle instead (same contract as the sanitizer's env switch).
    """
    global _obs
    with _state_lock:
        _obs = _from_env()


class Stopwatch:
    """The one timing primitive for benchmarks and profiling hooks.

    ``with Stopwatch() as sw: ...`` then read ``sw.seconds``.  Always
    :func:`time.perf_counter` — the monotonic high-resolution clock —
    never ``time.time()``, which steps with wall-clock adjustments and
    must not be used for durations anywhere in this tree.  Passing a
    histogram name records the measurement into the active registry::

        with Stopwatch("bench_search_seconds"):
            engine.search(queries, k)
    """

    __slots__ = ("metric", "started", "seconds")

    def __init__(self, metric: Optional[str] = None):
        self.metric = metric
        self.started = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self.started
        if self.metric is not None:
            get_obs().registry.histogram(self.metric).observe(self.seconds)
