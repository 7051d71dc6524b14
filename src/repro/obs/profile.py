"""Query profiling: per-stage wall time plus deterministic work counters.

A :class:`QueryProfile` is one query's EXPLAIN ANALYZE record: a tree
of :class:`ProfileNode` stages (collection -> lsm fan-out -> segment
-> index scan), each carrying wall-clock ``seconds`` and a dict of
exact integer work counters — distance evaluations, rows scanned,
bytes read from storage, heap pushes, candidates pruned, cache and
norm-cache hits.  Counters are plain ints incremented by instrumented
code, never sampled or estimated, so two seeded runs of the same query
produce byte-equal counter dicts and tests can assert on them.

Propagation is ambient and mirrors :class:`~repro.obs.tracing.Tracer`:
the innermost active node lives in a :mod:`contextvars` variable, and
instrumented sites call :func:`profile_count` / :func:`profile_stage`
without any plumbing through signatures.  When no profile is active
each site costs one call that reads the context variable and returns —
the same "one no-op call" budget as the null tracer.

One query runs on one thread, so a fan-out
(:meth:`LSMManager.search`, :meth:`MilvusCluster.search`) needs no
ceremony: each scan opens its own ``segment.search`` /
``shard.search`` stage as it runs, child order is scan order, and no
two threads ever touch the same node.

Finished profiles are retained by a bounded :class:`Profiler` store
keyed by trace id (LRU, like the tracer's trace store) and served by
``GET /profiles/{trace_id}``.  When observability is off,
:data:`NULL_PROFILER` and the shared :data:`NULL_STAGE` node swallow
everything.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.utils.sanitizer import maybe_sanitize

__all__ = [
    "ProfileNode",
    "QueryProfile",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
    "NULL_STAGE",
    "current_node",
    "profile_count",
    "profile_attr",
    "profile_stage",
    "measurement_stage",
]

#: children retained per node before overflow counts into
#: ``dropped_children`` (bounds one profile's memory the way
#: ``max_spans_per_trace`` bounds a trace).
MAX_CHILDREN_PER_NODE = 256

#: the innermost active profile node of the current execution context.
_ACTIVE: "contextvars.ContextVar[Optional[ProfileNode]]" = contextvars.ContextVar(
    "repro_obs_active_profile", default=None
)


class ProfileNode:
    """One stage of a query profile: timed region + integer counters.

    The node is its own context manager: entering makes it the ambient
    counter sink (so :func:`profile_count` lands here), exiting adds
    the elapsed wall time and restores the previous node.  Counter
    increments only ever come from the thread that currently has the
    node entered, so no lock is needed; cross-stage totals are computed
    after the fact by :meth:`total_counters`.
    """

    __slots__ = (
        "name", "attrs", "counters", "children", "seconds",
        "dropped_children", "_start", "_token",
    )

    def __init__(self, name: str, attrs: Optional[Dict[str, object]] = None):
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.counters: Dict[str, int] = {}
        self.children: List[ProfileNode] = []
        self.seconds = 0.0
        self.dropped_children = 0
        self._start = 0.0
        self._token: Optional[contextvars.Token] = None

    # -- accounting --------------------------------------------------------

    def count(self, counter: str, n: int = 1) -> None:
        """Add ``n`` to an integer work counter on this node."""
        self.counters[counter] = self.counters.get(counter, 0) + int(n)

    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def stage(self, name: str, **attrs) -> "ProfileNode":
        """Create (but do not enter) a child stage.

        Instrumented code normally prefers the ambient
        :func:`profile_stage`, which calls this on the active node.
        """
        if len(self.children) >= MAX_CHILDREN_PER_NODE:
            self.dropped_children += 1
            return NULL_STAGE
        child = ProfileNode(name, attrs)
        self.children.append(child)
        return child

    def total_counters(self) -> Dict[str, int]:
        """Counter totals over this node's whole subtree."""
        totals = dict(self.counters)
        for child in self.children:
            for key, value in child.total_counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def to_dict(self) -> Dict[str, object]:
        node: Dict[str, object] = {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }
        if self.dropped_children:
            node["dropped_children"] = self.dropped_children
        return node

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "ProfileNode":
        self._start = time.perf_counter()
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds += time.perf_counter() - self._start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProfileNode({self.name!r}, {self.seconds * 1e3:.3f}ms, "
            f"counters={self.counters}, children={len(self.children)})"
        )


class _NullStage:
    """Shared no-op stage: absorbs counts, never records anything."""

    name = ""
    attrs: Dict[str, object] = {}
    counters: Dict[str, int] = {}
    children: List[ProfileNode] = []
    seconds = 0.0
    dropped_children = 0

    def count(self, counter: str, n: int = 1) -> None:
        pass

    def set_attr(self, key: str, value: object) -> None:
        pass

    def stage(self, name: str, **attrs) -> "_NullStage":
        return self

    def total_counters(self) -> Dict[str, int]:
        return {}

    def to_dict(self) -> Dict[str, object]:
        return {}

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_STAGE = _NullStage()


def current_node() -> Optional[ProfileNode]:
    """The innermost active profile node, or None when not profiling.

    Hot loops fetch this once, accumulate locally, and flush totals
    with one :meth:`ProfileNode.count` call per counter.
    """
    return _ACTIVE.get()


def profile_count(counter: str, n: int = 1) -> None:
    """Add ``n`` to ``counter`` on the ambient node; no-op otherwise."""
    node = _ACTIVE.get()
    if node is not None:
        node.count(counter, n)


def profile_attr(key: str, value: object) -> None:
    """Set an attribute on the ambient node; no-op when not profiling."""
    node = _ACTIVE.get()
    if node is not None:
        node.set_attr(key, value)


def profile_stage(name: str, **attrs):
    """A child stage of the ambient node, for use as a context manager.

    Returns the shared :data:`NULL_STAGE` when no profile is active,
    so instrumented code writes one unconditional ``with`` either way.
    """
    node = _ACTIVE.get()
    if node is None:
        return NULL_STAGE
    return node.stage(name, **attrs)


def measurement_stage(name: str, **attrs) -> ProfileNode:
    """A *recording* stage even when no profile is active.

    Calibration feedback needs exact counters for every executed query,
    not only the explained ones.  With an ambient profile this is an
    ordinary child stage (the measurements show up in EXPLAIN ANALYZE);
    without one it is a detached root node the caller reads counters
    from and then drops — never :data:`NULL_STAGE`, which would feed
    the calibrator zeros.
    """
    node = _ACTIVE.get()
    if node is None:
        return ProfileNode(name, attrs)
    return node.stage(name, **attrs)


class QueryProfile:
    """One query's profile: a root stage plus the retaining trace id.

    Usable standalone (``search(..., explain=True)`` works with
    observability off): entering activates the root node, exiting
    finalizes it.  The :class:`Profiler` store only gets involved when
    observability is enabled.
    """

    __slots__ = ("root", "trace_id")

    def __init__(self, name: str = "query", trace_id: Optional[str] = None, **attrs):
        self.root = ProfileNode(name, attrs)
        self.trace_id = trace_id

    @property
    def seconds(self) -> float:
        return self.root.seconds

    def count(self, counter: str, n: int = 1) -> None:
        self.root.count(counter, n)

    def total_counters(self) -> Dict[str, int]:
        return self.root.total_counters()

    def to_dict(self) -> Dict[str, object]:
        return {"trace_id": self.trace_id, "root": self.root.to_dict(),
                "total_counters": self.total_counters()}

    def __enter__(self) -> "QueryProfile":
        self.root.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.root.__exit__(exc_type, exc, tb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryProfile(trace={self.trace_id}, root={self.root!r})"


class Profiler:
    """Bounded LRU store of finished profiles, keyed by trace id."""

    #: real profilers collect on every search; the null one never does.
    enabled = True

    #: lock-discipline declaration consumed by tools/reprolint.
    _GUARDED_BY = {"_profiles": "_lock", "_seq": "_lock"}

    def __init__(self, max_profiles: int = 128):
        if max_profiles < 1:
            raise ValueError("profile store bound must be >= 1")
        self.max_profiles = max_profiles
        self._lock = maybe_sanitize(threading.Lock(), "obs")
        #: trace_id -> finished profile, oldest first.
        self._profiles: "OrderedDict[str, QueryProfile]" = OrderedDict()
        self._seq = 0

    def record(self, trace_id: Optional[str], profile: QueryProfile) -> str:
        """Retain a finished profile; returns its store key.

        Keys by the query's trace id when tracing produced one, else by
        a deterministic ``p%06d`` sequence number, mirroring the
        tracer's id scheme.
        """
        with self._lock:
            if trace_id is None:
                self._seq += 1
                trace_id = f"p{self._seq:06d}"
            profile.trace_id = trace_id
            self._profiles[trace_id] = profile
            self._profiles.move_to_end(trace_id)
            while len(self._profiles) > self.max_profiles:
                self._profiles.popitem(last=False)
        return trace_id

    def get(self, trace_id: str) -> Optional[QueryProfile]:
        with self._lock:
            return self._profiles.get(trace_id)

    def profile_ids(self) -> List[str]:
        with self._lock:
            return list(self._profiles)

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()
            self._seq = 0


class NullProfiler:
    """Profiler stand-in when observability is off."""

    enabled = False

    def record(self, trace_id: Optional[str], profile: QueryProfile) -> str:
        return trace_id or ""

    def get(self, trace_id: str) -> None:
        return None

    def profile_ids(self) -> List[str]:
        return []

    def clear(self) -> None:
        pass


NULL_PROFILER = NullProfiler()
