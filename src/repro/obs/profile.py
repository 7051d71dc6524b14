"""The span tree: per-stage wall time plus deterministic work counters.

A :class:`ProfileNode` is one timed, named stage of an operation
(REST request -> SDK -> collection -> lsm fan-out -> segment -> index
scan), carrying wall-clock ``seconds``, its ``start`` (perf_counter at
entry, which orders siblings) and a dict of exact integer work
counters — distance evaluations, rows scanned, bytes read from
storage, heap pushes, candidates pruned, cache and norm-cache hits.
Counters are plain ints incremented by instrumented code, never
sampled or estimated, so two seeded runs of the same query produce
byte-equal counter dicts and tests can assert on them.

Propagation is ambient: the innermost active node lives in a
:mod:`contextvars` variable, and instrumented sites call
:func:`profile_stage` / :func:`profile_count` without any plumbing
through signatures.  A stage opened under an active node is its
child; one opened with none is a *root*.  With observability on, a
root gets a deterministic ``t%06d`` trace id (shared by every node
below it) and, once finished, is kept by the bounded :class:`Profiler`
store that serves ``GET /traces/{id}`` and ``GET /profiles/{id}``.
With it off a root is the shared :data:`NULL_STAGE`, so a disabled
site costs one call that reads the context variable and returns a
no-op — except :func:`measurement_stage` (and so :class:`QueryProfile`,
which ``search(..., explain=True)`` uses), which always records.

One query runs on one thread, so a fan-out
(:meth:`LSMManager.search`, :meth:`MilvusCluster.search`) needs no
ceremony: each scan opens its own ``segment.search`` /
``shard.search`` stage as it runs, child order is scan order, and no
two threads ever touch the same node.

Memory is bounded twice over: the store keeps at most
``max_profiles`` trees (LRU by finish order) and a node keeps at most
:data:`MAX_CHILDREN_PER_NODE` children (overflow counts into
``dropped_children``).
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional

from repro import obs as _switchboard
from repro.utils.sanitizer import maybe_sanitize

__all__ = [
    "ProfileNode",
    "QueryProfile",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
    "NULL_STAGE",
    "MAX_CHILDREN_PER_NODE",
    "current_node",
    "profile_count",
    "profile_attr",
    "profile_stage",
    "measurement_stage",
]

#: children retained per node before overflow counts into
#: ``dropped_children`` (bounds one tree's memory per node).
MAX_CHILDREN_PER_NODE = 256

#: the innermost active profile node of the current execution context.
_ACTIVE: "contextvars.ContextVar[Optional[ProfileNode]]" = contextvars.ContextVar(
    "repro_obs_active_profile", default=None
)


class ProfileNode:
    """One stage of a span tree: timed region + integer counters.

    The node is its own context manager: entering makes it the ambient
    parent and counter sink (so :func:`profile_count` lands here),
    exiting adds the elapsed wall time, restores the previous node and
    — for a root opened by a :class:`Profiler` — hands the finished
    tree to that store.  Counter increments only ever come from the
    thread that currently has the node entered, so no lock is needed;
    cross-stage totals are computed after the fact by
    :meth:`total_counters`.
    """

    __slots__ = (
        "name", "attrs", "counters", "children", "seconds", "start",
        "dropped_children", "trace_id", "_store", "_token",
    )

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, object]] = None,
        trace_id: Optional[str] = None,
        store: Optional["Profiler"] = None,
    ):
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.counters: Dict[str, int] = {}
        self.children: List[ProfileNode] = []
        self.seconds = 0.0
        self.start = 0.0
        self.dropped_children = 0
        #: the tree's id; every node of a kept tree carries its root's.
        self.trace_id = trace_id
        self._store = store
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
        child = ProfileNode(name, attrs, self.trace_id)
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
            "start": self.start,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }
        if self.dropped_children:
            node["dropped_children"] = self.dropped_children
        return node

    def document(self) -> Dict[str, object]:
        """This subtree as served by ``GET /profiles/{id}`` (and
        ``/traces/{id}``), embedded in slow-log entries and returned by
        EXPLAIN."""
        return {"trace_id": self.trace_id, "root": self.to_dict(),
                "total_counters": self.total_counters()}

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "ProfileNode":
        self.start = time.perf_counter()
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds += time.perf_counter() - self.start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        if self._store is not None:
            self._store.record(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProfileNode({self.name!r}, trace={self.trace_id}, "
            f"{self.seconds * 1e3:.3f}ms, counters={self.counters}, "
            f"children={len(self.children)})"
        )


class _NullStage:
    """Shared no-op stage: absorbs counts, never records anything."""

    name = ""
    trace_id: Optional[str] = None
    attrs: Dict[str, object] = {}
    counters: Dict[str, int] = {}
    children: List[ProfileNode] = []
    seconds = 0.0
    start = 0.0
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

    def document(self) -> Dict[str, object]:
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
    """A stage for use as a context manager: a child of the ambient
    node, else a root of the active profiler.

    Returns the shared :data:`NULL_STAGE` when there is no ambient node
    and observability is off, so instrumented code writes one
    unconditional ``with`` either way; that check is one read of the
    switchboard's installed handle.
    """
    node = _ACTIVE.get()
    if node is not None:
        return node.stage(name, **attrs)
    handle = _switchboard._obs
    return NULL_STAGE if handle is None else handle.profiler.root(name, attrs)


def measurement_stage(name: str, **attrs) -> ProfileNode:
    """A *recording* stage even when observability is off.

    Calibration feedback and EXPLAIN need exact counters for the
    queries they run, not only when observability is on.  Where
    :func:`profile_stage` would hand out :data:`NULL_STAGE` this returns
    a detached node the caller reads counters from and then drops —
    never :data:`NULL_STAGE`, which would feed the calibrator zeros.
    """
    stage = profile_stage(name, **attrs)  # reprolint: disable=span-context
    return ProfileNode(name, attrs) if stage is NULL_STAGE else stage


class QueryProfile:
    """One query's EXPLAIN ANALYZE record: a :func:`measurement_stage`.

    Usable standalone (``search(..., explain=True)`` works with
    observability off): entering activates the root node, exiting
    finalizes it.  Opened under an active node it is that node's
    child, so an explained search stays part of its request's tree.
    """

    __slots__ = ("root",)

    def __init__(self, name: str = "query", **attrs):
        # entered by this wrapper's own __enter__
        self.root = measurement_stage(name, **attrs)  # reprolint: disable=span-context

    @property
    def trace_id(self) -> Optional[str]:
        return self.root.trace_id

    @property
    def seconds(self) -> float:
        return self.root.seconds

    def count(self, counter: str, n: int = 1) -> None:
        self.root.count(counter, n)

    def total_counters(self) -> Dict[str, int]:
        return self.root.total_counters()

    def to_dict(self) -> Dict[str, object]:
        return self.root.document()

    def __enter__(self) -> "QueryProfile":
        self.root.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.root.__exit__(exc_type, exc, tb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryProfile(root={self.root!r})"


class Profiler:
    """Opens root stages and keeps finished trees in a bounded store."""

    #: lock-discipline declaration consumed by tools/reprolint.
    _GUARDED_BY = {"_trees": "_lock", "_seq": "_lock"}

    def __init__(self, max_profiles: int = 128):
        if max_profiles < 1:
            raise ValueError("profile store bound must be >= 1")
        self.max_profiles = max_profiles
        self._lock = maybe_sanitize(threading.Lock(), "obs")
        #: trace_id -> finished root, oldest first.
        self._trees: "OrderedDict[str, ProfileNode]" = OrderedDict()
        self._seq = 0

    def root(self, name: str, attrs: Optional[Dict[str, object]] = None) -> ProfileNode:
        """A root stage with a fresh ``t%06d`` trace id; kept on exit."""
        with self._lock:
            self._seq += 1
            trace_id = f"t{self._seq:06d}"
        return ProfileNode(name, attrs, trace_id, self)

    def record(self, root: ProfileNode) -> None:
        """Keep a finished root, evicting the oldest past the bound."""
        with self._lock:
            self._trees[root.trace_id] = root
            self._trees.move_to_end(root.trace_id)
            while len(self._trees) > self.max_profiles:
                self._trees.popitem(last=False)

    def get(self, trace_id: str) -> Optional[ProfileNode]:
        with self._lock:
            return self._trees.get(trace_id)

    def trace_ids(self) -> List[str]:
        """Kept trees' ids, oldest first."""
        with self._lock:
            return list(self._trees)

    def clear(self) -> None:
        with self._lock:
            self._trees.clear()
            self._seq = 0


class NullProfiler:
    """Profiler stand-in when observability is off: an empty store."""

    def get(self, trace_id: str) -> None:
        return None

    def trace_ids(self) -> List[str]:
        return []

    def clear(self) -> None:
        pass


NULL_PROFILER = NullProfiler()
