"""Benchmark-side span tracer (no program changes).

Wraps *public* callables of the program — named ``"module:Qual.name"``
— with a span recorder and restores the originals afterwards.  Spans
``(sid, name, start, end, parent, rid, thread)`` stay in memory until
:meth:`Tracer.dump` writes them out at the end of the run.

A span's *self time* is its duration minus the part of that interval
its children cover (children on other threads may overlap each other,
so the cover is a union of clipped intervals, not a sum).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]  #: sid of the enclosing span, None for a root
    rid: Optional[int]     #: request id shared by every span of a request
    thread: int


class TraceTargetError(LookupError):
    """A declared wrap target cannot be resolved, or is not public."""


def resolve_target(target: str) -> Tuple[object, str, object]:
    """``"pkg.mod:Class.attr"`` -> (owner, attr, raw attribute).

    The raw attribute is what the owner's own ``__dict__`` holds (so
    ``classmethod`` / ``staticmethod`` descriptors survive a restore);
    an attribute that is merely inherited is unresolved here — name
    the class that defines it.
    """
    module_name, sep, qualname = target.partition(":")
    if not sep or not qualname:
        raise TraceTargetError(f"{target!r}: expected 'module:qualname'")
    parts = qualname.split(".")
    private = [p for p in parts if p.startswith("_")]
    if private:
        raise TraceTargetError(f"{target!r}: {private[0]!r} is not public")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceTargetError(f"{target!r}: {exc}") from None
    for part in parts[:-1]:
        try:
            owner = inspect.getattr_static(owner, part)
        except AttributeError:
            raise TraceTargetError(f"{target!r}: no {part!r}") from None
    attr = parts[-1]
    if attr not in vars(owner):
        raise TraceTargetError(
            f"{target!r}: {attr!r} is not defined on {owner!r}"
        )
    raw = vars(owner)[attr]
    if not callable(getattr(raw, "__func__", raw)):
        raise TraceTargetError(f"{target!r}: not callable")
    return owner, attr, raw


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        #: False turns every installed wrapper into a pass-through, so a
        #: caller can alternate traced and untraced requests and compare
        self.enabled = True
        self._ids = itertools.count()
        self._rids = itertools.count()
        self._local = threading.local()
        #: plain tuples, appended at span *exit* (list.append is atomic
        #: under the GIL); :attr:`spans` presents them as :class:`Span`
        self._raw: List[tuple] = []
        #: request id -> kind ("search", "insert", ...)
        self.request_kinds: Dict[int, str] = {}
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.rid = None
            return self._local.stack

    def _push(self, stack: list) -> Tuple[int, Optional[int], float]:
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, self._clock()

    def _pop(self, stack, name, sid, parent, start) -> None:
        end = self._clock()
        stack.pop()
        self._raw.append(
            (sid, name, start, end, parent, self._local.rid,
             threading.get_ident())
        )

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid, parent, start = self._push(stack)
        try:
            yield sid
        finally:
            self._pop(stack, name, sid, parent, start)

    @contextmanager
    def request(self, kind: str):
        """Root span of one request; its spans share a fresh request id."""
        self._stack()
        rid = next(self._rids)
        self.request_kinds[rid] = kind
        self._local.rid = rid
        try:
            with self.span("request"):
                yield rid
        finally:
            self._local.rid = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        # Same recording as span(), without the generator-based context
        # manager: this runs ~30 times per traced search request.
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid, parent, start = self._push(stack)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(stack, name, sid, parent, start)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @property
    def spans(self) -> List[Span]:
        return [Span(*raw) for raw in self._raw]

    # -- install / uninstall ----------------------------------------------

    def install(self, targets: Iterable[Tuple[str, str]]) -> None:
        """Wrap every ``(span name, target)``; all-or-nothing.

        Every target is resolved before the first one is patched, so an
        unresolved target is a hard error that leaves the program
        untouched.
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        resolved = [(name, *resolve_target(target)) for name, target in targets]
        for name, owner, attr, raw in resolved:
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as tab-separated lines (one header line)."""
        with open(path, "w") as fh:
            fh.write("sid\tname\tstart\tend\tparent\trid\tkind\tthread\n")
            for s in self.spans:
                kind = self.request_kinds.get(s.rid, "")
                parent = "" if s.parent is None else s.parent
                rid = "" if s.rid is None else s.rid
                fh.write(
                    f"{s.sid}\t{s.name}\t{s.start!r}\t{s.end!r}\t{parent}\t"
                    f"{rid}\t{kind}\t{s.thread}\n"
                )


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """sid -> self time: duration minus the union of child intervals."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    bounds = {s.sid: (s.start, s.end) for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in bounds:
            lo, hi = bounds[s.parent]
            start, end = max(s.start, lo), min(s.end, hi)
            if end > start:
                children.setdefault(s.parent, []).append((start, end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out
