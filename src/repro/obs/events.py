"""Bounded, thread-safe journal of engine lifecycle events.

The metrics registry answers *how much* (counters/gauges) and the
span tree answers *where did this query go*; neither answers *what has
the engine been doing* — the background machinery (PR 7's flush and
compaction loops, WAL checkpointing, PR 8's planner calibration)
otherwise runs dark until a barrier re-raises a stored error.  The
journal records typed lifecycle events into a fixed-size ring with
deterministic sequence ids, so seeded fault-plan runs produce
byte-identical event chains (the acceptance harness diffs two runs).

Design constraints, matching the rest of :mod:`repro.obs`:

* **bounded memory** — a ``deque(maxlen=capacity)``; old events fall
  off, sequence ids keep counting so loss is detectable;
* **thread-safe leaf** — one lock with sanitizer role ``"obs"``: any
  engine lock may be held while emitting, the journal never acquires
  anything else (in particular it does NOT touch the metrics
  registry, whose instruments use the same sibling role);
* **near-zero cost when disabled** — :data:`NULL_JOURNAL` is a shared
  no-op; an instrumented call site pays one method call;
* **monotonic time only** — event timestamps are
  :func:`time.perf_counter` offsets (durations/ordering, never wall
  clock), and are excluded from determinism comparisons.

Event kinds are free-form dotted strings; the engine's taxonomy is
documented in docs/INTERNALS.md §19 and centralised here as module
constants so call sites and tests cannot drift apart.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.utils.sanitizer import maybe_sanitize

__all__ = [
    "Event",
    "EventJournal",
    "NullEventJournal",
    "NULL_JOURNAL",
    "EVENT_KINDS",
    "MEMTABLE_FREEZE",
    "FLUSH_START",
    "FLUSH_COMMIT",
    "COMPACTION_PLAN",
    "COMPACTION_COMMIT",
    "COMPACTION_DEFERRED_DELETE",
    "WAL_CHECKPOINT",
    "MANIFEST_GC",
    "RECOVERY",
    "RETRY_EXHAUSTED",
    "READER_RESPAWN",
    "PLANNER_CALIBRATION",
    "BG_ERROR",
]

# -- the event taxonomy (INTERNALS §19) -------------------------------------

MEMTABLE_FREEZE = "memtable.freeze"
FLUSH_START = "flush.start"
FLUSH_COMMIT = "flush.commit"
COMPACTION_PLAN = "compaction.plan"
COMPACTION_COMMIT = "compaction.commit"
COMPACTION_DEFERRED_DELETE = "compaction.deferred_delete"
WAL_CHECKPOINT = "wal.checkpoint"
MANIFEST_GC = "manifest.gc"
RECOVERY = "recovery"
RETRY_EXHAUSTED = "retry.exhausted"
READER_RESPAWN = "reader.respawn"
PLANNER_CALIBRATION = "planner.calibration"
BG_ERROR = "bg.error"

#: every kind the engine emits, for validation in tests and reprotop.
EVENT_KINDS = frozenset({
    MEMTABLE_FREEZE, FLUSH_START, FLUSH_COMMIT,
    COMPACTION_PLAN, COMPACTION_COMMIT, COMPACTION_DEFERRED_DELETE,
    WAL_CHECKPOINT, MANIFEST_GC, RECOVERY,
    RETRY_EXHAUSTED, READER_RESPAWN, PLANNER_CALIBRATION, BG_ERROR,
})


class Event:
    """One journal entry: ``(seq, kind, attrs)`` plus a monotonic stamp.

    ``seq`` starts at 1 and is assigned under the journal lock, so the
    sequence is gapless in emission order even when foreground writers
    and the background flusher interleave.  ``ts`` is a perf_counter
    reading — comparable within a process, meaningless across runs.
    """

    __slots__ = ("seq", "kind", "attrs", "ts")

    def __init__(self, seq: int, kind: str, attrs: Dict[str, object], ts: float):
        self.seq = seq
        self.kind = kind
        self.attrs = attrs
        self.ts = ts

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form (the ``GET /events`` payload)."""
        return {"seq": self.seq, "kind": self.kind,
                "ts": self.ts, "attrs": dict(self.attrs)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(seq={self.seq}, kind={self.kind!r}, attrs={self.attrs!r})"


class EventJournal:
    """Fixed-capacity ring of :class:`Event` with deterministic seq ids."""

    _GUARDED_BY = {"_events": "_lock", "_seq": "_lock"}

    def __init__(self, capacity: int = 2048, clock=None):
        if capacity <= 0:
            raise ValueError("journal capacity must be positive")
        self.capacity = capacity
        self._clock = clock if clock is not None else time.perf_counter
        self._lock = maybe_sanitize(threading.Lock(), "obs")
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0

    def emit(self, kind: str, **attrs) -> Event:
        """Append one event; returns it (callers mostly ignore this).

        Attr values should be JSON-scalar (str/int/float/bool) so the
        REST payload and the determinism diff stay trivial.
        """
        ts = self._clock()
        with self._lock:
            self._seq += 1
            event = Event(self._seq, kind, attrs, ts)
            self._events.append(event)
        return event

    def events(
        self, limit: Optional[int] = None, newest_first: bool = False,
    ) -> List[Event]:
        """Snapshot of retained events, oldest-first by default.

        ``limit`` keeps the *newest* N regardless of ordering — the
        journal is an operational log, so "the last N things that
        happened" is the only useful truncation.
        """
        with self._lock:
            snapshot = list(self._events)
        if limit is not None and limit >= 0:
            snapshot = snapshot[len(snapshot) - min(limit, len(snapshot)):]
        if newest_first:
            snapshot.reverse()
        return snapshot

    def last_seq(self) -> int:
        """Total events emitted (monotone even after ring eviction)."""
        return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class NullEventJournal:
    """Disabled-path journal: one no-op method call per emit."""

    capacity = 0

    def emit(self, kind: str, **attrs) -> None:
        pass

    def events(self, limit=None, newest_first=False) -> List[Event]:
        return []

    def last_seq(self) -> int:
        return 0

    def __len__(self) -> int:
        return 0


NULL_JOURNAL = NullEventJournal()
