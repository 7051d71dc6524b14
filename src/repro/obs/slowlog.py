"""Slow-query log: a threshold-gated ring buffer of query records.

The operational tool the paper's cloud deployment leans on: when p99
spikes, the first question is *which* queries were slow and *where*
the time went.  Every instrumented query path reports its effective
latency here; queries at or above ``threshold_seconds`` are retained
in a bounded ring (oldest evicted first) together with their trace id,
so a slow entry links straight to its span tree via
``GET /traces/<trace_id>`` (or ``/profiles/<trace_id>``, the same
document).

The caller passes the query's own :class:`~repro.obs.profile
.ProfileNode` stage to :meth:`SlowQueryLog.observe` and its rendered
subtree is embedded in the entry — answering *where the work went*
(distance evals, rows scanned, candidates pruned) without a second
run.  Memory stays bounded: the ring caps entries and each node caps
its own children (``MAX_CHILDREN_PER_NODE``).

Injected fault latency (see :meth:`FaultPlan.latency
<repro.storage.faults.FaultPlan.latency>`) is *accounted*, not slept;
callers fold it into the latency they report so chaos tests can assert
slow-path behaviour without slow tests.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.utils.sanitizer import maybe_sanitize

__all__ = ["SlowQuery", "SlowQueryLog", "NullSlowQueryLog", "NULL_SLOW_LOG"]


@dataclass
class SlowQuery:
    """One over-threshold query."""

    name: str                 #: instrumented operation, e.g. "cluster.search"
    seconds: float            #: effective latency (wall + accounted faults)
    threshold_seconds: float  #: the threshold in force when recorded
    trace_id: Optional[str] = None
    detail: Dict[str, object] = field(default_factory=dict)
    profile: Optional[Dict[str, object]] = None  #: rendered query stage

    def to_dict(self) -> Dict[str, object]:
        entry = {
            "name": self.name,
            "seconds": self.seconds,
            "threshold_seconds": self.threshold_seconds,
            "trace_id": self.trace_id,
            "detail": dict(self.detail),
        }
        if self.profile is not None:
            entry["profile"] = self.profile
        return entry


class SlowQueryLog:
    """Threshold filter + bounded ring of :class:`SlowQuery` records."""

    #: lock-discipline declaration consumed by tools/reprolint.
    _GUARDED_BY = {"_entries": "_lock", "observed": "_lock", "recorded": "_lock"}

    def __init__(self, threshold_seconds: float = 0.25, capacity: int = 128):
        if threshold_seconds < 0:
            raise ValueError("threshold_seconds must be >= 0")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold_seconds = threshold_seconds
        self.capacity = capacity
        self._lock = maybe_sanitize(threading.Lock(), "obs")
        self._entries: Deque[SlowQuery] = deque(maxlen=capacity)
        self.observed = 0  #: queries reported (fast + slow)
        self.recorded = 0  #: queries that crossed the threshold

    def observe(
        self,
        name: str,
        seconds: float,
        trace_id: Optional[str] = None,
        profile=None,
        **detail,
    ) -> bool:
        """Report one query's latency; True when it was slow (recorded).

        ``profile`` takes the query's stage (a
        :class:`~repro.obs.profile.ProfileNode`, or None); it is
        rendered to a dict only for queries that cross the threshold,
        so the fast path never pays for serialization.
        """
        slow = seconds >= self.threshold_seconds
        rendered = profile.document() if (slow and profile is not None) else None
        with self._lock:
            self.observed += 1
            if slow:
                self.recorded += 1
                self._entries.append(
                    SlowQuery(
                        name=name,
                        seconds=float(seconds),
                        threshold_seconds=self.threshold_seconds,
                        trace_id=trace_id,
                        detail=dict(detail),
                        profile=rendered,
                    )
                )
        return slow

    def entries(self) -> List[SlowQuery]:
        """Retained slow queries, oldest first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.observed = 0
            self.recorded = 0


class NullSlowQueryLog:
    """Slow-log stand-in when observability is off."""

    threshold_seconds = float("inf")
    capacity = 0
    observed = 0
    recorded = 0

    def observe(self, name, seconds, trace_id=None, profile=None, **detail) -> bool:
        return False

    def entries(self) -> List[SlowQuery]:
        return []

    def clear(self) -> None:
        pass


NULL_SLOW_LOG = NullSlowQueryLog()
