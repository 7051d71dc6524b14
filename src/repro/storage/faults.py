"""Deterministic fault injection for the storage layer.

The paper's durability claims (Sec. 5.1/5.3: WAL-first
acknowledgement, Aurora-style log shipping, disposable readers
respawned from shared storage) are only testable if failures can be
*scripted*.  :class:`FaultyFileSystem` wraps any :class:`FileSystem`
and executes a :class:`FaultPlan` — a small, seeded DSL of fault
rules, each scoped by operation kind and path glob:

* **torn writes and appends** — persist only the first N bytes of
  the payload, then (by default) raise :class:`SimulatedCrash`,
  modelling a crash mid-write; a torn append leaves the object's
  earlier bytes plus that prefix;
* **transient errors** — raise ``IOError`` (or any exception class)
  on the Nth matching op, for a bounded number of ops, *before* the
  op executes — the shape retries must survive;
* **read-side corruption** — flip seeded-random bits in the returned
  payload, the shape checksums must catch;
* **crash points** — let the op land fully, then raise
  :class:`SimulatedCrash`, modelling a crash between two durable
  steps (e.g. "manifest persisted but WAL not yet truncated"); or
  raise *before* the op lands (``crash_before``), modelling a crash
  in the gap between deciding to persist and persisting (e.g. "memtable
  frozen, segment file never written");
* **stall gates** — park the matching op on a :class:`threading.Event`
  pair until the test releases it, so concurrency proofs ("insert
  returns while the background flush is still mid-write") are exact
  schedules rather than sleep-and-hope timing;
* **injected latency** — account (not sleep) per-op delay so tests
  can assert slow-path behaviour without slow tests.

Every random draw comes from the plan's own ``random.Random(seed)``,
so a fault schedule replays byte-identically.  The chaos suite
(``tests/test_chaos.py``) asserts the engine's core invariant against
these plans: no acknowledged write is ever lost.
"""

from __future__ import annotations

import fnmatch
import threading
from dataclasses import dataclass, field
from random import Random
from typing import List, Optional, Tuple, Type

from repro.storage.filesystem import FileSystem
from repro.utils.sanitizer import maybe_sanitize

__all__ = [
    "SimulatedCrash", "FaultRule", "FaultPlan", "FaultyFileSystem", "StallGate",
]

#: operation kinds a rule may scope to ("*" matches all of them).
OP_KINDS = ("write", "append", "read", "delete", "listdir", "exists")


class SimulatedCrash(Exception):
    """A scripted process crash: the op may or may not have landed.

    Raised by :class:`FaultyFileSystem` at crash points and after torn
    writes.  Engine code must never catch this — the chaos harness
    catches it at the top, discards the "process" (the manager
    object), and recovers a fresh one from the surviving filesystem
    state, exactly like a real crash-restart cycle.
    """

    def __init__(self, op: str, path: str, detail: str = ""):
        self.op = op
        self.path = path
        super().__init__(f"simulated crash during {op}({path!r})"
                         + (f": {detail}" if detail else ""))


class StallGate:
    """Event pair that freezes an op at a known point until released.

    The faulty filesystem sets ``reached`` when the matching op arrives
    and then blocks on ``release`` (outside the plan lock, so other
    threads' I/O proceeds).  Tests sequence exact interleavings:
    ``gate.reached.wait()`` — the flush is now provably in flight —
    do concurrent work, assert, then ``gate.release.set()``.

    ``max_wait`` bounds the park so a test bug degrades into a slow
    pass-through rather than a hung suite.
    """

    def __init__(self, max_wait: float = 30.0):
        self.reached = threading.Event()
        self.release = threading.Event()
        self.max_wait = max_wait

    def park(self) -> None:
        self.reached.set()
        self.release.wait(self.max_wait)


@dataclass
class FaultRule:
    """One scripted fault, scoped by op kind + path glob + match count.

    The rule fires on matching ops number ``nth`` through
    ``nth + times - 1`` (1-based; ``times=None`` means forever after).
    ``seen``/``fired`` are runtime counters, exposed so tests can
    assert a schedule actually triggered.
    """

    kind: str                 #: torn-write | error | corrupt-read | crash-after | crash-before | stall | latency
    op: str                   #: one of OP_KINDS or "*"
    glob: str                 #: path pattern (fnmatch)
    nth: int = 1
    times: Optional[int] = 1
    truncate_at: int = 0      #: torn-write: bytes of payload that land
    crash: bool = True        #: torn-write: raise SimulatedCrash after
    exc_type: Type[Exception] = IOError
    flip_bits: int = 1        #: corrupt-read: number of bit flips
    seconds: float = 0.0      #: latency: injected (accounted) delay
    gate: Optional[StallGate] = None  #: stall: the event pair to park on
    seen: int = 0
    fired: int = 0

    def matches(self, op: str, path: str) -> bool:
        return self.op in ("*", op) and fnmatch.fnmatchcase(path, self.glob)

    def _tick(self) -> bool:
        """Count one matching op; True when the rule fires on it."""
        self.seen += 1
        active = self.seen >= self.nth and (
            self.times is None or self.seen < self.nth + self.times
        )
        if active:
            self.fired += 1
        return active


class FaultPlan:
    """A seeded, ordered schedule of :class:`FaultRule`\\ s.

    Builder methods append rules and return them (handy for asserting
    ``rule.fired`` afterwards).  Rules are evaluated in registration
    order; at most one torn-write rule applies per write.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rules: List[FaultRule] = []
        self._rng = Random(seed)

    def _add(self, rule: FaultRule) -> FaultRule:
        if rule.op != "*" and rule.op not in OP_KINDS:
            raise ValueError(f"unknown op kind {rule.op!r}")
        self.rules.append(rule)
        return rule

    def torn_write(
        self, glob: str, truncate_at: int, nth: int = 1, crash: bool = True,
        op: str = "write",
    ) -> FaultRule:
        """Truncate the payload of the nth matching ``op`` at ``truncate_at``.

        ``op`` is ``"write"`` or ``"append"``.
        """
        if op not in ("write", "append"):
            raise ValueError(f"only writes and appends tear, not {op!r}")
        return self._add(FaultRule(
            kind="torn-write", op=op, glob=glob, nth=nth,
            truncate_at=truncate_at, crash=crash,
        ))

    def fail(
        self,
        glob: str,
        op: str = "write",
        nth: int = 1,
        times: Optional[int] = 1,
        exc_type: Type[Exception] = IOError,
    ) -> FaultRule:
        """Raise ``exc_type`` before matching ops nth..nth+times-1 execute."""
        return self._add(FaultRule(
            kind="error", op=op, glob=glob, nth=nth, times=times,
            exc_type=exc_type,
        ))

    def corrupt_read(
        self, glob: str, nth: int = 1, times: Optional[int] = 1, flip_bits: int = 1
    ) -> FaultRule:
        """Flip seeded-random bits in the payload returned by a read."""
        return self._add(FaultRule(
            kind="corrupt-read", op="read", glob=glob, nth=nth, times=times,
            flip_bits=flip_bits,
        ))

    def crash_after(self, glob: str, op: str = "write", nth: int = 1) -> FaultRule:
        """Let the nth matching op land, then raise SimulatedCrash."""
        return self._add(FaultRule(kind="crash-after", op=op, glob=glob, nth=nth))

    def crash_before(self, glob: str, op: str = "write", nth: int = 1) -> FaultRule:
        """Raise SimulatedCrash *before* the nth matching op executes.

        Models dying in the gap between two durable steps — e.g. the
        memtable froze and the background flusher was about to persist
        the segment, but the file never hit storage.
        """
        return self._add(FaultRule(kind="crash-before", op=op, glob=glob, nth=nth))

    def stall(
        self, glob: str, op: str = "write", nth: int = 1,
        times: Optional[int] = 1, max_wait: float = 30.0,
    ) -> FaultRule:
        """Park matching ops on a :class:`StallGate` until released.

        Returns the rule; use ``rule.gate.reached.wait()`` /
        ``rule.gate.release.set()`` to sequence the interleaving.
        """
        return self._add(FaultRule(
            kind="stall", op=op, glob=glob, nth=nth, times=times,
            gate=StallGate(max_wait=max_wait),
        ))

    def latency(
        self, glob: str, op: str = "*", seconds: float = 0.05,
        times: Optional[int] = None,
    ) -> FaultRule:
        """Account ``seconds`` of injected delay on matching ops."""
        return self._add(FaultRule(
            kind="latency", op=op, glob=glob, times=times, seconds=seconds,
        ))

    def corruption_positions(self, length: int, flips: int) -> List[Tuple[int, int]]:
        """Seeded (byte index, bit mask) pairs for one corruption event."""
        return [
            (self._rng.randrange(length), 1 << self._rng.randrange(8))
            for __ in range(flips)
        ]


class FaultyFileSystem(FileSystem):
    """A :class:`FileSystem` decorator that executes a :class:`FaultPlan`.

    Wraps any backend; ops with no matching rule pass straight
    through.  ``fault_log`` records every fired fault as
    ``(kind, op, path)`` so tests can assert the schedule ran.
    I/O counters delegate to the wrapped backend.
    """

    #: lock-discipline declaration consumed by tools/reprolint.
    _GUARDED_BY = {
        "fault_log": "_lock",
        "injected_latency_seconds": "_lock",
    }

    def __init__(self, inner: FileSystem, plan: Optional[FaultPlan] = None):
        self.inner = inner
        self.plan = plan if plan is not None else FaultPlan()
        self.fault_log: List[Tuple[str, str, str]] = []
        self.injected_latency_seconds = 0.0
        # Leaf-ish lock: held only around rule-matching and bookkeeping,
        # never across calls into the wrapped backend (role order:
        # faults -> fs would otherwise pin the backend under it).
        self._lock = maybe_sanitize(threading.Lock(), "faults")

    # -- rule evaluation --------------------------------------------------

    def _fired_rules(self, op: str, path: str) -> List[FaultRule]:
        with self._lock:
            fired = [
                rule for rule in self.plan.rules
                if rule.matches(op, path) and rule._tick()
            ]
            for rule in fired:
                self.fault_log.append((rule.kind, op, path))
                if rule.kind == "latency":
                    self.injected_latency_seconds += rule.seconds
            return fired

    @staticmethod
    def _raise_errors(fired: List[FaultRule], op: str, path: str) -> None:
        for rule in fired:
            if rule.kind == "error":
                raise rule.exc_type(f"injected transient fault on {op}({path!r})")

    @staticmethod
    def _raise_crashes(fired: List[FaultRule], op: str, path: str) -> None:
        for rule in fired:
            if rule.kind == "crash-after":
                raise SimulatedCrash(op, path)

    @staticmethod
    def _raise_crash_before(fired: List[FaultRule], op: str, path: str) -> None:
        for rule in fired:
            if rule.kind == "crash-before":
                raise SimulatedCrash(op, path, "before op executed")

    @staticmethod
    def _park_stalls(fired: List[FaultRule]) -> None:
        """Block on any stall gates — outside the plan lock, so other
        threads' I/O (and the releasing test thread) keep running."""
        for rule in fired:
            if rule.kind == "stall" and rule.gate is not None:
                rule.gate.park()

    # -- FileSystem interface ---------------------------------------------

    def _store(self, op: str, land, path: str, data: bytes) -> None:
        """``write`` and ``append``: same faults; ``land`` is the inner op."""
        fired = self._fired_rules(op, path)
        self._raise_errors(fired, op, path)
        self._raise_crash_before(fired, op, path)
        self._park_stalls(fired)
        torn = next((r for r in fired if r.kind == "torn-write"), None)
        if torn is not None:
            land(path, bytes(data[: torn.truncate_at]))
            if torn.crash:
                raise SimulatedCrash(
                    op, path, f"torn at byte {torn.truncate_at} of {len(data)}",
                )
            return
        land(path, data)
        self._raise_crashes(fired, op, path)

    def write(self, path: str, data: bytes) -> None:
        self._store("write", self.inner.write, path, data)

    def append(self, path: str, data: bytes) -> None:
        self._store("append", self.inner.append, path, data)

    def read(self, path: str) -> bytes:
        fired = self._fired_rules("read", path)
        self._raise_errors(fired, "read", path)
        self._raise_crash_before(fired, "read", path)
        self._park_stalls(fired)
        data = self.inner.read(path)
        corruptors = [r for r in fired if r.kind == "corrupt-read"]
        if corruptors and len(data):
            mutable = bytearray(data)
            with self._lock:
                for rule in corruptors:
                    for idx, mask in self.plan.corruption_positions(
                        len(mutable), rule.flip_bits
                    ):
                        mutable[idx] ^= mask
            data = bytes(mutable)
        self._raise_crashes(fired, "read", path)
        return data

    def exists(self, path: str) -> bool:
        fired = self._fired_rules("exists", path)
        self._raise_errors(fired, "exists", path)
        self._raise_crash_before(fired, "exists", path)
        found = self.inner.exists(path)
        self._raise_crashes(fired, "exists", path)
        return found

    def delete(self, path: str) -> None:
        fired = self._fired_rules("delete", path)
        self._raise_errors(fired, "delete", path)
        self._raise_crash_before(fired, "delete", path)
        self.inner.delete(path)
        self._raise_crashes(fired, "delete", path)

    def listdir(self, prefix: str) -> List[str]:
        fired = self._fired_rules("listdir", prefix)
        self._raise_errors(fired, "listdir", prefix)
        listing = self.inner.listdir(prefix)
        self._raise_crashes(fired, "listdir", prefix)
        return listing

    # -- delegated accounting ---------------------------------------------

    @property
    def bytes_written(self) -> int:
        return self.inner.bytes_written

    @property
    def bytes_read(self) -> int:
        return self.inner.bytes_read

    def reset_counters(self) -> None:
        self.inner.reset_counters()

    def faults_fired(self, kind: Optional[str] = None) -> int:
        with self._lock:
            if kind is None:
                return len(self.fault_log)
            return sum(1 for entry in self.fault_log if entry[0] == kind)
