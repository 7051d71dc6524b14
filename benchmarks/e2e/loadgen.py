"""Load generator: the REST harness, closed and open loops, percentiles.

Every request enters the program as a JSON string and leaves as one:
``json.loads`` -> ``RestRouter.handle`` -> ``json.dumps``.  A request's
latency covers exactly that; building the request string and reading
the reply are the client's cost and stay outside.
"""

from __future__ import annotations

import json
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


class Request(NamedTuple):
    method: str
    path: str
    body: Optional[str]   #: JSON text, as it would arrive on a socket
    kind: str = "other"   #: "search" | "insert" | "delete" | ...


class Sample(NamedTuple):
    index: int      #: position in the request sequence that was sent
    start: float    #: closed loop: send time; open loop: *due* time
    sent: float
    end: float
    status: int
    reply: str


class RestHarness:
    """One in-process server reached only through JSON strings."""

    def __init__(self, router, tracer=None):
        self.router = router
        self.tracer = tracer

    def call(self, request: Request) -> Tuple[int, str]:
        if self.tracer is not None and self.tracer.enabled:
            return self._traced_call(request)
        body = json.loads(request.body) if request.body is not None else None
        response = self.router.handle(request.method, request.path, body)
        return response.status, json.dumps(response.body)

    def _traced_call(self, request: Request) -> Tuple[int, str]:
        tracer = self.tracer
        with tracer.request(request.kind):
            with tracer.span("codec.json"):
                body = (
                    json.loads(request.body) if request.body is not None else None
                )
            response = self.router.handle(request.method, request.path, body)
            with tracer.span("codec.json"):
                reply = json.dumps(response.body)
        return response.status, reply


def closed_loop(
    call: Callable[[Request], Tuple[int, str]],
    requests: Sequence[Request],
    should_stop: Callable[[], bool],
    first: int = 0,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Sample]:
    """One client: the next request goes out when the last one returns.

    Cycles through ``requests`` from position ``first`` until
    ``should_stop()``; always sends at least one request.
    """
    samples = []
    index = first
    while True:
        request = requests[index % len(requests)]
        start = clock()
        status, reply = call(request)
        end = clock()
        samples.append(Sample(index, start, start, end, status, reply))
        index += 1
        if should_stop():
            return samples


def run_for(seconds: float, clock=time.perf_counter) -> Callable[[], bool]:
    deadline = clock() + seconds
    return lambda: clock() >= deadline


def open_loop(
    call: Callable[[Request], Tuple[int, str]],
    schedule: Sequence[Tuple[float, Request]],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Sample]:
    """Send each request at its due offset, however late the last one was.

    ``schedule`` is ``(seconds after start, request)`` in send order.
    A sample's ``start`` is the *due* time, so its latency includes the
    wait a stall imposed on it; ``sent - start`` is the generator's
    lateness.
    """
    samples = []
    origin = clock()
    for index, (offset, request) in enumerate(schedule):
        due = origin + offset
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        status, reply = call(request)
        samples.append(Sample(index, due, sent, clock(), status, reply))
    return samples


def latencies_ms(samples: Sequence[Sample]) -> np.ndarray:
    return np.array([(s.end - s.start) * 1e3 for s in samples])


def time_slices(samples: Sequence[Sample], n: int) -> List[List[Sample]]:
    """The samples of ``n`` equal spans of time, by completion time.

    A statistic taken per slice and then as the median over slices
    gives every second of the window the same weight (a closed loop
    otherwise over-samples its fast stretches) and shrugs off a slow
    stretch that a mean over the window would absorb.
    """
    origin = samples[0].start
    width = (samples[-1].end - origin) / n
    slices: List[List[Sample]] = [[] for __ in range(n)]
    for sample in samples:
        slices[min(int((sample.end - origin) / width), n - 1)].append(sample)
    return slices


def percentile(values, pct: float, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The ``pct``-th percentile, or None with < ``min_beyond`` samples beyond it."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return None
    value = float(np.percentile(values, pct))
    if int((values > value).sum()) < min_beyond:
        return None
    return value
