"""Per-layer metrics: wrap targets, and what the spans add up to.

Layer names are the program's module names.  A metric whose target
never fired in the window is ``None`` — "not exercised", which is a
different statement from "took 0 µs".
"""

from __future__ import annotations

from statistics import median
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from trace import Span, self_times

#: (span name, public callable).  "metrics.pairwise" has three bindings:
#: a ``from ... import`` copies the function into the importing module,
#: so it is wrapped in each module that calls it on the search path.
TARGETS: Tuple[Tuple[str, str], ...] = (
    # read path
    ("client.rest", "repro.client.rest:RestRouter.handle"),
    ("client.sdk", "repro.client.sdk:MilvusClient.search"),
    ("core.collection", "repro.core.collection:Collection.search"),
    ("storage.attributes", "repro.storage.segment:Segment.attribute_range"),
    ("storage.lsm", "repro.storage.lsm:LSMManager.search"),
    ("storage.bufferpool", "repro.storage.bufferpool:BufferPool.get"),
    ("exec", "repro.exec.executor:QueryExecutor.map_ordered"),
    ("storage.segment", "repro.storage.segment:Segment.search"),
    ("index", "repro.index.base:VectorIndex.search"),
    ("index.coarse", "repro.index.ivf_common:IVFIndexBase.select_buckets"),
    ("metrics.pairwise", "repro.index.ivf_flat:l2_squared_pairwise"),
    ("metrics.pairwise", "repro.storage.segment:l2_squared_pairwise"),
    # ... and where Metric.pairwise resolves it (row-filtered bucket scans)
    ("metrics.pairwise", "repro.metrics.dense:l2_squared_pairwise"),
    ("utils.topk", "repro.storage.lsm:merge_topk_batch"),
    # write path
    ("client.sdk.insert", "repro.client.sdk:MilvusClient.insert"),
    ("core.collection.insert", "repro.core.collection:Collection.insert"),
    ("storage.lsm.insert", "repro.storage.lsm:LSMManager.insert"),
    ("storage.wal.append", "repro.storage.wal:WriteAheadLog.append_insert"),
    ("storage.memtable.insert", "repro.storage.memtable:MemTable.insert"),
    ("storage.memtable.to_segment", "repro.storage.memtable:MemTable.to_segment"),
    ("storage.segment.merge", "repro.storage.segment:Segment.merge"),
    ("storage.segment.build_index", "repro.storage.segment:Segment.build_index"),
    ("storage.segment.to_bytes", "repro.storage.segment:Segment.to_bytes"),
    ("storage.segment.from_bytes", "repro.storage.segment:Segment.from_bytes"),
    ("storage.filesystem", "repro.storage.filesystem:LocalFileSystem.write"),
)

#: read-path layers reported as ``<layer>.self_us`` on search requests
READ_LAYERS = (
    "codec.json", "client.rest", "client.sdk", "core.collection",
    "storage.attributes", "storage.lsm", "storage.bufferpool", "exec",
    "storage.segment", "index", "index.coarse", "metrics.pairwise",
    "utils.topk",
)
#: metric name -> span name, self time on insert requests
INSERT_SELF = {
    "codec.json.insert_us": "codec.json",
    "client.rest.insert_self_us": "client.rest",
    "client.sdk.insert_self_us": "client.sdk.insert",
    "core.collection.insert_self_us": "core.collection.insert",
    "storage.lsm.insert_self_us": "storage.lsm.insert",
}
#: metric name -> span name, median duration of one call
CALL_DURATION = {
    "storage.wal.append_us": "storage.wal.append",
    "storage.memtable.insert_us": "storage.memtable.insert",
}
#: the span that opens each kind of background work inside an insert:
#: from a marker's start to the next marker (or the insert's end) the
#: writer is doing that work, whatever helpers it calls on the way
STALL_MARKERS = {
    "storage.memtable.to_segment": "flush",
    "storage.segment.merge": "merge",
    "storage.segment.build_index": "build",
}

_US = 1e6


def stall_phases(insert: Span, inside: Iterable[Span]) -> Dict[str, float]:
    """Seconds of flush / merge / build work inside one ``lsm.insert``.

    Empty when the insert contains no marker (it did not stall).
    """
    markers = sorted(
        (s.start, STALL_MARKERS[s.name]) for s in inside
        if s.name in STALL_MARKERS
    )
    phases: Dict[str, float] = {}
    for (start, phase), nxt in zip(markers, markers[1:] + [(insert.end, "")]):
        phases[phase] = phases.get(phase, 0.0) + (nxt[0] - start)
    return phases


def analyse(
    spans: List[Span], kinds: Dict[int, str], window: Tuple[float, float],
) -> Tuple[Dict[str, Optional[float]], Dict[str, float], Dict[str, int]]:
    """(per-layer metrics, layer share of search-request time, sample
    counts of the medians).

    Only requests whose root span starts inside ``window`` count.
    """
    selfs = self_times(spans)
    lo, hi = window
    roots = {
        s.rid: s for s in spans
        if s.name == "request" and s.parent is None and lo <= s.start <= hi
    }
    by_request: Dict[int, List[Span]] = {rid: [] for rid in roots}
    for s in spans:
        if s.rid in by_request and s.name != "request":
            by_request[s.rid].append(s)

    def per_request_self(kind: str) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for rid, members in by_request.items():
            if kinds.get(rid) != kind:
                continue
            sums: Dict[str, float] = {}
            for s in members:
                sums[s.name] = sums.get(s.name, 0.0) + selfs[s.sid]
            for name, value in sums.items():
                out.setdefault(name, []).append(value)
        return out

    m: Dict[str, Optional[float]] = {}
    counts: Dict[str, int] = {}

    def add_median_us(metric: str, seconds: Sequence[float]) -> None:
        m[metric] = median(seconds) * _US if seconds else None
        if seconds:
            counts[metric] = len(seconds)

    # -- read path ------------------------------------------------------
    search_self = per_request_self("search")
    for layer in READ_LAYERS:
        add_median_us(f"{layer}.self_us", search_self.get(layer, ()))
    search_rids = [rid for rid in roots if kinds.get(rid) == "search"]
    calls, overhead = [], []
    for rid in search_rids:
        members = by_request[rid]
        n_pairwise = sum(1 for s in members if s.name == "metrics.pairwise")
        if n_pairwise:
            calls.append(n_pairwise)
        index_incl = sum(s.end - s.start for s in members if s.name == "index")
        total = roots[rid].end - roots[rid].start
        if index_incl and total > 0:
            overhead.append((total - index_incl) / total)
    m["metrics.pairwise.calls"] = median(calls) if calls else None
    m["stack.overhead_ratio"] = median(overhead) if overhead else None

    search_total = sum(roots[r].end - roots[r].start for r in search_rids)
    share = {}
    if search_total > 0:
        for layer, values in search_self.items():
            share[layer] = sum(values) / search_total

    # -- write path -----------------------------------------------------
    insert_self = per_request_self("insert")
    for metric, span_name in INSERT_SELF.items():
        add_median_us(metric, insert_self.get(span_name, ()))
    in_window = [s for rid in roots for s in by_request[rid]]
    for metric, span_name in CALL_DURATION.items():
        add_median_us(
            metric, [s.end - s.start for s in in_window if s.name == span_name])

    def total_s(span_name: str) -> Optional[float]:
        durations = [s.end - s.start for s in in_window if s.name == span_name]
        return sum(durations) if durations else None

    m["storage.segment.to_bytes_s"] = total_s("storage.segment.to_bytes")
    m["storage.segment.from_bytes_s"] = total_s("storage.segment.from_bytes")
    lsm_inserts = [s for s in in_window if s.name == "storage.lsm.insert"]
    fired = bool(lsm_inserts)

    def count(span_name: str) -> Optional[int]:
        # a zero beside inserts that did fire is a measurement, not a gap
        n = sum(1 for s in in_window if s.name == span_name)
        return n if n or fired else None

    m["storage.filesystem.writes"] = count("storage.filesystem")
    m["index.build_count"] = count("storage.segment.build_index")
    phase_s = {"flush": 0.0, "merge": 0.0, "build": 0.0}
    stalled = 0
    for ins in lsm_inserts:
        inside = [
            s for s in by_request[ins.rid]
            if ins.start <= s.start and s.end <= ins.end and s.sid != ins.sid
        ]
        phases = stall_phases(ins, inside)
        if phases:
            stalled += 1
            for phase, seconds in phases.items():
                phase_s[phase] += seconds
    m["storage.lsm.stalled_inserts"] = stalled if fired else None
    m["storage.lsm.stall_s"] = sum(phase_s.values()) if fired else None
    m["storage.lsm.flush_s"] = phase_s["flush"] if fired else None
    m["storage.lsm.merge_s"] = phase_s["merge"] if fired else None
    m["index.build_s"] = phase_s["build"] if fired else None

    # -- the tracer itself ------------------------------------------------
    root_total = sum(r.end - r.start for r in roots.values())
    root_self = sum(selfs[r.sid] for r in roots.values())
    m["trace.coverage"] = 1.0 - root_self / root_total if root_total else None
    m["trace.spans"] = len(spans)
    return m, share, counts
