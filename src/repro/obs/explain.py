"""EXPLAIN: the planner dump for one collection search.

:func:`explain_search` answers "what *would* this query do" without
(or alongside) running it: which segments are selected vs. skipped and
why, which index (and parameters) serves each segment vs. a
brute-force scan, which filter strategy and knobs the collection's
calibrated planner (:mod:`repro.filtering.cost`) picks for the given
selectivity, and — when a
:class:`~repro.hetero.scheduler.SegmentScheduler` is passed — which
device the greedy least-finish-time policy would pick per segment.  The dump is a plain JSON-safe dict, served over REST as
``POST /explain``.

``search(..., explain=True)`` pairs this plan with the executed
:class:`~repro.obs.profile.QueryProfile` (the ANALYZE half) in an
:class:`ExplainedResult`, and the filter section is then the plan the
search ran, as it recorded it — not a second planning pass.  Both
halves work with observability off — the profiler *store* is the only
part gated on ``REPRO_OBS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.obs.profile import QueryProfile

__all__ = ["ExplainedResult", "explain_search", "filter_section"]


@dataclass
class ExplainedResult:
    """EXPLAIN ANALYZE output: results + plan + executed profile."""

    result: object            #: the SearchResult the query produced
    plan: Dict[str, object]   #: :func:`explain_search` dump
    profile: QueryProfile     #: work counters / stage timings

    def to_dict(self) -> Dict[str, object]:
        return {"plan": self.plan, "profile": self.profile.to_dict()}

    def estimated_vs_actual(self) -> Dict[str, Dict[str, float]]:
        """Calibrated counter estimates against executed counters.

        Only meaningful for filtered searches (the plan then carries
        ``filter.estimated_counters``); empty otherwise.  The
        per-counter ``relative_error`` is what the calibration
        acceptance gate tracks toward +/-20%.
        """
        section = self.plan.get("filter") or {}
        estimated = section.get("estimated_counters") or {}
        actual = self.profile.total_counters()
        out: Dict[str, Dict[str, float]] = {}
        for key, value in estimated.items():
            if not isinstance(value, (int, float)):
                continue
            measured = float(actual.get(key, 0))
            out[key] = {
                "estimated": float(value),
                "actual": measured,
                "relative_error": (
                    abs(float(value) - measured) / measured
                    if measured else float("inf")
                ),
            }
        return out


def _segment_plan(segment, field: str, tombstones, admissible) -> Dict[str, object]:
    """Plan entry for one segment: index choice + selected/skipped."""
    rows = int(segment.num_rows)
    dead = int(segment.contains_mask(tombstones).sum()) if len(tombstones) else 0
    live = rows - dead
    entry: Dict[str, object] = {
        "segment_id": int(segment.segment_id),
        "rows": rows,
        "live_rows": live,
    }
    index = segment.indexes.get(field)
    if index is not None:
        stats = index.stats()
        entry["plan"] = f"index:{index.index_type}"
        entry["index"] = {
            key: value for key, value in stats.items()
            if isinstance(value, (int, float, str, bool))
        }
        for param in ("nlist", "nprobe", "m", "ef_construction", "n_trees"):
            value = getattr(index, param, None)
            if isinstance(value, int):
                entry["index"][param] = value
    else:
        entry["plan"] = "brute_force"
    if admissible is not None:
        entry["admissible_rows"] = int(segment.contains_mask(admissible).sum())
    if rows == 0:
        entry["selected"], entry["reason"] = False, "empty segment"
    elif live == 0:
        entry["selected"], entry["reason"] = False, "all rows tombstoned"
    elif admissible is not None and entry["admissible_rows"] == 0:
        entry["selected"], entry["reason"] = False, "no admissible rows under filter"
    else:
        entry["selected"] = True
    return entry


def filter_section(planner, qplan, filter, admissible_rows: int,
                   nq: int) -> Dict[str, object]:
    """The filter section for one planned query: selectivity, the
    calibrated and analytical cost per strategy, the strategy and knobs
    picked, the predicted work counters and the calibration residuals.
    """
    return {
        "spec": list(filter),
        "admissible_rows": int(admissible_rows),
        "selectivity": qplan.passing_fraction,
        "cost_model": {
            "A": qplan.estimated.a, "B": qplan.estimated.b,
            "C": qplan.estimated.c,
        },
        "analytical_cost": {
            "A": qplan.raw.a, "B": qplan.raw.b, "C": qplan.raw.c,
        },
        "recommended": qplan.strategy,
        "executed": qplan.strategy,
        "knobs": qplan.knobs(),
        # scaled to the batch so they compare 1:1 with the executed
        # profile's counters in estimated_vs_actual().
        "estimated_counters": {
            name: value * nq
            for name, value in planner.estimated_counters(qplan).items()
        },
        "calibration": planner.residuals(),
    }


def _hetero_plan(scheduler, segments, field: str, nq: int) -> Dict[str, object]:
    """Simulated greedy least-finish-time dispatch, without side effects.

    Residency is read but never mutated, so planning a query does not
    move the real scheduler's clock or device memory — repeated
    EXPLAINs are idempotent.
    """
    from repro.hetero.scheduler import SearchTask

    devices = scheduler.devices()
    busy = scheduler.device_loads()
    assignments: List[Dict[str, object]] = []
    for segment in segments:
        task = SearchTask(
            segment_id=int(segment.segment_id),
            nbytes=int(segment.memory_bytes()),
            m=nq,
            n=int(segment.num_rows),
            dim=int(next(iter(segment.vectors.values())).shape[1]),
        )
        best = None
        for dev_id, device in devices.items():
            end = busy[dev_id] + scheduler.task_cost(device, task)
            if best is None or end < best[0]:
                best = (end, dev_id)
        end, dev_id = best
        busy[dev_id] = end
        assignments.append({
            "segment_id": task.segment_id,
            "device": f"gpu-{dev_id}",
            "end_seconds": end,
        })
    return {
        "num_devices": len(devices),
        "assignments": assignments,
        "makespan_seconds": max(busy.values(), default=0.0),
    }


def explain_search(
    collection,
    field: str,
    queries: Optional[np.ndarray] = None,
    k: int = 10,
    filter=None,
    scheduler=None,
    profile: Optional[QueryProfile] = None,
    **search_params,
) -> Dict[str, object]:
    """The planner dump for one :meth:`Collection.search` call.

    ``profile`` is the executed search's profile, when there is one:
    its recorded filter plan is reported as is.  Without it the filter
    is resolved and planned here, once.
    """
    spec = collection.schema.vector_field(field)
    nq = len(np.atleast_2d(np.asarray(queries))) if queries is not None else 1
    snap = collection._lsm.snapshot()
    try:
        segments = [
            collection._lsm.bufferpool.get(seg_id) for seg_id in snap.segment_ids
        ]
        section = admissible = None
        if filter is not None:
            if profile is not None:
                section = profile.root.attrs.get("adaptive_plan")
            if section is None:
                admissible = collection._filter_rows(filter, snap)
                qplan, __, __ = collection._plan_filtered(
                    field, k, len(admissible), snap
                )
                section = filter_section(
                    collection.planner, qplan, filter, len(admissible), nq
                )
        segment_entries = [
            _segment_plan(segment, field, snap.tombstones, admissible)
            for segment in segments
        ]
        plan: Dict[str, object] = {
            "collection": collection.schema.name,
            "field": field,
            "metric": spec.metric,
            "k": int(k),
            "nq": nq,
            "params": {key: value for key, value in search_params.items()},
            "segments": segment_entries,
            "segments_selected": sum(e["selected"] for e in segment_entries),
            "segments_skipped": sum(not e["selected"] for e in segment_entries),
            "filter": section,
        }
        if scheduler is not None:
            selected = [
                segment for segment, entry in zip(segments, segment_entries)
                if entry["selected"]
            ]
            plan["hetero"] = _hetero_plan(scheduler, selected, field, nq)
        return plan
    finally:
        collection._lsm.release(snap)
