"""Plain-text tables/series formatted like the paper's figures report,
plus the uniform ``BENCH_<name>.json`` emitter.

Every benchmark ``main()`` funnels its measurements through
:func:`emit_bench_json` so all reports share one schema:

.. code-block:: json

    {"schema_version": 1, "name": "mixed_rw",
     "workload": {...fixed workload parameters...},
     "series": [{...identity keys..., "qps": ..., "counters": {...}}]}

Identity keys (mode, system, strategy, knob values) name a series
entry; measurement keys (``qps``, ``recall``, ``latency_seconds``,
``counters``, ...) carry the numbers.  ``tools/bench_compare.py``
matches entries across two reports by their identity keys and flags
throughput regressions, so keeping the identity keys stable across
runs is what makes the benchmark trajectory diffable.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

#: bumped when the BENCH json layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: series-entry keys that carry measurements rather than identity;
#: ``tools/bench_compare.py`` matches entries on everything else.
MEASUREMENT_KEYS = frozenset({
    "qps", "recall", "latency_seconds", "seconds",
    "p50", "p95", "p99", "speedup_vs_serial", "counters",
})


def _json_default(value: object):
    """Coerce numpy scalars/arrays so payloads stay json-serializable."""
    for attr in ("item",):
        if hasattr(value, attr):
            return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def emit_bench_json(
    name: str,
    workload: Dict[str, object],
    series: Sequence[Dict[str, object]],
    out_path: Optional[str] = None,
    **extra: object,
) -> Dict[str, object]:
    """Write ``BENCH_<name>.json`` and return the payload.

    ``series`` is a list of flat dicts mixing identity keys with
    measurement keys (see :data:`MEASUREMENT_KEYS`); ``extra`` lands
    top-level (e.g. ``bit_identical=True``).
    """
    payload: Dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "workload": dict(workload),
        "series": [dict(entry) for entry in series],
    }
    payload.update(extra)
    path = out_path or f"BENCH_{name}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
    print(f"  wrote {path}")
    return payload


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: Optional[str] = None
) -> str:
    """Monospace table with auto-sized columns."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(headers, rows, title=None) -> None:
    print(format_table(headers, rows, title))
    print()


def print_series(name: str, xs: Sequence[object], ys: Sequence[object]) -> None:
    """One figure series as aligned x/y pairs."""
    print(f"series: {name}")
    for x, y in zip(xs, ys):
        print(f"  {_fmt(x):>12} -> {_fmt(y)}")
    print()


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
