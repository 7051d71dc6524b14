"""Plain-text tables/series formatted like the paper's figures report."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


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
