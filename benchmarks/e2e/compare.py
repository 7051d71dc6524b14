"""Compare two sets of runs of the served-path benchmark.

    python3 benchmarks/e2e/compare.py --base a1.json a2.json a3.json \\
                                      --change b1.json b2.json b3.json

Each file is what ``run.py --out`` wrote.  For every (metric, workload)
row this prints both medians, both quartile pairs and, for metrics with
a bound in ``BENCHMARK.json``, a verdict:

* ``regressed``  — the change's median is worse than the base's by more
  than the bound;
* ``unresolved`` — the run-to-run spread of either side (quartile
  distance over median) is wider than the bound, so the runs cannot
  tell, unless every run of the change reads better than every run of
  the base;
* ``unchanged``  — otherwise (an improvement also reads ``unchanged``:
  this tool gates regressions, it does not certify gains).

Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DECLARATION = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

Rows = Dict[Tuple[str, str], List[float]]


def load(paths: Sequence[str]) -> Rows:
    """(workload, metric) -> one value per run, nulls skipped."""
    rows: Rows = {}
    for path in paths:
        with open(path) as fh:
            for result in json.load(fh):
                for name, value in result["metrics"].items():
                    if value is not None:
                        rows.setdefault((result["workload"], name), []).append(value)
    return rows


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float,
) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    if base_median == 0 or change_median == 0:
        return "unresolved"

    def spread(values: Sequence[float], centre: float) -> float:
        q1, q3 = quartiles(values)
        return (q3 - q1) / abs(centre)

    if max(spread(base, base_median), spread(change, change_median)) > bound:
        all_better = max(sign * v for v in change) < min(sign * v for v in base)
        return "unchanged" if all_better else "unresolved"
    worsening = sign * (change_median - base_median) / abs(base_median)
    return "regressed" if worsening > bound else "unchanged"


def compare(base: Rows, change: Rows, decl: dict) -> Tuple[List[str], bool]:
    gates = {m["name"]: m for m in decl["end_to_end"]}
    order = {m["name"]: i for i, m in enumerate(
        decl["end_to_end"] + decl["per_layer"])}
    lines = [
        f"{'workload':<16} {'metric':<36} {'base med':>11} {'[q1, q3]':>24} "
        f"{'change med':>11} {'[q1, q3]':>24} {'delta':>8}  verdict"
    ]
    regressed = False
    keys = sorted(
        set(base) & set(change),
        key=lambda k: (k[0], order.get(k[1], len(order)), k[1]))
    for workload, metric in keys:
        a, b = base[workload, metric], change[workload, metric]
        med_a, med_b = statistics.median(a), statistics.median(b)
        delta = f"{100 * (med_b - med_a) / abs(med_a):+.1f}%" if med_a else "n/a"
        gate: Optional[dict] = gates.get(metric)
        word = verdict(a, b, gate["better"], gate["bound"]) if gate else "-"
        regressed |= word == "regressed"
        qa, qb = quartiles(a), quartiles(b)
        lines.append(
            f"{workload:<16} {metric:<36} {med_a:>11.5g} "
            f"{f'[{qa[0]:.5g}, {qa[1]:.5g}]':>24} {med_b:>11.5g} "
            f"{f'[{qb[0]:.5g}, {qb[1]:.5g}]':>24} {delta:>8}  {word}"
        )
    return lines, regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(DECLARATION) as fh:
        decl = json.load(fh)
    lines, regressed = compare(load(args.base), load(args.change), decl)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
