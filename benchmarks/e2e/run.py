"""Served-path benchmark: one command, every metric, outputs checked.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--trace]

Each workload runs in a fresh child process whose environment has every
``REPRO_*`` variable removed, so the program runs on its defaults.  The
untraced run prints the end-to-end metrics; ``--trace`` repeats the
workload with the span wrappers installed and prints the per-layer
metrics.  With one ``--workload`` the last line of standard output is
the JSON object ``BENCHMARK.json``'s contract describes.  The exit code
is non-zero when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DECLARATION = os.path.join(ROOT, "BENCHMARK.json")
#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def declaration() -> dict:
    with open(DECLARATION) as fh:
        return json.load(fh)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="install the span wrappers and print the per-layer metrics")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small N and 2 s windows: exercises everything in seconds")
    parser.add_argument("--out", help="also write the full results here (JSON)")
    parser.add_argument(
        "--check", action="store_true",
        help="verify emitted names against BENCHMARK.json and exit")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- the child: one workload, in this process ------------------------------------

def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import worker
    from workloads import FULL, SMOKE, WORKLOADS

    run = worker.Run(
        WORKLOADS[args.workload], SMOKE if args.smoke else FULL,
        args.seed, args.seconds, bool(args.trace))
    print(json.dumps(run.execute()))
    return 0


# -- the parent -------------------------------------------------------------------

def scrubbed_env() -> Dict[str, str]:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def run_child(name: str, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    try:
        # subprocess.run kills the child and waits for it on a timeout
        done = subprocess.run(
            command, env=scrubbed_env(), stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, check=True, text=True,
        )
    except subprocess.CalledProcessError as exc:
        raise SystemExit(f"{name}: child exited with status {exc.returncode}")
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared_metrics(decl: dict, trace: int) -> List[dict]:
    return decl["per_layer" if trace else "end_to_end"]


def contract_line(result: dict, decl: dict) -> dict:
    """The driver's result object: every declared metric, as a number.

    A per-layer metric that never fired is ``null`` everywhere else in
    this benchmark's output; the contract wants numbers, so here (and
    only here) it reads 0.
    """
    trace = int(result["trace"])
    metrics = {}
    for entry in declared_metrics(decl, trace):
        value = result["metrics"].get(entry["name"])
        if value is None:
            if not trace:
                raise SystemExit(
                    f"{result['workload']}: end-to-end metric "
                    f"{entry['name']} has no value")
            value = 0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_result(result: dict, decl: dict) -> None:
    trace = int(result["trace"])
    env = result["env"]
    print(
        f"== {result['workload']} ({result['profile']}, seed {env['seed']}, "
        f"{result['seconds']:g} s window, "
        f"{'traced' if trace else 'untraced'}; nproc {env['nproc']}, "
        f"python {env['python']}, numpy {env['numpy']})"
    )
    entries = declared_metrics(decl, trace)
    if not trace:
        # per-layer metrics the untraced run measures anyway (set-up
        # phases, the tail, the generator's lateness): shown, not gated
        entries = entries + [
            e for e in decl["per_layer"]
            if result["metrics"].get(e["name"]) is not None
        ]
    for entry in entries:
        name = entry["name"]
        value = result["metrics"].get(name)
        shown = "null" if value is None else f"{value:.6g}"
        n = result["counts"].get(name)
        count = f"  (n={n})" if n is not None else ""
        print(f"  {name:<40} {shown:>14} {entry['unit']}{count}")
    if result["layer_share"]:
        print("  share of search-request time, by layer (self time):")
        for layer, share in sorted(
                result["layer_share"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<38} {100 * share:>13.1f} %")
    print(
        f"  attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {str(result['correct']).lower()}"
    )
    for reason in result["failures"]:
        print(f"  FAILED: {reason}")


# -- --check ----------------------------------------------------------------------

def check(args: argparse.Namespace, decl: dict) -> int:
    """Names emitted by a smoke run of every workload, traced and not,
    must equal the names declared; names and counts must fit the limits."""
    problems = []
    names = [w["name"] for w in decl["workloads"]]
    groups = {"end_to_end": 16, "per_layer": 128}
    if len(names) > 8:
        problems.append(f"{len(names)} workloads > 8")
    declared_names = list(names)
    for group, limit in groups.items():
        if len(decl[group]) > limit:
            problems.append(f"{len(decl[group])} {group} metrics > {limit}")
        declared_names += [m["name"] for m in decl[group]]
    for name in declared_names:
        if not NAME_RE.fullmatch(name):
            problems.append(f"name {name!r} does not fit [A-Za-z0-9_.-]+")
    if len(set(declared_names)) != len(declared_names):
        problems.append("a name is declared twice")

    from workloads import WORKLOADS
    if sorted(WORKLOADS) != sorted(names):
        problems.append(
            f"workloads declared {sorted(names)} != defined {sorted(WORKLOADS)}")
    args.smoke, args.seconds = True, 2.0
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        args.trace = trace
        declared = {m["name"] for m in decl[group]}
        other = {m["name"] for g in groups if g != group for m in decl[g]}
        for name in names:
            emitted = set(run_child(name, args)["metrics"]) - other
            for missing in sorted(declared - emitted):
                problems.append(f"{name} --trace {trace}: {missing} not emitted")
            for extra in sorted(emitted - declared):
                problems.append(f"{name} --trace {trace}: {extra} not declared")
    for problem in problems:
        print(f"check: {problem}")
    print(f"check: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    decl = declaration()
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(decl["run_seconds"])
    if args.child:
        return child_main(args)
    if args.check:
        return check(args, decl)
    names = [w["name"] for w in decl["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    results = [run_child(name, args) for name in names]
    for result in results:
        print_result(result, decl)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    if len(results) == 1:
        print(json.dumps(contract_line(results[0], decl)))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
