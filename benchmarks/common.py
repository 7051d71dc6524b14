"""Shared setup for the figure/table benchmarks.

Every benchmark runs at laptop scale (see DESIGN.md §1 for the
substitution table); sizes are chosen so the full suite finishes in
minutes while preserving each figure's *shape*.  Run any module
directly (``python benchmarks/bench_fig8_ivf_systems.py``) to print
the paper-style series, timings included.  Under pytest the same
modules check each figure's shape at a smaller size, on recall and
exact work counters only — no check reads a clock.
"""

from __future__ import annotations

import functools

from repro.datasets import (
    deep_like,
    exact_ground_truth,
    random_queries,
    sift_like,
    uniform_attributes,
)
from repro.obs.profile import QueryProfile

# Scaled-down stand-ins for SIFT10M / Deep10M (paper Sec. 7.2).
SIFT_N = 20000
SIFT_DIM = 64
DEEP_N = 20000
DEEP_DIM = 48
NUM_QUERIES = 200
K = 10


@functools.lru_cache(maxsize=None)
def sift_bundle(n: int = SIFT_N, nq: int = NUM_QUERIES):
    """(data, queries, truth-l2) for the SIFT-like workload."""
    data = sift_like(n, dim=SIFT_DIM, n_clusters=64, seed=0)
    queries = random_queries(data, nq, seed=1)
    truth = exact_ground_truth(queries, data, K, "l2")
    return data, queries, truth


@functools.lru_cache(maxsize=None)
def deep_bundle():
    """(data, queries, truth-ip) for the Deep-like workload."""
    data = deep_like(DEEP_N, dim=DEEP_DIM, n_clusters=64, seed=2)
    queries = random_queries(data, NUM_QUERIES, seed=3)
    truth = exact_ground_truth(queries, data, K, "ip")
    return data, queries, truth


@functools.lru_cache(maxsize=None)
def attribute_bundle(n: int = SIFT_N):
    """SIFT-like vectors + uniform attribute in [0, 10000] (Sec. 7.5)."""
    data, queries, truth = sift_bundle(n)
    attrs = uniform_attributes(len(data), 0, 10000, seed=4)
    return data, attrs, queries


def best_time(fn, repeats: int = 3) -> float:
    """Minimum wall-clock over ``repeats`` runs — robust to noise spikes
    on shared machines.  Reports only: no check reads it."""
    from repro.obs import Stopwatch

    best = float("inf")
    for __ in range(repeats):
        with Stopwatch() as sw:
            fn()
        best = min(best, sw.seconds)
    return best


def profiled(fn):
    """``(fn(), exact work counters of the call)``."""
    with QueryProfile("bench") as prof:
        result = fn()
    return result, prof.total_counters()


def count_calls(obj, name):
    """Count the calls of ``obj.<name>`` in ``obj.calls``; returns ``obj``.
    Wrap a copy of anything shared (a metric from ``get_metric``)."""
    fn = getattr(obj, name)

    def counting(*args, **kwargs):
        obj.calls += 1
        return fn(*args, **kwargs)

    obj.calls = 0
    setattr(obj, name, counting)
    return obj


def selectivity_to_range(selectivity: float, low=0.0, high=10000.0):
    """Paper Sec. 7.5: selectivity = fraction of entities *failing* C_A.

    Returns an attribute range passing (1 - selectivity) of the rows.
    """
    return low, low + (high - low) * (1.0 - selectivity)
