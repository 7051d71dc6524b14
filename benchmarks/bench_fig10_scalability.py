"""Figure 10: scalability.

(a) single node, throughput vs data size (paper: 1M -> 1B rows of
SIFT1B; here 1k -> 64k) — throughput should drop roughly
proportionally to data size.

(b) distributed, throughput vs number of reader nodes (paper: 4 -> 12
nodes, near-linear) — throughput computed from the cluster's
simulated parallel time (max per-node busy time), the quantity a
one-node-per-machine deployment would observe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import MilvusEngine
from repro.bench import print_series
from repro.datasets import random_queries, sift_like
from repro.distributed import MilvusCluster

from common import best_time, profiled

DIM = 32
K = 10
DATA_SIZES = (2000, 8000, 32000, 128000)
NODE_COUNTS = (1, 2, 4, 8, 12)
CLUSTER_N = 120000
CLUSTER_NQ = 200
#: the checks' sweeps
CHECK_SIZES = (1000, 2000, 4000, 8000)
CHECK_CLUSTER_N = 12000


def run_data_size_sweep(sizes=DATA_SIZES, timed=True):
    """[(n, qps, rows scanned per query)]: fixed nlist/nprobe so scanned
    rows grow linearly with n (the paper keeps the index configuration
    fixed across sizes); qps ``None`` unless ``timed``."""
    points = []
    for n in sizes:
        data = sift_like(n, dim=DIM, n_clusters=32, seed=0)
        queries = random_queries(data, 200, seed=1)
        engine = MilvusEngine(index_type="IVF_FLAT", nlist=64)
        engine.fit(data)
        search = lambda: engine.search(queries, K, nprobe=8)
        __, counters = profiled(search)
        qps = len(queries) / best_time(search, repeats=3) if timed else None
        points.append((n, qps, counters["rows_scanned"] / len(queries)))
    return points


def build_cluster(n_nodes, data):
    """FLAT per reader so per-node work scales with shard size — the
    compute-bound regime where the shared-storage fan-out shows its
    near-linear scaling."""
    cluster = MilvusCluster(n_nodes, dim=DIM, index_type="FLAT")
    cluster.insert(np.arange(len(data)), data)
    cluster.sync()
    return cluster


def run_node_sweep():
    data = sift_like(CLUSTER_N, dim=DIM, n_clusters=32, seed=2)
    queries = random_queries(data, CLUSTER_NQ, seed=3)
    points = []
    for n_nodes in NODE_COUNTS:
        cluster = build_cluster(n_nodes, data)
        cluster.search(queries[:10], K)  # warm-up
        sim_seconds = min(
            cluster.search(queries, K).simulated_parallel_seconds
            for __ in range(3)
        )
        points.append((n_nodes, CLUSTER_NQ / sim_seconds))
    return points


@pytest.fixture(scope="module")
def size_points():
    return run_data_size_sweep(CHECK_SIZES, timed=False)


@pytest.fixture(scope="module")
def largest_shard():
    """{nodes: rows of the largest shard}: the busiest reader's share."""
    data = sift_like(CHECK_CLUSTER_N, dim=DIM, n_clusters=32, seed=2)
    out = {}
    for n_nodes in NODE_COUNTS:
        sizes = build_cluster(n_nodes, data).shard_sizes()
        assert sum(sizes.values()) == len(data)
        out[n_nodes] = max(sizes.values())
    return out


def test_work_grows_with_data_size(size_points):
    """Fig. 10a: 'throughput gracefully drops proportionally' — because
    the rows each query scans grow with n at a fixed nlist/nprobe."""
    rows = [r for __, ___, r in size_points]
    assert all(b > a for a, b in zip(rows, rows[1:]))


def test_work_roughly_proportional(size_points):
    """Rows scanned per query track the data size within 2x."""
    (n0, __, r0), (n1, ___, r1) = size_points[0], size_points[-1]
    assert (n1 / n0) / 2 < r1 / r0 < 2 * (n1 / n0)


def test_largest_shard_shrinks_with_nodes(largest_shard):
    """Fig. 10b: 'the throughput increases linearly' — the busiest
    reader's shard, which bounds the parallel time, shrinks ~1/nodes."""
    for n_nodes, rows in largest_shard.items():
        assert rows <= 1.5 * CHECK_CLUSTER_N / n_nodes
    assert largest_shard[1] > 1.8 * largest_shard[4]
    assert largest_shard[4] > 1.4 * largest_shard[12]


def main():
    print("=== Figure 10a: throughput vs data size (single node) ===")
    points = run_data_size_sweep()
    print_series("IVF_FLAT", [n for n, *__ in points], [f"{q:.0f} qps" for __, q, ___ in points])
    print("=== Figure 10b: throughput vs #nodes (simulated parallel time) ===")
    points = run_node_sweep()
    print_series("cluster", [n for n, __ in points], [f"{q:.0f} qps" for __, q in points])


if __name__ == "__main__":
    main()
