"""Ablation: bucket-major batched IVF execution vs per-query search.

The cache-aware idea (Sec. 3.2.1) applied to inverted files: instead
of each query streaming its probed buckets, each bucket is scanned
once for every query probing it.  This is the real (measured, not
modeled) engine-level speedup behind the Milvus curves in Fig. 8.

Both sides run the production probe (``IVFIndexBase._search_pruned``):
one ``search`` of ``b`` queries — every probed bucket scored once for
all its queries — against ``b`` searches of one query each, where every
query streams its buckets alone.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import print_series
from repro.datasets import random_queries, sift_like
from repro.index import IVFFlatIndex

N = 30000
DIM = 48
K = 10
BATCHES = (1, 8, 64, 256, 1024)

_cache = {}


def setup():
    if "bundle" not in _cache:
        data = sift_like(N, dim=DIM, n_clusters=64, seed=0)
        queries = random_queries(data, max(BATCHES), seed=1)
        index = IVFFlatIndex(DIM, nlist=128, seed=0)
        index.train(data)
        index.add(data)
        _cache["bundle"] = (queries, index)
    return _cache["bundle"]


def search_one_by_one(index, queries, nprobe):
    return [index.search(q[np.newaxis, :], K, nprobe=nprobe) for q in queries]


def run_sweep(nprobe=16):
    queries, index = setup()
    rows = []
    for m in BATCHES:
        q = queries[:m]
        index.search(q[:1], K, nprobe=nprobe)  # warm-up
        t0 = time.perf_counter()
        search_one_by_one(index, q, nprobe)
        per_query = time.perf_counter() - t0
        t0 = time.perf_counter()
        index.search(q, K, nprobe=nprobe)
        bucket_major = time.perf_counter() - t0
        rows.append((m, per_query, bucket_major))
    return rows


@pytest.fixture(scope="module")
def sweep():
    return run_sweep()


def test_identical_results():
    queries, index = setup()
    solo = search_one_by_one(index, queries[:64], 16)
    batch = index.search(queries[:64], K, nprobe=16)
    np.testing.assert_array_equal(np.concatenate([r.ids for r in solo]), batch.ids)


def test_batched_wins_at_large_batch(sweep):
    m, per_query, bucket_major = sweep[-1]
    assert bucket_major < per_query


def test_advantage_grows_with_batch(sweep):
    ratios = [pq / bm for __, pq, bm in sweep]
    assert ratios[-1] > ratios[0]


def test_benchmark_per_query(benchmark):
    queries, index = setup()
    benchmark(lambda: search_one_by_one(index, queries[:256], 16))


def test_benchmark_bucket_major(benchmark):
    queries, index = setup()
    benchmark(lambda: index.search(queries[:256], K, nprobe=16))


def main():
    rows = run_sweep()
    print("=== Ablation: per-query vs bucket-major IVF execution ===")
    print_series(
        "speedup", [m for m, *__ in rows],
        [f"{pq / bm:.2f}x" for __, pq, bm in rows],
    )
    for m, pq, bm in rows:
        print(f"  batch {m:5d}: per-query {pq * 1000:8.1f}ms  "
              f"bucket-major {bm * 1000:8.1f}ms")


if __name__ == "__main__":
    main()
