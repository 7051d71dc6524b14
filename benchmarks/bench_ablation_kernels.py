"""Ablation: quantized-scan kernels vs their naive reference scans.

Three micro-comparisons behind the Fig. 8 compressed-index curves,
measured at the kernel level (one bucket of codes, one query block):

* PQ ADC: naive per-query table gather (``ProductQuantizer.adc_scan``)
  vs the blocked flat-LUT kernel, swept over block sizes — the
  fast-scan trick of offsetting codes into one flat (nq, m*ksub)
  table and gathering whole blocks of subquantizers at once.
* SQ8: decode-then-pairwise (materialize float32 rows, then a metric
  pairwise) vs the decode-free affine kernel (one GEMM against the
  uint8 codes, norms folded in algebraically).

Both sweeps run over several bucket sizes because the win shifts with
the number of rows amortizing the per-bucket setup.  The checks assert
that each kernel gives its reference scan's scores; main prints the
speedups, which depend on the numpy build and are not asserted.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import print_series
from repro.datasets import random_queries, sift_like
from repro.index import kernels
from repro.index.ivf_pq import ProductQuantizer
from repro.index.ivf_sq8 import ScalarQuantizer
from repro.metrics import get_metric

DIM = 64
NQ = 64
BUCKET_ROWS = (256, 1024, 4096)
PQ_BLOCKS = (1, 2, 4, 8)
PQ_M = 8
REPEATS = 3
#: rows the checks train and scan on
CHECK_N = 1024

_cache = {}


def setup(n=8192):
    if n not in _cache:
        data = sift_like(n, dim=DIM, n_clusters=32, seed=0)
        queries = random_queries(data, NQ, seed=1)
        pq = ProductQuantizer(DIM, m=PQ_M, nbits=8, seed=0).train(data)
        sq = ScalarQuantizer().train(data)
        _cache[n] = (data, queries, pq, sq)
    return _cache[n]


def _best(fn) -> float:
    best = float("inf")
    for __ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_pq_sweep():
    data, queries, pq, __ = setup()
    metric = get_metric("l2")
    tables = pq.build_tables(queries, metric.name)
    tables_flat = kernels.flatten_tables(tables)
    rows = []
    for nrows in BUCKET_ROWS:
        codes = pq.encode(data[:nrows])
        naive = _best(lambda: ProductQuantizer.adc_scan(tables, codes))
        entry = {"rows": nrows, "naive_seconds": naive}
        for block in PQ_BLOCKS:
            blocked = _best(
                lambda: kernels.adc_scan_blocked(
                    tables_flat, codes, pq.ksub, block=block))
            entry[f"block{block}_seconds"] = blocked
        rows.append(entry)
    return rows


def _sq8_scan(sq, queries, codes):
    """Row-side terms (cast + decoded norms), then the per-request state."""
    cast = codes.astype(np.float32)
    term = kernels.row_term("l2", kernels.sq8_decoded_sqnorms(sq, cast))
    return kernels.GemmScan(
        "l2", queries, cast, term, scale=sq.vdiff / 255.0, shift=sq.vmin)


def _sq8_scores(scan):
    qidx = np.arange(NQ)
    return scan.final(qidx, scan.keyed(slice(None), qidx))


def run_sq8_sweep():
    data, queries, __, sq = setup()
    metric = get_metric("l2")
    rows = []
    for nrows in BUCKET_ROWS:
        codes = sq.encode(data[:nrows])
        naive = _best(lambda: metric.pairwise(queries, sq.decode(codes)))
        cold = _best(lambda: _sq8_scores(_sq8_scan(sq, queries, codes)))
        # The engine path: row-side cast/norm terms are stored in the
        # index's CSR snapshot, so steady-state scans pay only the
        # GEMM + one broadcast.
        scan = _sq8_scan(sq, queries, codes)
        warm = _best(lambda: _sq8_scores(scan))
        rows.append({"rows": nrows, "naive_seconds": naive,
                     "cold_seconds": cold, "fused_seconds": warm})
    return rows


def test_pq_blocked_matches_naive():
    data, queries, pq, __ = setup(CHECK_N)
    metric = get_metric("l2")
    tables = pq.build_tables(queries, metric.name)
    codes = pq.encode(data[:512])
    want = ProductQuantizer.adc_scan(tables, codes)
    got = kernels.adc_scan_blocked(
        kernels.flatten_tables(tables), codes, pq.ksub)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def test_sq8_fused_matches_decode():
    data, queries, __, sq = setup(CHECK_N)
    codes = sq.encode(data[:512])
    want = get_metric("l2").pairwise(queries, sq.decode(codes))
    np.testing.assert_allclose(
        _sq8_scores(_sq8_scan(sq, queries, codes)).T, want, rtol=1e-3, atol=1.0)


def main():
    pq_rows = run_pq_sweep()
    sq_rows = run_sq8_sweep()
    print("=== Ablation: quantized-scan kernels vs naive scans ===")
    print_series(
        "pq blocked (block=4) speedup over naive",
        [e["rows"] for e in pq_rows],
        [f"{e['naive_seconds'] / e['block4_seconds']:.2f}x" for e in pq_rows],
    )
    print_series(
        "sq8 decode-free (stored row terms) speedup over decode+pairwise",
        [e["rows"] for e in sq_rows],
        [f"{e['naive_seconds'] / e['fused_seconds']:.2f}x" for e in sq_rows],
    )


if __name__ == "__main__":
    main()
