"""Quantized-scan kernels: blocked fast-scan PQ, decode-free SQ8, OPQ.

The paper's Sec. 3.2 performance story is kernel-level: quantized
bucket scans dominate IVF query time, and the engine wins by making
them cache- and SIMD-friendly.  The Faiss library paper describes the
shapes this module reproduces in numpy:

* **Blocked flat-LUT PQ scanning** — the per-query ADC tables
  ``(m, ksub)`` are flattened to one row of ``m * ksub`` floats and
  bucket codes are offset *once* to flat indices
  (``code[:, sub] + sub * ksub``), so scoring a bucket is one fancy
  gather + sum per *block* of sub-quantizers instead of one python-level
  gather per sub-quantizer.  This is the numpy analogue of Faiss's
  register-resident "fast scan" tables: fewer, bigger gathers that stay
  in cache.  The block size trades gather-temp size against python
  overhead; ``benchmarks/bench_ablation_kernels.py`` sweeps it.

* **Per-request query terms** — :class:`AdcScan` / :class:`GemmScan`
  are built once per search by ``IVFIndexBase._begin_scan`` and used
  for every bucket of the request, so ADC tables (PQ) and the
  query-side factors of the L2/IP/cosine expansions (IVF_FLAT, SQ8)
  are never rebuilt per probed bucket.  They return *keyed* scores
  (lower is better, per-query constants dropped), which is what lets
  the probe prune with a compare instead of a per-bucket top-k.

* **Decode-free SQ8 scoring** — SQ8 decode is affine,
  ``v = a * c + b`` with ``a = vdiff / 255`` and ``b = vmin``, so every
  dense metric factors through the code matrix without materializing a
  float32 reconstruction:

  - ``q . v  = (q * a) . c + q . b``  (one GEMM against the cast codes)
  - ``|v|^2  = (a^2) . c^2 + 2 (a*b) . c + |b|^2``  (query-independent)
  - ``L2     = |q|^2 - 2 q.v + |v|^2``,  ``cosine = q.v / (|q| |v|)``

  The row-side terms (the float32 cast of the uint8 codes and the
  decoded norms) depend only on the stored codes and live beside them
  in the index's CSR arrays, so a bucket probe is one GEMM on a view.
  IVF_FLAT is the same kernel with ``a = 1, b = 0``.

* **OPQ** — :func:`train_opq_rotation` learns an orthogonal rotation
  ``R`` minimizing PQ reconstruction error by alternating codebook
  training with the orthogonal-Procrustes solve
  ``R = U V^T,  U S V^T = svd(X^T decode(encode(X R)))``.  Rotation
  preserves L2/IP/cosine, so rotated-space ADC scores are raw-space
  scores.  Training is seeded and deterministic.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.metrics.dense import unit_rows

__all__ = [
    "DEFAULT_BLOCK",
    "flatten_tables",
    "adc_scan_blocked",
    "adc_scan_flat",
    "AdcScan",
    "GEMM_METRICS",
    "GemmScan",
    "row_term",
    "sq8_decoded_sqnorms",
    "train_opq_rotation",
]

#: sub-quantizers scored per gather in the blocked LUT kernel.  Chosen
#: by the bench_ablation_kernels sweep: big enough to amortize python
#: dispatch, small enough that the (nq, n, block) gather temp stays
#: cache-resident for typical bucket sizes.
DEFAULT_BLOCK = 4

#: when the caller pins no block size, scans whose full-width gather
#: temp ``nq * n * m`` stays under this many float32 elements (16 MiB)
#: skip blocking entirely: one gather + sum for all ``m``
#: sub-quantizers beats two python-level dispatch rounds whenever the
#: temp fits comfortably in cache.  The bench_ablation_kernels sweep
#: shows the crossover.
FUSED_GATHER_ELEMS = 1 << 22


# -- blocked flat-LUT PQ scanning ------------------------------------------


def flatten_tables(tables: np.ndarray) -> np.ndarray:
    """ADC tables ``(nq, m, ksub)`` -> contiguous flat LUTs ``(nq, m*ksub)``."""
    nq, m, ksub = tables.shape
    return np.ascontiguousarray(tables.reshape(nq, m * ksub))


def flat_code_indices(codes: np.ndarray, ksub: int) -> np.ndarray:
    """Offset a bucket's ``(n, m)`` codes to flat LUT indices, once.

    Code ``c`` of sub-quantizer ``s`` indexes flat slot ``s * ksub + c``
    of every query's LUT row.  Query-independent, so cacheable per
    bucket.
    """
    __, m = codes.shape
    flat = codes.astype(np.int64)
    flat += np.arange(m, dtype=np.int64) * ksub
    return flat


def adc_scan_blocked(
    tables_flat: np.ndarray,
    codes: np.ndarray,
    ksub: int,
    block: Optional[int] = None,
) -> np.ndarray:
    """Blocked fast-scan ADC: ``(nq, m*ksub)`` x ``(n, m)`` -> ``(nq, n)``.

    Offsets the codes to flat LUT indices, then :func:`adc_scan_flat`.
    Equivalent to :meth:`ProductQuantizer.adc_scan` up to float
    summation order.
    """
    return adc_scan_flat(tables_flat, flat_code_indices(codes, ksub), block)


def adc_scan_flat(
    tables_flat: np.ndarray,
    flat_codes: np.ndarray,
    block: Optional[int] = None,
) -> np.ndarray:
    """ADC over precomputed flat LUT indices ``(n, m)`` -> ``(nq, n)``.

    Each block of sub-quantizers is scored with a single gather + sum.
    When the block size is left unpinned and the full-width gather temp
    is small (:data:`FUSED_GATHER_ELEMS`), all ``m`` sub-quantizers are
    scored in one gather.
    """
    n, m = flat_codes.shape
    nq = tables_flat.shape[0]
    if block is None:
        block = m if nq * n * m <= FUSED_GATHER_ELEMS else DEFAULT_BLOCK
    if block >= m:
        return tables_flat[:, flat_codes].sum(axis=2, dtype=np.float32)
    out = np.zeros((nq, n), dtype=np.float32)
    for lo in range(0, m, block):
        gathered = tables_flat[:, flat_codes[:, lo : lo + block]]
        out += gathered.sum(axis=2, dtype=np.float32)
    return out


class AdcScan:
    """Per-request PQ scan state: flat ADC LUTs built exactly once.

    Scores are *keyed* — lower is better for every metric — so the
    probe can prune with one ``<=``: similarity tables are negated once
    here and :meth:`final` flips the few surviving scores back.
    ``flat_codes`` is the index's whole CSR array of flat LUT indices
    (:func:`flat_code_indices`); ``rows`` selects a bucket's range.
    """

    __slots__ = ("tables_flat", "flat_codes", "negated")

    def __init__(self, pq, queries: np.ndarray, metric_name: str,
                 flat_codes: np.ndarray):
        tables = flatten_tables(pq.build_tables(queries, metric_name))
        self.negated = metric_name != "l2"
        self.tables_flat = -tables if self.negated else tables
        self.flat_codes = flat_codes

    def keyed(self, rows, qidx: np.ndarray) -> np.ndarray:
        scores = adc_scan_flat(self.tables_flat[qidx], self.flat_codes[rows])
        return np.ascontiguousarray(scores.T)

    def final(self, qidx: np.ndarray, keyed: np.ndarray) -> np.ndarray:
        return -keyed if self.negated else keyed


# -- one-GEMM scans: raw float rows and decode-free SQ8 ---------------------

#: metrics with a GEMM form; any other dense metric is scored through
#: ``Metric.pairwise`` by the fine quantizer's reference scorer.
GEMM_METRICS = ("l2", "ip", "cosine")


def row_term(metric_name: str, sq_norms: np.ndarray) -> Optional[np.ndarray]:
    """The query-independent per-row term a :class:`GemmScan` needs.

    ``|x|^2`` for L2 (added to the GEMM), ``1/|x|`` for cosine
    (multiplied in; zero rows get 0 so they score 0, never NaN),
    nothing for inner product.  Stored beside the codes in CSR order.
    """
    if metric_name == "l2":
        return sq_norms
    if metric_name == "cosine":
        return np.divide(
            1.0, np.sqrt(sq_norms), out=np.zeros_like(sq_norms),
            where=sq_norms > 0,
        )
    return None


def sq8_decoded_sqnorms(sq, cast: np.ndarray) -> np.ndarray:
    """``|a * c + b|^2`` per row, straight from the cast codes.

    Per dimension the expansion a^2 c^2 + 2abc + b^2 = (ac + b)^2
    cancels catastrophically in float32 when |ac + b| << |b|, so it is
    accumulated in float64.  The finished norm fits float32, and
    keeping it narrow keeps the per-scan broadcasting against the
    (nq, n) score matrix in float32.
    """
    a = (sq.vdiff / 255.0).astype(np.float64)
    b = sq.vmin.astype(np.float64)
    t = (
        np.einsum("ij,ij,j->i", cast, cast, a * a, dtype=np.float64)
        + cast @ (2.0 * a * b)
        + float(b @ b)
    )
    return t.astype(np.float32)


class GemmScan:
    """Per-request scan state for metrics that reduce to one GEMM.

    Rows are ``v = scale * c + shift`` for stored float32 ``data`` rows
    ``c`` — raw vectors (IVF_FLAT: no scale/shift) or cast SQ8 codes
    (``scale = vdiff/255``, ``shift = vmin``), so SQ8 is scored without
    ever materializing a float32 reconstruction:

    * ``q . v = (q * scale) . c + q . shift``
    * ``L2    = |q|^2 - 2 q.v + |v|^2``,  ``cosine = q.v / (|q| |v|)``

    Everything that depends on the query alone is computed once here;
    what depends on the row alone (:func:`row_term`) is stored with the
    index.  :meth:`keyed` then costs one GEMM on a CSR view plus one
    broadcast, and returns scores *keyed* so that lower is better and
    per-query constants are left out (they cannot change a query's
    ranking); :meth:`final` restores real scores for the survivors.
    """

    __slots__ = ("lhs", "data", "q_add", "term", "q_const", "l2")

    def __init__(
        self,
        metric_name: str,
        queries: np.ndarray,
        data: np.ndarray,
        term: Optional[np.ndarray],
        scale: Optional[np.ndarray] = None,
        shift: Optional[np.ndarray] = None,
    ):
        if metric_name not in GEMM_METRICS:
            raise ValueError(f"no GEMM form for metric {metric_name!r}")
        q = np.asarray(queries, dtype=np.float32)
        if metric_name == "cosine":
            q = unit_rows(q)
        qa = q if scale is None else q * scale.astype(np.float32)
        qb = None if shift is None else q @ shift.astype(np.float32)
        self.data = data
        self.l2 = metric_name == "l2"
        #: per row, added to an L2 product and multiplied into a cosine one
        self.term = term
        self.q_add = None
        self.q_const = np.zeros(len(q), dtype=np.float32)
        if self.l2:
            self.lhs = -2.0 * qa
            self.q_const = np.einsum("ij,ij->i", q, q)
            if qb is not None:
                self.q_const -= 2.0 * qb
        else:
            self.lhs = -qa
            if metric_name == "cosine":
                self.q_add = None if qb is None else -qb
            elif qb is not None:
                self.q_const = qb

    def keyed(self, rows, qidx) -> np.ndarray:
        """Keyed scores ``(rows, queries)``; ``rows`` is a CSR slice (a
        view, no copy) or an array of CSR positions.  Rows on the left:
        at bucket-sized operands this GEMM orientation is ~1.5x the
        speed of queries-on-the-left."""
        out = self.data[rows] @ self.lhs[qidx].T
        self._finish(out, qidx, (rows, np.newaxis))
        return out

    def keyed_ranges(self, ranges, qi: int) -> np.ndarray:
        """Keyed scores of the one query ``qi`` over the CSR ranges
        ``[(lo, hi), ...]``, end to end in one 1-D array: a GEMV per
        range, on a view, written where it belongs."""
        out = np.empty(sum(hi - lo for lo, hi in ranges), dtype=np.float32)
        lhs, at = self.lhs[qi], 0
        for lo, hi in ranges:
            part = out[at:at + hi - lo]
            np.dot(self.data[lo:hi], lhs, out=part)
            self._finish(part, qi, slice(lo, hi))
            at += hi - lo
        return out

    def _finish(self, out: np.ndarray, qidx, rows) -> None:
        """Apply the query-side and row-side terms to raw products."""
        if self.q_add is not None:
            out += self.q_add[qidx]
        if self.term is not None:
            if self.l2:
                out += self.term[rows]
            else:
                out *= self.term[rows]

    def final(self, qidx: np.ndarray, keyed: np.ndarray) -> np.ndarray:
        """Real metric scores from keyed ones (``qidx`` broadcastable)."""
        if self.l2:
            # rounding in the expansion can produce tiny negatives
            return np.maximum(keyed + self.q_const[qidx], 0.0)
        return self.q_const[qidx] - keyed


# -- OPQ: optimized product quantization rotation --------------------------


def random_rotation(dim: int, seed: Optional[int]) -> np.ndarray:
    """Seeded Haar-ish orthogonal matrix (QR of a gaussian)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    # Fix signs so the factorization (and thus training) is unique.
    q *= np.sign(np.diag(r))[np.newaxis, :]
    return q.astype(np.float32)


def train_opq_rotation(
    vectors: np.ndarray,
    pq_factory: Callable[[], "object"],
    opq_iters: int = 8,
    inner_kmeans_iters: int = 4,
    seed: Optional[int] = 0,
):
    """Alternating OPQ optimization (Ge et al., CVPR 2013, non-parametric).

    Repeats: train PQ codebooks on the rotated data (few k-means
    iterations — they only steer the rotation), reconstruct, and solve
    the orthogonal Procrustes problem
    ``min_R ||X R - decode(encode(X R))||_F`` via one SVD.  Returns
    ``(rotation, pq)`` where ``pq`` is fully trained (default k-means
    budget) on the final rotated data.  Deterministic for a fixed seed:
    the initial rotation is a seeded QR and every inner k-means is
    seeded by the factory.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    rotation = random_rotation(vectors.shape[1], seed)
    for __ in range(max(0, int(opq_iters))):
        rotated = vectors @ rotation
        pq = pq_factory()
        pq.train(rotated, max_iter=inner_kmeans_iters)
        reconstructed = pq.decode(pq.encode(rotated))
        # Procrustes: R = U V^T for U S V^T = svd(X^T X_hat).
        u, __s, vt = np.linalg.svd(
            vectors.T.astype(np.float64) @ reconstructed.astype(np.float64)
        )
        rotation = (u @ vt).astype(np.float32)
    pq = pq_factory()
    pq.train(vectors @ rotation)
    return rotation, pq
