"""IVF_SQ8: scalar quantization to one byte per dimension.

Paper Sec. 3.1: "IVF_SQ8 uses a compressed representation ... adopting
a one-dimensional quantizer (called 'scalar quantizer') to compress a
4-byte float value to a 1-byte integer", taking 1/4 the space of
IVF_FLAT while losing only ~1% recall (footnote 6).

On the kernel path scoring is *decode-free*: decode is affine
(``v = c * vdiff / 255 + vmin``), so per-query affine correction terms
(built once per request in :class:`~repro.index.kernels.GemmScan`)
reduce L2/IP/cosine to one GEMM against the cast code matrix — no
materialized float32 reconstruction.  The cast and the decoded norms
are stored beside the codes in CSR order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.index import kernels
from repro.index.ivf_common import IVFIndexBase, ListsSnapshot, RowTerms
from repro.utils import ensure_matrix


class ScalarQuantizer:
    """Per-dimension uniform quantizer float32 -> uint8.

    Trained bounds are per dimension; values outside the trained range
    are clipped (the standard SQ8 behaviour).
    """

    def __init__(self):
        self.vmin: Optional[np.ndarray] = None
        self.vdiff: Optional[np.ndarray] = None

    @property
    def is_trained(self) -> bool:
        return self.vmin is not None

    def train(self, vectors: np.ndarray) -> "ScalarQuantizer":
        vectors = ensure_matrix(vectors, "vectors")
        self.vmin = vectors.min(axis=0)
        vmax = vectors.max(axis=0)
        diff = vmax - self.vmin
        # Constant dimensions quantize to code 0 and decode exactly.
        diff[diff == 0] = 1.0
        self.vdiff = diff
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        if not self.is_trained:
            raise RuntimeError("ScalarQuantizer is not trained")
        vectors = ensure_matrix(vectors, "vectors")
        scaled = (vectors - self.vmin) / self.vdiff * 255.0
        return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct float vectors; output rank mirrors input rank."""
        if not self.is_trained:
            raise RuntimeError("ScalarQuantizer is not trained")
        codes = np.asarray(codes, dtype=np.float32)
        single = codes.ndim == 1
        if single:
            codes = codes[np.newaxis, :]
        out = codes / 255.0 * self.vdiff + self.vmin
        return out[0] if single else out

    def max_abs_error(self) -> np.ndarray:
        """Per-dimension worst-case reconstruction error (half a step)."""
        return self.vdiff / 255.0 / 2.0


class IVFSQ8Index(IVFIndexBase):
    """IVF with SQ8-compressed residents: 4x smaller, ~same recall."""

    index_type = "IVF_SQ8"

    def __init__(self, dim, metric="l2", nlist=128, kmeans_iters=20, seed=0):
        super().__init__(dim, metric, nlist=nlist, kmeans_iters=kmeans_iters, seed=seed)
        self.sq = ScalarQuantizer()

    def _train_fine(self, vectors: np.ndarray) -> None:
        self.sq.train(vectors)

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return self.sq.encode(vectors)

    def _row_terms(self, codes: np.ndarray) -> RowTerms:
        cast = codes.astype(np.float32)
        sq_norms = kernels.sq8_decoded_sqnorms(self.sq, cast)
        return (cast, kernels.row_term(self.metric.name, sq_norms))

    def _begin_scan(self, queries: np.ndarray, snap: ListsSnapshot):
        if self.metric.name not in kernels.GEMM_METRICS:
            return super()._begin_scan(queries, snap)
        return kernels.GemmScan(
            self.metric.name, queries, *snap.terms,
            scale=self.sq.vdiff / 255.0, shift=self.sq.vmin,
        )

    def _scan_list(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        return self.metric.pairwise(queries, self.sq.decode(codes))

    def row_code_bytes(self) -> int:
        return self.dim
