"""IVF_PQ: product quantization fine quantizer with ADC scanning.

Paper Sec. 3.1: "IVF_PQ uses product quantization that splits each
vector into multiple sub-vectors and applies K-means for each
sub-space" (Jégou et al., TPAMI 2011).  Search uses asymmetric
distance computation (ADC): per query, a lookup table of
sub-distances is built and bucket scans reduce to table gathers.

On the kernel path the tables are built once per request
(:class:`~repro.index.kernels.AdcScan`) and buckets are scored with
the blocked flat-LUT fast-scan kernel over flat LUT indices stored
beside the codes in CSR order; :class:`IVFOPQIndex` adds
a trained orthogonal rotation (OPQ) in front of the codec.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.index import kernels
from repro.index.ivf_common import IVFIndexBase, ListsSnapshot, RowTerms
from repro.index.kmeans import KMeans
from repro.utils import ensure_matrix, ensure_positive


class ProductQuantizer:
    """PQ codec: ``m`` sub-quantizers of ``2**nbits`` centroids each."""

    def __init__(self, dim: int, m: int = 8, nbits: int = 8, seed: Optional[int] = 0):
        self.dim = ensure_positive(dim, "dim")
        self.m = ensure_positive(m, "m")
        if dim % m != 0:
            raise ValueError(f"dim={dim} must be divisible by m={m}")
        if not 1 <= nbits <= 8:
            raise ValueError(f"nbits must be in [1, 8], got {nbits}")
        self.nbits = nbits
        self.ksub = 2 ** nbits
        self.dsub = dim // m
        self.seed = seed
        #: (m, ksub, dsub) codebooks after training.
        self.codebooks: Optional[np.ndarray] = None

    @property
    def is_trained(self) -> bool:
        return self.codebooks is not None

    def train(self, vectors: np.ndarray, max_iter: int = 15) -> "ProductQuantizer":
        """Learn the ``m`` sub-codebooks.

        ``max_iter`` bounds each sub-space k-means; OPQ's alternating
        optimization passes a small budget for the steering iterations
        and the default for the final codebooks.
        """
        vectors = ensure_matrix(vectors, "vectors")
        if len(vectors) < self.ksub:
            raise ValueError(
                f"PQ training needs at least ksub={self.ksub} vectors, got {len(vectors)}"
            )
        books = np.empty((self.m, self.ksub, self.dsub), dtype=np.float32)
        for sub in range(self.m):
            chunk = vectors[:, sub * self.dsub : (sub + 1) * self.dsub]
            seed = None if self.seed is None else self.seed + sub
            km = KMeans(self.ksub, max_iter=max_iter, seed=seed)
            km.fit(np.ascontiguousarray(chunk))
            books[sub] = km.centroids
        self.codebooks = books
        return self

    def _sub_l2(self, chunk: np.ndarray, sub: int) -> np.ndarray:
        """Squared L2 from each row of ``chunk`` to sub-codebook ``sub``."""
        book = self.codebooks[sub]
        return (
            np.einsum("ij,ij->i", chunk, chunk)[:, np.newaxis]
            - 2.0 * chunk @ book.T
            + np.einsum("ij,ij->i", book, book)[np.newaxis, :]
        )

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Encode to (n, m) uint8 codes."""
        if not self.is_trained:
            raise RuntimeError("ProductQuantizer is not trained")
        vectors = ensure_matrix(vectors, "vectors")
        codes = np.empty((len(vectors), self.m), dtype=np.uint8)
        for sub in range(self.m):
            chunk = vectors[:, sub * self.dsub : (sub + 1) * self.dsub]
            codes[:, sub] = self._sub_l2(chunk, sub).argmin(axis=1)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors; output rank mirrors input rank."""
        if not self.is_trained:
            raise RuntimeError("ProductQuantizer is not trained")
        codes = np.asarray(codes)
        single = codes.ndim == 1
        if single:
            codes = codes[np.newaxis, :]
        out = np.empty((len(codes), self.dim), dtype=np.float32)
        for sub in range(self.m):
            out[:, sub * self.dsub : (sub + 1) * self.dsub] = self.codebooks[sub][
                codes[:, sub]
            ]
        return out[0] if single else out

    def build_tables(self, queries: np.ndarray, metric_name: str) -> np.ndarray:
        """ADC tables of sub-scores, shape (nq, m, ksub).

        ``"l2"`` tables hold squared sub-distances; ``"ip"``/``"cosine"``
        hold sub-inner-products (cosine assumes normalized inputs).
        """
        if not self.is_trained:
            raise RuntimeError("ProductQuantizer is not trained")
        queries = ensure_matrix(queries, "queries")
        tables = np.empty((len(queries), self.m, self.ksub), dtype=np.float32)
        for sub in range(self.m):
            chunk = queries[:, sub * self.dsub : (sub + 1) * self.dsub]
            if metric_name == "l2":
                tables[:, sub, :] = self._sub_l2(chunk, sub)
            else:
                tables[:, sub, :] = chunk @ self.codebooks[sub].T
        return tables

    @staticmethod
    def adc_scan(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Sum table entries along codes: (nq, m, ksub) x (n, m) -> (nq, n).

        The naive per-sub-quantizer loop — kept as the reference for
        :func:`~repro.index.kernels.adc_scan_blocked`.
        """
        nq = tables.shape[0]
        n, m = codes.shape
        out = np.zeros((nq, n), dtype=np.float32)
        cols = codes.astype(np.int64)
        for sub in range(m):
            out += tables[:, sub, :][:, cols[:, sub]]
        return out


class IVFPQIndex(IVFIndexBase):
    """IVF with PQ-compressed codes and ADC scanning.

    Encodes raw vectors (not residuals) so the codec stays orthogonal
    to the coarse quantizer — Faiss's ``by_residual=False`` mode.
    """

    index_type = "IVF_PQ"

    def __init__(
        self,
        dim,
        metric="l2",
        nlist=128,
        m: int = 8,
        nbits: int = 8,
        kmeans_iters=20,
        seed=0,
    ):
        super().__init__(dim, metric, nlist=nlist, kmeans_iters=kmeans_iters, seed=seed)
        if self.metric.name not in ("l2", "ip", "cosine"):
            raise ValueError(f"{self.index_type} does not support metric {self.metric.name!r}")
        self.pq = ProductQuantizer(dim, m=m, nbits=nbits, seed=seed)

    def _train_fine(self, vectors: np.ndarray) -> None:
        self.pq.train(vectors)

    def _codec_space(self, queries: np.ndarray) -> np.ndarray:
        """Hook: map rows (queries or data) into the codec's space (OPQ rotates)."""
        return queries

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return self.pq.encode(self._codec_space(vectors))

    def _row_terms(self, codes: np.ndarray) -> RowTerms:
        return (kernels.flat_code_indices(codes, self.pq.ksub),)

    def _begin_scan(self, queries: np.ndarray, snap: ListsSnapshot):
        # ADC tables for the whole request, flattened for the blocked
        # fast-scan kernel — built once, reused by every bucket probe.
        return kernels.AdcScan(
            self.pq, self._codec_space(queries), self.metric.name, *snap.terms
        )

    def _scan_list(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        tables = self.pq.build_tables(self._codec_space(queries), self.metric.name)
        return ProductQuantizer.adc_scan(tables, codes)

    def row_code_bytes(self) -> int:
        return self.pq.m

    def memory_bytes(self) -> int:
        total = super().memory_bytes()
        if self.pq.codebooks is not None:
            total += self.pq.codebooks.nbytes
        return total


class IVFOPQIndex(IVFPQIndex):
    """IVF_PQ behind a trained orthogonal rotation (OPQ).

    The rotation redistributes correlated variance across the ``m``
    sub-spaces before product quantization (Ge et al., CVPR 2013),
    cutting reconstruction error where raw dimension order is
    unfavorable.  Orthogonality preserves L2/IP/cosine, so search just
    rotates the queries (``_codec_space``) and reuses the whole PQ
    scan path — tables, blocked LUT kernel, counters — unchanged.
    Training alternates codebook fitting with a Procrustes rotation
    solve (:func:`repro.index.kernels.train_opq_rotation`); seeded and
    deterministic.
    """

    index_type = "IVF_OPQ"

    def __init__(
        self,
        dim,
        metric="l2",
        nlist=128,
        m: int = 8,
        nbits: int = 8,
        opq_iters: int = 8,
        kmeans_iters=20,
        seed=0,
    ):
        super().__init__(
            dim, metric, nlist=nlist, m=m, nbits=nbits,
            kmeans_iters=kmeans_iters, seed=seed,
        )
        self.opq_iters = ensure_positive(opq_iters, "opq_iters")
        #: (dim, dim) float32 orthogonal rotation after training.
        self.rotation: Optional[np.ndarray] = None

    def _train_fine(self, vectors: np.ndarray) -> None:
        self.rotation, self.pq = kernels.train_opq_rotation(
            vectors,
            pq_factory=lambda: ProductQuantizer(
                self.dim, m=self.pq.m, nbits=self.pq.nbits, seed=self.seed
            ),
            opq_iters=self.opq_iters,
            seed=self.seed,
        )

    def _codec_space(self, queries: np.ndarray) -> np.ndarray:
        if self.rotation is None:
            raise RuntimeError("IVF_OPQ is not trained")
        return np.asarray(queries, dtype=np.float32) @ self.rotation

    def memory_bytes(self) -> int:
        total = super().memory_bytes()
        if self.rotation is not None:
            total += self.rotation.nbytes
        return total
