"""IVF_FLAT: coarse quantizer + raw vectors as the "fine quantizer"."""

from __future__ import annotations

import numpy as np

from repro.index import kernels
from repro.index.ivf_common import IVFIndexBase, ListsSnapshot, RowTerms
# Not called here since the probe does its own arithmetic, but
# benchmarks/e2e/layers.py wraps this module's binding of the name.
from repro.metrics.dense import l2_squared_pairwise  # noqa: F401
from repro.metrics.dense import squared_norms


class IVFFlatIndex(IVFIndexBase):
    """IVF with uncompressed residents — best recall of the IVF family.

    The data-side term of each metric's expansion (``|x|^2`` for L2,
    ``1/|x|`` for cosine) is stored beside the vectors in CSR order, so
    a bucket probe is one GEMM on a view plus one broadcast
    (:class:`~repro.index.kernels.GemmScan`).
    """

    index_type = "IVF_FLAT"

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return np.asarray(vectors, dtype=np.float32)

    def _row_terms(self, codes: np.ndarray) -> RowTerms:
        return (kernels.row_term(self.metric.name, squared_norms(codes)),)

    def _begin_scan(self, queries: np.ndarray, snap: ListsSnapshot):
        if self.metric.name not in kernels.GEMM_METRICS:
            return super()._begin_scan(queries, snap)
        return kernels.GemmScan(self.metric.name, queries, snap.codes, *snap.terms)

    def _scan_list(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        return self.metric.pairwise(queries, codes)
