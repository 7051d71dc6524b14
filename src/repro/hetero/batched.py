"""Bucket-major batched IVF execution — the cache-aware design applied
to quantization indexes (paper Sec. 3.2.1).

Per-query IVF search streams each probed bucket once *per query*.  The
batched executor inverts the loop: for every bucket, gather all the
queries probing it and scan the bucket once for the whole sub-batch —
one GEMM per (bucket, query-group), maximal data reuse.  This is the
fine-grained "threads own data, query blocks stay resident" idea in
inverted-file form, and it is genuinely faster in this substrate
because blocking maps onto BLAS.

The bucket-major loop now lives *inside* the IVF family
(:meth:`repro.index.ivf_common.IVFIndexBase._search_pruned`), where it
composes with the per-request scan states (ADC tables built once,
decode-free SQ8 terms), the contiguous lists and threshold pruning.  This wrapper
delegates and is kept for API compatibility with the heterogeneous
scheduler and the figure-12 benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.index.base import SearchResult
from repro.index.ivf_common import IVFIndexBase


class BatchedIVFSearcher:
    """Batch executor over any trained/populated IVF index."""

    def __init__(self, index: IVFIndexBase):
        if not isinstance(index, IVFIndexBase):
            raise TypeError("BatchedIVFSearcher requires an IVF-family index")
        self.index = index

    def search(self, queries: np.ndarray, k: int, nprobe: int = 8) -> SearchResult:
        """Same results as per-query IVF search, bucket-major execution."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if self.index.ntotal == 0:
            return SearchResult.empty(len(queries), k, self.index.metric)
        return self.index.search(queries, k, nprobe=nprobe)
