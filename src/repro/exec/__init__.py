"""repro.exec — the shared query-execution layer.

The paper's query engine gets its throughput from multi-threaded,
cache-aware execution (Sec. 3.2.1).  Here the threads live inside the
kernels: every GEMM in :mod:`repro.metrics.dense` runs on numpy's
BLAS, which when threaded (OpenBLAS is by default) already spreads
each call over the machine's cores, so one request is served by one
Python thread (docs/INTERNALS.md §13 has the measurements that
retired the intra-query worker pool).  This package
is what the read path shares on top of that:

* :class:`~repro.exec.executor.QueryExecutor` — runs independent scan
  tasks (per-segment in LSM search, per-reader in the cluster fan-out)
  in order on the calling thread, with per-slot error capture for the
  cluster's degraded reads.
* :class:`~repro.exec.normcache.NormCache` — per-owner cache of
  data-side kernel precomputations (``|x|^2`` norms for L2,
  unit-normalized rows for cosine), so repeated brute-force / IVF
  residual scans cost one GEMM plus cached adds.
"""

from repro.exec.executor import QueryExecutor
from repro.exec.normcache import NormCache

__all__ = ["QueryExecutor", "NormCache"]
