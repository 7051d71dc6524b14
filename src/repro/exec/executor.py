"""QueryExecutor: the in-order fan-out of one request's scan tasks.

Both read paths hand it their scans the same way:

* LSM search runs one task per visible segment
  (:meth:`~repro.storage.lsm.LSMManager.search`) when the request's
  queries share buckets, then merges the partials; a request whose
  queries do not scores every segment into one collector and never
  comes here, nor does a snapshot with a single scan;
* the cluster runs one task per live reader
  (:meth:`~repro.distributed.cluster.MilvusCluster.search`) and
  degrades the shards whose task failed.

Tasks run on the calling thread, in the order given: one request is
one thread.  The kernels under each scan are numpy/BLAS calls that
already spread over the machine's cores, which is why an intra-query
thread pool above them bought nothing (docs/INTERNALS.md §13).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["QueryExecutor"]


class QueryExecutor:
    """Runs a request's scan tasks in order and reports each outcome."""

    def map_settled(
        self,
        fns: Sequence[Callable[[], object]],
        catch: Tuple[type, ...] = (),
    ) -> List[Tuple[object, Optional[BaseException]]]:
        """Run every task; returns ordered ``(result, error)`` pairs.

        ``catch`` names the exception types captured per slot (the
        cluster's degraded-read semantics); anything else propagates at
        once, and the tasks after it never run.
        """
        settled: List[Tuple[object, Optional[BaseException]]] = []
        for fn in fns:
            try:
                settled.append((fn(), None))
            except catch as exc:
                settled.append((None, exc))
        return settled

    def map_ordered(self, fns: Sequence[Callable[[], object]]) -> List[object]:
        """Run every task; ordered results, first error propagates."""
        return [fn() for fn in fns]
