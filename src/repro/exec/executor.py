"""QueryExecutor: ordered fan-out of scan tasks over the shared pool.

The one policy object between a query and the :class:`WorkerPool`.
Both read paths use it the same way:

* LSM search fans one task per visible segment
  (:meth:`~repro.storage.lsm.LSMManager.search`) when the request's
  queries share buckets; a request whose queries do not scores every
  segment into one collector on the calling thread and never comes
  here, nor does a snapshot with a single scan;
* the cluster fans one task per live reader
  (:meth:`~repro.distributed.cluster.MilvusCluster.search`).

Serial and pooled execution share one code path and one merge, and
pooled results are returned in submission order, so the two modes are
bit-identical — the equivalence tests in ``tests/test_exec.py`` pin
that down.

Serial fallback triggers when any of these hold:

* ``REPRO_PARALLEL=0`` (the kill switch overrides everything),
* the resolved ``parallel`` knob is off,
* the effective pool size is 1,
* fewer than 2 tasks (nothing to overlap),
* the caller is itself a pool worker (nested fan-out would deadlock a
  bounded pool).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.exec.pool import (
    default_pool_size,
    get_pool,
    in_worker_thread,
    parallel_enabled,
)

__all__ = ["QueryExecutor"]


class QueryExecutor:
    """Per-call execution policy: resolved knobs + fan-out helpers."""

    def __init__(
        self,
        parallel: Optional[bool] = None,
        pool_size: Optional[int] = None,
        timeout: Optional[float] = None,
    ):
        self.pool_size = pool_size if pool_size is not None else default_pool_size()
        self.timeout = timeout
        self.parallel = (
            parallel_enabled(parallel)
            and self.pool_size > 1
            and not in_worker_thread()
        )

    def map_settled(
        self,
        fns: Sequence[Callable[[], object]],
        label: str = "task",
        catch: Tuple[type, ...] = (),
    ) -> List[Tuple[object, Optional[BaseException]]]:
        """Run every task; returns ordered ``(result, error)`` pairs.

        ``catch`` names the exception types captured per slot (the
        cluster's degraded-read semantics); anything else propagates.
        Timeouts surface as :class:`ExecTimeoutError` in the error slot
        when it is in ``catch``, else they raise.
        """
        if self.parallel and len(fns) > 1:
            settled = get_pool(self.pool_size).map_settled(
                fns, label=label, timeout=self.timeout
            )
            # Every task has settled by now (pins released, spans
            # closed), so raising the first fatal error is safe.
            for __, error in settled:
                if error is not None and not isinstance(error, catch):
                    raise error
            return settled
        settled = []
        for fn in fns:
            if catch:
                try:
                    settled.append((fn(), None))
                except catch as exc:
                    settled.append((None, exc))
            else:
                # No capture requested: let errors propagate
                # immediately, exactly like the pre-exec serial loops.
                settled.append((fn(), None))
        return settled

    def map_ordered(
        self, fns: Sequence[Callable[[], object]], label: str = "task"
    ) -> List[object]:
        """Run every task; ordered results, first error propagates."""
        return [result for result, __ in self.map_settled(fns, label=label)]
