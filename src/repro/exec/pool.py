"""Process-wide worker pool for intra-query parallelism.

One pool serves the whole process (the paper runs one thread pool per
node and multiplexes every query over it), created lazily on first
pooled search and grown on demand when a caller requests a larger
``pool_size``.  Tasks are plain callables; results come back in
submission order.

Design notes:

* **Threads, not processes.**  The hot kernels — GEMMs in
  :mod:`repro.metrics.dense`, ``argpartition`` in
  :mod:`repro.utils.topk` — are numpy/BLAS calls that release the
  GIL, so segment scans genuinely overlap.
* **Bounded queue.**  Submission blocks once ``queue_capacity`` tasks
  are pending — natural backpressure instead of unbounded memory.
* **Per-task timeout.**  ``map_settled(..., timeout=...)`` bounds the
  wait per task; an expired task yields :class:`ExecTimeoutError` (the
  worker still finishes it, its result is discarded — tasks must clean
  up their own resources, e.g. bufferpool pins, in ``finally``).
* **Context propagation.**  Each task runs inside a
  ``contextvars`` snapshot of its submitter, so observability spans
  opened in a worker parent to the submitting query's span and the
  whole fan-out stays one trace.
* **No nested fan-out.**  A task submitted from a worker thread runs
  serially in that worker (see :func:`in_worker_thread`); with a
  bounded pool, waiting on sub-tasks from inside a task can deadlock.

Lock discipline: the pool's bookkeeping lock (sanitizer role
``"exec"``) is a **strict leaf** like ``"obs"`` — it is never held
across a task execution or any engine call, and any engine lock may be
held while submitting.  Documented in docs/INTERNALS.md §13 alongside
the lsm → wal → fs hierarchy; reprolint's lock-discipline rule
enforces the ``_GUARDED_BY`` map below.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs import get_obs
from repro.utils.sanitizer import maybe_sanitize

__all__ = [
    "ExecTimeoutError",
    "WorkerPool",
    "default_pool_size",
    "get_pool",
    "in_worker_thread",
    "parallel_enabled",
    "shutdown_pool",
]

#: cap on the auto-sized pool; REPRO_POOL_SIZE / pool_size override.
MAX_DEFAULT_WORKERS = 8
#: the auto-sized pool's width: ``min(8, cpu_count)`` but at least 2, so
#: enabling ``REPRO_PARALLEL=1`` exercises real pool threads even on
#: single-core CI runners.  Asked of the machine once, here, and not per
#: search: ``os.cpu_count()`` is a ~18 us system call.
_MACHINE_WORKERS = min(MAX_DEFAULT_WORKERS, max(2, os.cpu_count() or 1))


class ExecTimeoutError(TimeoutError):
    """A pooled task did not finish within its per-task timeout."""


def default_pool_size() -> int:
    """Worker count when none is requested explicitly:
    ``REPRO_POOL_SIZE`` if set, else the machine's width."""
    env = os.environ.get("REPRO_POOL_SIZE")
    if env:
        return max(1, int(env))
    return _MACHINE_WORKERS


def parallel_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the three-state ``parallel`` knob against the environment.

    ``REPRO_PARALLEL=0`` forces serial everywhere (the kill switch),
    an explicit per-call ``override`` wins next, and otherwise pooled
    execution is on only when ``REPRO_PARALLEL=1``.
    """
    env = os.environ.get("REPRO_PARALLEL")
    if env == "0":
        return False
    if override is not None:
        return bool(override)
    return env == "1"


_worker_flag = threading.local()


def in_worker_thread() -> bool:
    """True when called from one of the pool's worker threads."""
    return getattr(_worker_flag, "active", False)


class _Task:
    """One unit of pooled work plus its completion latch."""

    __slots__ = ("fn", "ctx", "label", "done", "result", "error")

    def __init__(self, fn: Callable[[], object], label: str):
        self.fn = fn
        # Snapshot the submitter's context so spans opened inside the
        # worker parent to the submitting query's active span.
        self.ctx = contextvars.copy_context()
        self.label = label
        self.done = threading.Event()
        self.result: object = None
        self.error: Optional[BaseException] = None


class WorkerPool:
    """Fixed set of daemon worker threads over one bounded queue.

    The pool can only grow (``ensure_size``); workers idle on the
    queue when there is nothing to do, so an oversized pool costs a
    few parked threads, not CPU.
    """

    #: lock-discipline declaration consumed by tools/reprolint.
    _GUARDED_BY = {
        "_workers": "_lock",
        "tasks_submitted": "_lock",
        "tasks_completed": "_lock",
    }

    def __init__(self, size: int, queue_capacity: int = 0):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        # Leaf role "exec": never held across a task or engine call.
        self._lock = maybe_sanitize(threading.Lock(), "exec")
        self._queue: "queue.Queue[Optional[_Task]]" = queue.Queue(
            maxsize=queue_capacity or size * 8
        )
        self._workers: List[threading.Thread] = []
        self.tasks_submitted = 0
        self.tasks_completed = 0
        self._shutdown = False
        with self._lock:
            self._spawn_locked(size)

    # -- lifecycle ---------------------------------------------------------

    def _spawn_locked(self, target_size: int) -> None:
        while len(self._workers) < target_size:
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"exec-worker-{len(self._workers)}",
                daemon=True,
            )
            self._workers.append(worker)
            worker.start()

    def ensure_size(self, size: int) -> None:
        """Grow the pool to at least ``size`` workers (never shrinks)."""
        with self._lock:
            self._spawn_locked(size)

    @property
    def size(self) -> int:
        return len(self._workers)

    def shutdown(self) -> None:
        """Stop all workers (used by tests; the global pool is immortal)."""
        self._shutdown = True
        for __ in range(len(self._workers)):
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=5.0)

    # -- execution ---------------------------------------------------------

    def _worker_loop(self) -> None:
        _worker_flag.active = True
        while True:
            task = self._queue.get()
            if task is None:
                return
            registry = get_obs().registry
            registry.gauge("exec_queue_depth").set(self._queue.qsize())
            registry.gauge("exec_active_workers").inc()
            try:
                task.result = task.ctx.run(self._run_traced, task)
            except Exception as exc:  # delivered to the waiter
                task.error = exc
            finally:
                registry.gauge("exec_active_workers").dec()
                with self._lock:
                    self.tasks_completed += 1
                task.done.set()

    @staticmethod
    def _run_traced(task: _Task) -> object:
        obs = get_obs()
        with obs.tracer.span("exec.task", label=task.label):
            return task.fn()

    def map_settled(
        self,
        fns: Sequence[Callable[[], object]],
        label: str = "task",
        timeout: Optional[float] = None,
    ) -> List[Tuple[object, Optional[BaseException]]]:
        """Run ``fns`` on the pool; per-slot ``(result, error)`` pairs.

        Results come back in submission order regardless of completion
        order — the property that makes pooled merges bit-identical to
        serial ones.  A task that raised reports ``(None, exc)``; a
        task that outlived ``timeout`` reports
        ``(None, ExecTimeoutError)``.
        """
        if self._shutdown:
            raise RuntimeError("worker pool is shut down")
        tasks = []
        obs = get_obs()
        registry = obs.registry
        for fn in fns:
            task = _Task(fn, label)
            with self._lock:
                self.tasks_submitted += 1
            self._queue.put(task)  # blocks at capacity: backpressure
            registry.gauge("exec_queue_depth").set(self._queue.qsize())
            tasks.append(task)
        # Mirror the saturation signal into the job registry's named
        # queues so /jobs and the health watchdog see pool pressure.
        obs.jobs.set_queue_depth("exec", self._queue.qsize())
        registry.counter("exec_tasks_total").inc(len(tasks))
        settled: List[Tuple[object, Optional[BaseException]]] = []
        for task in tasks:
            if not task.done.wait(timeout):
                settled.append((None, ExecTimeoutError(
                    f"exec task {task.label!r} exceeded {timeout}s"
                )))
                registry.counter("exec_task_timeouts_total").inc()
                continue
            settled.append((task.result, task.error))
        return settled

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": len(self._workers),
                "queue_depth": self._queue.qsize(),
                "tasks_submitted": self.tasks_submitted,
                "tasks_completed": self.tasks_completed,
            }


# -- module-level switchboard (mirrors repro.obs / repro.utils.sanitizer) ---

_pool: Optional[WorkerPool] = None
_state_lock = threading.Lock()


def get_pool(size: Optional[int] = None) -> WorkerPool:
    """The process-wide pool, created lazily; grows to ``size`` workers."""
    global _pool
    wanted = size if size is not None else default_pool_size()
    with _state_lock:
        if _pool is None:
            _pool = WorkerPool(wanted)
        else:
            _pool.ensure_size(wanted)
        return _pool


def shutdown_pool() -> None:
    """Tear down the global pool (tests); recreated on next use."""
    global _pool
    with _state_lock:
        if _pool is not None:
            _pool.shutdown()
            _pool = None
