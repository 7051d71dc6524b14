"""Per-owner cache of data-side kernel precomputations.

The L2 kernel lowers onto one GEMM via the expansion
``|q - x|^2 = |q|^2 - 2 q.x + |x|^2`` (paper Sec. 3.2); the data-side
``|x|^2`` term depends only on the stored vectors, yet the serial
engine recomputed it for every query batch.  A :class:`NormCache`
hangs off each owner of immutable vector data — one per
:class:`~repro.storage.segment.Segment` and one per
:class:`~repro.index.ivf_flat.IVFFlatIndex` — and memoizes:

* ``squared_norms`` — the ``|x|^2`` row vector (L2 scans);
* ``inverse_norms`` — the ``1/|x|`` row vector (cosine scans that
  score the stored rows as they are);
* ``unit_rows`` — unit-normalized rows (cosine scans).

Keys are caller-chosen (field name for segments, ``(bucket, size)``
for IVF inverted lists).  Invalidation rules (docs/INTERNALS.md §13):
segments are immutable after sealing, so a segment's cache lives and
dies with the segment object (merge produces a *new* segment, and a
bufferpool eviction drops cache and segment together); IVF indexes
call :meth:`invalidate` from ``_add`` because appends mutate bucket
contents in place.

Hit/miss counters land in the metrics registry
(``normcache_hits_total`` / ``normcache_misses_total``), so the cache
hit rate is readable from ``GET /metrics``.

Lock discipline: the internal lock (sanitizer role ``"normcache"``)
is a strict leaf — held only around dict reads/writes, never across
the numpy precomputation or any engine call.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, Tuple

import numpy as np

from repro.index.kernels import row_term
from repro.metrics.dense import squared_norms as _squared_norms
from repro.metrics.dense import unit_rows as _unit_rows
from repro.obs import get_obs
from repro.obs.profile import profile_count
from repro.utils.sanitizer import maybe_sanitize

__all__ = ["NormCache"]


class NormCache:
    """Memoized data-side norms / unit rows for one immutable owner."""

    #: lock-discipline declaration consumed by tools/reprolint.
    _GUARDED_BY = {"_entries": "_lock"}

    def __init__(self):
        self._lock = maybe_sanitize(threading.Lock(), "normcache")
        self._entries: Dict[Tuple[str, Hashable], np.ndarray] = {}

    def _get(
        self,
        kind: str,
        key: Hashable,
        compute: Callable[[], np.ndarray],
    ) -> np.ndarray:
        full_key = (kind, key)
        with self._lock:
            value = self._entries.get(full_key)
        registry = get_obs().registry
        if value is not None:
            registry.counter("normcache_hits_total", kind=kind).inc()
            profile_count("normcache_hits")
            return value
        # Compute outside the lock (it is a leaf); a concurrent miss on
        # the same key computes twice and last-write-wins — benign,
        # both values are identical functions of immutable data.
        value = compute()
        with self._lock:
            self._entries[full_key] = value
        registry.counter("normcache_misses_total", kind=kind).inc()
        profile_count("normcache_misses")
        return value

    def squared_norms(self, key: Hashable, data: np.ndarray) -> np.ndarray:
        """Cached ``|x|^2`` per row of ``data`` (L2 expansion term)."""
        return self._get("sqnorm", key, lambda: _squared_norms(data))

    def inverse_norms(self, key: Hashable, data: np.ndarray) -> np.ndarray:
        """Cached ``1/|x|`` per row of ``data``, 0 for a zero row (the
        cosine row term of :class:`~repro.index.kernels.GemmScan`)."""
        return self._get(
            "invnorm", key, lambda: row_term("cosine", _squared_norms(data)))

    def unit_rows(self, key: Hashable, data: np.ndarray) -> np.ndarray:
        """Cached unit-normalized rows of ``data`` (cosine kernel)."""
        return self._get("unit", key, lambda: _unit_rows(data))

    def invalidate(self) -> None:
        """Drop everything (owner's data mutated, e.g. IVF append)."""
        with self._lock:
            self._entries.clear()

    def memory_bytes(self) -> int:
        with self._lock:
            return sum(v.nbytes for v in self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
