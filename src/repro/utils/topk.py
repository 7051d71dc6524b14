"""Top-k machinery used across the query engine.

The paper's cache-aware design (Sec. 3.2.1) keeps one bounded heap per
(query, thread) pair and merges them at the end; :class:`TopKHeap` and
:func:`merge_topk` are those two primitives.  For fully vectorized
paths, :func:`topk_from_scores` extracts top-k directly from a score
array with ``argpartition``.  :class:`TopKCollector` is the Faiss
library paper's form of the same idea across scans: every scan of a
request hands over raw scores, and one threshold per query — not one
top-k per scan — decides what survives.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.metrics.base import Metric


class TopKHeap:
    """Bounded heap keeping the ``k`` best (id, score) pairs.

    Direction-agnostic: pass ``higher_is_better`` to match the metric.
    Internally a heap of ``(keyed_score, id)`` where ``keyed_score`` is
    negated for distance metrics so the root is always the current
    *worst* retained entry.
    """

    def __init__(self, k: int, higher_is_better: bool = False):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.higher_is_better = higher_is_better
        self._heap: List[Tuple[float, int]] = []

    def _key(self, score: float) -> float:
        return score if self.higher_is_better else -score

    def push(self, item_id: int, score: float) -> bool:
        """Offer one candidate; returns True when it was retained."""
        keyed = self._key(score)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (keyed, item_id))
            return True
        if keyed > self._heap[0][0]:
            heapq.heapreplace(self._heap, (keyed, item_id))
            return True
        return False

    def push_many(self, ids: Sequence[int], scores: Sequence[float]) -> None:
        """Offer a batch of candidates.

        Hot path in graph-index search: candidates worse than the
        current ``worst_score()`` are dropped by one vectorized compare
        before the Python-level heap loop.  The prefilter uses the
        worst score at batch start — conservative, since pushes only
        tighten it — and :meth:`push` still re-checks each survivor,
        so results are identical to the per-element loop.
        """
        ids = np.asarray(ids)
        scores = np.asarray(scores)
        if len(ids) == 0:
            return
        start = 0
        if not self.is_full():
            fill = min(self.k - len(self._heap), len(ids))
            for i in range(fill):
                self.push(int(ids[i]), float(scores[i]))
            start = fill
            if start >= len(ids):
                return
        worst = self.worst_score()
        if self.higher_is_better:
            mask = scores[start:] > worst
        else:
            mask = scores[start:] < worst
        for item_id, score in zip(ids[start:][mask], scores[start:][mask]):
            self.push(int(item_id), float(score))

    def worst_score(self) -> float:
        """Score of the current k-th best entry (the heap's root)."""
        if not self._heap:
            return -np.inf if self.higher_is_better else np.inf
        keyed = self._heap[0][0]
        return keyed if self.higher_is_better else -keyed

    def is_full(self) -> bool:
        return len(self._heap) >= self.k

    def __len__(self) -> int:
        return len(self._heap)

    def items(self) -> List[Tuple[int, float]]:
        """Retained (id, score) pairs sorted best-first."""
        ordered = sorted(self._heap, key=lambda pair: pair[0], reverse=True)
        if self.higher_is_better:
            return [(item_id, keyed) for keyed, item_id in ordered]
        return [(item_id, -keyed) for keyed, item_id in ordered]


def topk_from_scores(
    scores: np.ndarray,
    k: int,
    higher_is_better: bool = False,
    ids: np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Extract top-k (ids, scores) from a 1-D score array, best-first.

    Uses ``argpartition`` for the selection and a final sort of the k
    survivors, the standard O(n + k log k) pattern.
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ValueError(f"expected 1-D scores, got shape {scores.shape}")
    n = scores.shape[0]
    k_eff = min(k, n)
    if k_eff == 0:
        empty_ids = np.empty(0, dtype=np.int64)
        return empty_ids, np.empty(0, dtype=scores.dtype)
    keyed = -scores if higher_is_better else scores
    if k_eff < n:
        part = np.argpartition(keyed, k_eff - 1)[:k_eff]
    else:
        part = np.arange(n)
    order = part[np.argsort(keyed[part], kind="stable")]
    out_ids = order if ids is None else np.asarray(ids)[order]
    return out_ids.astype(np.int64), scores[order]


def merge_topk(
    parts: Iterable[Tuple[np.ndarray, np.ndarray]],
    k: int,
    higher_is_better: bool = False,
    dtype: np.dtype | type | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge several already-computed (ids, scores) partial results.

    This is the per-thread heap merge of the cache-aware design and the
    per-segment merge used by LSM search.  ``dtype`` pins the score
    dtype of the empty result (default float32); non-empty results keep
    the input dtype as before.
    """
    all_ids: List[np.ndarray] = []
    all_scores: List[np.ndarray] = []
    for ids, scores in parts:
        if len(ids):
            all_ids.append(np.asarray(ids, dtype=np.int64))
            all_scores.append(np.asarray(scores))
    if not all_ids:
        empty_dtype = np.dtype(dtype) if dtype is not None else np.float32
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=empty_dtype)
    ids_cat = np.concatenate(all_ids)
    scores_cat = np.concatenate(all_scores)
    return topk_from_scores(scores_cat, k, higher_is_better, ids=ids_cat)


def merge_topk_batch(
    partials: Sequence[Tuple[np.ndarray, np.ndarray]],
    k: int,
    higher_is_better: bool = False,
    nq: int | None = None,
    dtype: np.dtype | type | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge padded ``(nq, k_i)`` partial results for *all* queries at once.

    Each partial is an ``(ids, scores)`` pair in the
    :class:`~repro.index.base.SearchResult` convention: ids padded with
    ``-1``, scores padded with the metric's worst value.  Replaces the
    per-query Python merge loop with one concatenate + ``argpartition``
    + stable argsort over the whole query block.

    Pad slots are keyed to ``+inf`` so they sort after every real
    candidate; surviving pads come back as ``(-1, worst)``.  Output is
    always ``(nq, k)``.  Score dtype follows the inputs (``dtype``
    overrides); ``nq`` is only required when ``partials`` is empty.
    """
    worst = -np.inf if higher_is_better else np.inf
    parts = [
        (np.atleast_2d(np.asarray(ids, dtype=np.int64)), np.atleast_2d(scores))
        for ids, scores in partials
    ]
    parts = [(ids, scores) for ids, scores in parts if ids.shape[1] > 0]
    if not parts:
        if nq is None:
            raise ValueError("nq is required when partials are empty")
        out_dtype = np.dtype(dtype) if dtype is not None else np.float32
        return (
            np.full((nq, k), -1, dtype=np.int64),
            np.full((nq, k), worst, dtype=out_dtype),
        )
    ids_cat = np.concatenate([ids for ids, __ in parts], axis=1)
    scores_cat = np.concatenate([scores for __, scores in parts], axis=1)
    if dtype is not None:
        scores_cat = scores_cat.astype(dtype, copy=False)
    n, total = ids_cat.shape
    if nq is not None and nq != n:
        raise ValueError(f"partials have {n} queries, expected {nq}")
    keyed = -scores_cat if higher_is_better else scores_cat.copy()
    keyed[ids_cat < 0] = np.inf
    k_eff = min(k, total)
    if k_eff < total:
        sel = np.argpartition(keyed, k_eff - 1, axis=1)[:, :k_eff]
    else:
        sel = np.broadcast_to(np.arange(total), (n, total))
    order = np.argsort(np.take_along_axis(keyed, sel, axis=1), axis=1, kind="stable")
    idx = np.take_along_axis(sel, order, axis=1)
    out_ids = np.take_along_axis(ids_cat, idx, axis=1)
    out_scores = np.take_along_axis(scores_cat, idx, axis=1)
    out_scores[out_ids < 0] = worst
    if k_eff < k:
        pad = k - k_eff
        out_ids = np.pad(out_ids, ((0, 0), (0, pad)), constant_values=-1)
        out_scores = np.pad(out_scores, ((0, 0), (0, pad)), constant_values=worst)
    return out_ids, out_scores


class TopKCollector:
    """One request's candidates from every scan, closed by one
    selection per query.

    A scan contributes, per query, whatever it scored — the rows of its
    probed lists, a whole unindexed segment, or an already finished
    top-k — as *real metric scores*, so that parts scored by different
    kernels compare.  Nothing is selected until :meth:`close`: one
    ``partition`` over everything a query collected gives its exact
    k-th best score, and one sort orders the few rows at or under it.
    Equal scores order by contribution: the scan that added first, then
    the position within what it added.

    A row a scan must hide (a tombstone) stays in place and carries the
    metric's worst value; such a row is never returned, so a scan need
    neither compact its scores nor ask for more than ``k``.

    Not thread-safe: the scans of one request run on one thread.
    """

    def __init__(self, nq: int, k: int, higher_is_better: bool = False):
        self.k = k
        self.higher_is_better = higher_is_better
        self._scores: List[List[np.ndarray]] = [[] for __ in range(nq)]
        self._ids: List[List[np.ndarray]] = [[] for __ in range(nq)]

    def add(self, qi: int, scores: np.ndarray, ids: Sequence[np.ndarray]) -> None:
        """Candidates of query ``qi``: 1-D ``scores`` and the id arrays
        that, end to end, line up with them."""
        self._scores[qi].append(scores)
        self._ids[qi].extend(ids)

    def add_result(self, ids: np.ndarray, scores: np.ndarray) -> None:
        """A finished ``(nq, k')`` result in the ``SearchResult``
        convention (best-first, padded with id ``-1``)."""
        valid = (ids >= 0).sum(axis=1).tolist()
        for qi, n in enumerate(valid):
            if n:
                self.add(qi, scores[qi, :n], (ids[qi, :n],))

    def close(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, scores)``, ``(nq, k)`` best-first, padded with id
        ``-1`` and the worst score; scores are float64."""
        nq, k = len(self._scores), self.k
        out_ids = np.full((nq, k), -1, dtype=np.int64)
        keys = np.full((nq, k), np.inf, dtype=np.float64)
        for qi, parts in enumerate(self._scores):
            if not parts:
                continue
            keyed = np.concatenate(parts)
            if self.higher_is_better:
                np.negative(keyed, out=keyed)
            # Hidden rows are keyed +inf: they lose to every real row
            # and, when fewer than k real rows exist, are cut here.
            kth = np.partition(keyed, k - 1)[k - 1] if len(keyed) > k else np.inf
            hit = (keyed <= kth if kth < np.inf else keyed < np.inf).nonzero()[0]
            key = keyed[hit]
            # stable, and the hits ascend: ties keep contribution order
            order = key.argsort(kind="stable")[:k]
            out_ids[qi, :len(order)] = np.concatenate(self._ids[qi])[hit[order]]
            keys[qi, :len(order)] = key[order]
        return out_ids, -keys if self.higher_is_better else keys


def merge_result_lists(
    parts: Iterable[Sequence[Tuple[int, float]]],
    k: int,
    metric: Metric,
) -> List[Tuple[int, float]]:
    """Merge lists of (id, score) pairs under ``metric`` ordering."""
    heap = TopKHeap(k, higher_is_better=metric.higher_is_better)
    for part in parts:
        for item_id, score in part:
            heap.push(item_id, score)
    return heap.items()
