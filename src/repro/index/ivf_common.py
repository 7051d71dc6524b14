"""Shared machinery for quantization-based (IVF) indexes.

Paper Sec. 3.1: "The coarse quantizer applies the K-means algorithm
... to cluster vectors into K buckets. And the fine quantizer encodes
the vectors within each bucket."  Query processing takes two steps:
(1) find the closest ``nprobe`` buckets by centroid distance; (2) scan
each relevant bucket with the fine quantizer.

:class:`IVFIndexBase` implements the coarse step, the inverted lists,
bucket selection and the probe; fine quantizers implement ``_encode``,
``_row_terms``, ``_begin_scan`` and the reference scorer ``_scan_list``.

The lists are stored contiguously (:class:`InvertedLists`: one
``offsets`` / ``ids`` / ``codes`` CSR per index, the layout of the
Faiss library paper) and read through an immutable snapshot, so the
read path takes no lock.  The probe (``_search_pruned``) is
threshold-pruned: a row is compared with the query's k-th best score
*before* it is kept, so no per-bucket top-k is ever taken.  It runs in
one of two regimes, chosen per request by :func:`probes_query_major`
from the request's shape and ``nlist``: bucket-major — a block of
queries reuses each bucket, paper Sec. 3.2.1 — when the queries share
buckets, query-major — each query straight down its own contiguous
lists, the Faiss library paper's scan — when they do not.  The
definition both must reproduce — results and work counters — is the
plain-numpy oracle in ``tests/test_ivf_scan.py``.

Two search parameters belong to the storage layer above.  ``hidden``
names rows the probe must score but never return (a segment's
tombstoned rows): they are masked in the score block at their own CSR
positions, so ``k`` is not widened for them.  ``collector`` (a
:class:`~repro.utils.topk.TopKCollector`) replaces the result: the
probe hands it every probed row's real score, query-major, takes no
threshold of its own, and returns ``None``.
"""

from __future__ import annotations

import abc
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.index.base import SearchResult, VectorIndex
from repro.index.kmeans import KMeans, assign_to_centroids
from repro.metrics.base import MetricKind
from repro.metrics.dense import l2_squared_pairwise
from repro.obs.profile import current_node
from repro.utils import ensure_positive, sorted_membership
from repro.utils.sanitizer import maybe_sanitize

DEFAULT_NLIST = 128
DEFAULT_NPROBE = 8

#: fine-quantizer terms stored per row, in CSR order (entries may be None)
RowTerms = Tuple[Optional[np.ndarray], ...]


class ListsSnapshot:
    """One immutable CSR image of the inverted lists.

    Bucket ``b`` owns positions ``offsets[b]:offsets[b + 1]`` of
    ``ids``, ``codes`` and every array in ``terms`` (the fine
    quantizer's query-independent per-row terms).  Within a bucket rows
    keep insertion order.  Nothing here is written after construction
    except ``terms``, the id lookup table and the last hidden-row
    translation: data derived from the arrays above (the last also from
    an array its owner never writes into), filled in on first use and
    published by one assignment (a concurrent first use computes them
    twice; both results are identical).
    """

    __slots__ = ("offsets", "ids", "codes", "terms", "_by_id", "_hidden")

    def __init__(self, offsets, ids, codes):
        self.offsets = offsets
        self.ids = ids
        self.codes = codes
        self.terms: Optional[RowTerms] = None
        self._by_id: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: (hidden id array, its CSR positions, their bucket bounds)
        self._hidden: Tuple[Optional[np.ndarray], np.ndarray, np.ndarray] = (
            None, offsets[:0], offsets[:0])

    def positions_of(self, row_ids: np.ndarray) -> np.ndarray:
        """Ascending CSR positions of the rows whose id is in ``row_ids``.

        Costs ``len(row_ids)`` binary searches, not one per stored row:
        a 1 % filter is translated 100x cheaper than a 100 % one.  Ids
        are unique within an index (segment row ids are).
        """
        by_id = self._by_id
        if by_id is None:
            perm = np.argsort(self.ids, kind="stable")
            by_id = self._by_id = (self.ids[perm], perm)
        sorted_ids, perm = by_id
        admissible = np.zeros(len(sorted_ids), dtype=bool)
        if len(row_ids) and len(sorted_ids):
            loc = np.searchsorted(sorted_ids, row_ids)
            np.minimum(loc, len(sorted_ids) - 1, out=loc)
            admissible[perm[loc[sorted_ids[loc] == row_ids]]] = True
        return np.flatnonzero(admissible)

    def hidden_rows(self, hidden: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, bounds)`` of the rows whose id is in ``hidden``:
        ascending CSR positions, and per bucket ``b`` the slice
        ``bounds[b]:bounds[b + 1]`` of them that lies in the bucket.

        Translated once per ``hidden`` array and remembered under the
        array's identity — a segment passes the same array for as long
        as its tombstones stay the same, and never writes into it.
        """
        known_for, positions, bounds = self._hidden
        if known_for is not hidden:
            positions = self.positions_of(hidden)
            bounds = positions.searchsorted(self.offsets)
            self._hidden = (hidden, positions, bounds)
        return positions, bounds

    def derived_bytes(self) -> int:
        """Bytes held beyond ``ids`` and ``codes``."""
        arrays = [self.offsets, *(self.terms or ()), *(self._by_id or ()),
                  *self._hidden[1:]]
        return sum(a.nbytes for a in arrays if a is not None)


class InvertedLists:
    """Contiguous (CSR) inverted lists behind an immutable snapshot.

    Codes are one ndarray with an index-specific dtype/shape chosen by
    the fine quantizer; this class is agnostic.

    Thread-safety: writers :meth:`append` bucket-grouped chunks under
    the leaf lock (sanitizer role ``"ivf-lists"``) and drop the
    published snapshot; the next :meth:`snapshot` call merges the chunks
    with one stable argsort of their bucket labels — under the lock,
    once — and publishes the result by a single assignment.  Readers
    that find a published snapshot take no lock at all; one taken
    before an ``append`` stays valid (it is never mutated) and simply
    does not see the new rows.
    """

    _GUARDED_BY = {"_chunks": "_lock", "_snap": "_lock"}

    def __init__(self, nlist: int):
        self.nlist = nlist
        self._lock = maybe_sanitize(threading.Lock(), "ivf-lists")
        #: every stored row, as (per-bucket counts, ids, codes) chunks
        #: whose rows are already grouped by ascending bucket
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._snap: Optional[ListsSnapshot] = None

    def append(self, counts: np.ndarray, ids: np.ndarray, codes: np.ndarray) -> None:
        """Add rows grouped by bucket: the first ``counts[0]`` rows
        belong to bucket 0, the next ``counts[1]`` to bucket 1, ..."""
        if len(ids) == 0:
            return
        with self._lock:
            self._chunks.append(
                (np.asarray(counts, dtype=np.int64),
                 np.asarray(ids, dtype=np.int64), codes)
            )
            self._snap = None

    def snapshot(self) -> ListsSnapshot:
        """The current CSR image (lock-free once built)."""
        snap = self._snap
        if snap is None:
            with self._lock:
                snap = self._snap
                if snap is None:
                    snap = self._snap = self._build_locked()
        return snap

    def _build_locked(self) -> ListsSnapshot:
        if not self._chunks:
            return ListsSnapshot(
                np.zeros(self.nlist + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64), None,
            )
        if len(self._chunks) > 1:
            # Stable sort of the concatenated labels: bucket-major, and
            # insertion order within a bucket.
            buckets = np.arange(self.nlist)
            labels = np.concatenate(
                [np.repeat(buckets, counts) for counts, __, __ in self._chunks]
            )
            order = np.argsort(labels, kind="stable")
            merged = (
                np.sum([counts for counts, __, __ in self._chunks], axis=0),
                np.concatenate([ids for __, ids, __ in self._chunks])[order],
                np.concatenate([codes for __, __, codes in self._chunks])[order],
            )
            self._chunks = [merged]
        counts, ids, codes = self._chunks[0]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return ListsSnapshot(offsets, ids, codes)

    def sizes(self) -> np.ndarray:
        return np.diff(self.snapshot().offsets)

    @property
    def total(self) -> int:
        return len(self.snapshot().ids)

    def memory_bytes(self) -> int:
        """Resident bytes; does not force a pending merge."""
        with self._lock:
            total = sum(i.nbytes + c.nbytes for __, i, c in self._chunks)
            snap = self._snap
        return total + (snap.derived_bytes() if snap is not None else 0)


class IVFIndexBase(VectorIndex):
    """Coarse-quantized inverted-file index base class."""

    requires_training = True
    SEARCH_PARAMS = frozenset({"nprobe", "row_filter", "hidden", "collector"})

    def __init__(
        self,
        dim: int,
        metric="l2",
        nlist: int = DEFAULT_NLIST,
        kmeans_iters: int = 20,
        seed: Optional[int] = 0,
    ):
        super().__init__(dim, metric)
        if self.metric.kind is not MetricKind.DENSE:
            raise ValueError("IVF indexes support dense metrics only")
        self.nlist = ensure_positive(nlist, "nlist")
        self.kmeans_iters = kmeans_iters
        self.seed = seed
        self.centroids: Optional[np.ndarray] = None
        self.lists = InvertedLists(self.nlist)
        self._ntotal = 0

    # -- training --------------------------------------------------------

    def _train(self, vectors: np.ndarray) -> None:
        if len(vectors) < self.nlist:
            raise ValueError(
                f"training needs at least nlist={self.nlist} vectors, got {len(vectors)}"
            )
        km = KMeans(self.nlist, max_iter=self.kmeans_iters, seed=self.seed)
        km.fit(vectors)
        self.centroids = km.centroids
        self._train_fine(vectors)

    def _train_fine(self, vectors: np.ndarray) -> None:
        """Hook: fine quantizers learn their codebooks here."""

    # -- ingest ------------------------------------------------------------

    def _add(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        labels, __ = assign_to_centroids(vectors, self.centroids)
        # One gather straight into CSR order (it also detaches the
        # stored codes from the caller's array).
        order = np.argsort(labels, kind="stable")
        self.lists.append(
            np.bincount(labels, minlength=self.nlist),
            ids[order],
            self._encode(vectors)[order],
        )
        self._ntotal += len(vectors)

    def warm(self) -> None:
        """Build the CSR snapshot and its per-row terms now, so the
        first search pays only the scans."""
        self._snapshot()

    def _snapshot(self) -> ListsSnapshot:
        """The lists' current image, with its per-row terms filled in."""
        snap = self.lists.snapshot()
        if snap.terms is None and snap.codes is not None:
            snap.terms = self._row_terms(snap.codes)
        return snap

    # -- search --------------------------------------------------------------

    def select_buckets(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """Step 1: the ``nprobe`` closest buckets per query, best-first."""
        nprobe = min(ensure_positive(nprobe, "nprobe"), self.nlist)
        node = current_node()
        if node is not None:
            # Coarse step: every query is scored against every centroid.
            node.count("distance_evals", len(queries) * len(self.centroids))
        coarse = l2_squared_pairwise(queries, self.centroids)
        part = np.argpartition(coarse, nprobe - 1, axis=1)[:, :nprobe]
        rows = np.arange(len(queries))[:, np.newaxis]
        order = np.argsort(coarse[rows, part], axis=1, kind="stable")
        return part[rows, order]

    def _search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = DEFAULT_NPROBE,
        row_filter: Optional[np.ndarray] = None,
        hidden: Optional[np.ndarray] = None,
        collector=None,
        **params,
    ) -> Optional[SearchResult]:
        """Two-step IVF search.

        Args:
            nprobe: number of buckets to probe (accuracy/speed knob).
            row_filter: optional sorted int64 array of admissible row
                ids (used by attribute-filtering strategy B).
            hidden: optional sorted int64 array of row ids to score but
                never return (the owning segment's tombstoned rows).
            collector: hand every probed row's score to this
                :class:`~repro.utils.topk.TopKCollector` and return
                ``None`` instead of a result.
        """
        if params:
            raise TypeError(f"unknown search params: {sorted(params)}")
        bucket_ids = self.select_buckets(queries, nprobe)
        return self._search_pruned(
            queries, k, bucket_ids, row_filter,
            probes_query_major(*bucket_ids.shape, self.nlist),
            hidden, collector,
        )

    def _search_pruned(
        self,
        queries: np.ndarray,
        k: int,
        bucket_ids: np.ndarray,
        row_filter: Optional[np.ndarray],
        query_major: bool,
        hidden: Optional[np.ndarray] = None,
        collector=None,
    ) -> Optional[SearchResult]:
        """Threshold-pruned probe over the CSR snapshot, in the regime
        ``query_major`` names (:func:`probes_query_major` chooses it).

        Either regime scores every probed admissible row exactly once
        and returns, per query, every row at or under a threshold that
        is no better than the query's k-th best score.  One sort of
        those few survivors — by (score, CSR position), which depends
        neither on a query's batch-mates nor on the regime — is then
        exact over the probed rows.  Work counters follow from the
        bucket sizes alone.

        ``hidden`` rows are scored where they lie and keyed ``+inf``
        (under a ``row_filter`` they are simply not admissible); either
        way they count as pruned.  With a ``collector`` the threshold
        and the sort are the collector's: it is handed each query's
        probed scores, which is query-major work whatever the shape.
        """
        snap = self._snapshot()
        # bounds[b]:bounds[b + 1] delimits bucket b's admissible rows:
        # CSR positions when unfiltered, indices into `positions` (the
        # filter translated once into ascending CSR positions) otherwise.
        positions, bounds = None, snap.offsets
        masked = None
        if hidden is not None and len(hidden):
            masked = snap.hidden_rows(hidden)
        if row_filter is not None:
            positions = snap.positions_of(np.asarray(row_filter, dtype=np.int64))
            if masked is not None:
                positions = positions[~sorted_membership(positions, masked[0])]
                masked = None
            bounds = np.searchsorted(positions, snap.offsets)
        node = current_node()
        if node is not None:
            sizes = np.diff(snap.offsets)[bucket_ids]
            scanned = int(sizes.sum())
            kept = int(np.diff(bounds)[bucket_ids].sum())
            pruned = scanned - kept
            if masked is not None:
                pruned += int(np.diff(masked[1])[bucket_ids].sum())
            _count_probe(
                node, int(np.count_nonzero(sizes)), scanned,
                pruned, kept, kept * self.row_code_bytes(),
            )

        scan = self._begin_scan(queries, snap)
        if collector is not None:
            scored, __, __ = _score_query_major(
                scan, bucket_ids, positions, bounds, masked)
            for qi, __, keyed, rows in scored:
                collector.add(qi, scan.final(qi, keyed), _taken(snap.ids, rows))
            return None
        probe = _probe_query_major if query_major else _probe_bucket_major
        q, where, key = probe(scan, k, bucket_ids, positions, bounds, masked)
        if masked is not None:
            live = key < np.inf
            q, where, key = q[live], where[live], key[live]
        pos = where if positions is None else positions[where]

        result = SearchResult.empty(len(queries), k, self.metric)
        order = np.lexsort((pos, key, q))
        q = q[order]
        # rank within the query's run of the sorted survivors
        rank = np.arange(len(q)) - q.searchsorted(q)
        top = rank < k
        order, q, rank = order[top], q[top], rank[top]
        result.ids[q, rank] = snap.ids[pos[order]]
        result.scores[q, rank] = scan.final(q, key[order])
        return result

    def _range_search(
        self, queries: np.ndarray, radius: float, nprobe: int = DEFAULT_NPROBE,
        **params,
    ):
        """Approximate range search: scan the ``nprobe`` nearest buckets
        and keep every row passing the radius (recall bounded by bucket
        coverage, like top-k IVF search)."""
        if params:
            raise TypeError(f"unknown range params: {sorted(params)}")
        bucket_ids = self.select_buckets(queries, nprobe)
        snap = self._snapshot()
        scan = self._begin_scan(queries, snap)
        node = current_node()
        out = [[] for __ in range(len(queries))]
        for qi in range(len(queries)):
            qidx = np.array([qi], dtype=np.int64)
            for list_no in bucket_ids[qi]:
                lo, hi = snap.offsets[list_no], snap.offsets[list_no + 1]
                if lo == hi:
                    continue
                if node is not None:
                    node.count("distance_evals", int(hi - lo))
                    node.count("bytes_read", int(hi - lo) * self.row_code_bytes())
                scores = scan.final(qidx, scan.keyed(slice(lo, hi), qidx)[:, 0])
                if self.metric.higher_is_better:
                    hits = np.flatnonzero(scores >= radius)
                else:
                    hits = np.flatnonzero(scores <= radius)
                ids = snap.ids[lo:hi]
                out[qi].extend((int(ids[h]), float(scores[h])) for h in hits)
            out[qi].sort(key=lambda p: p[1], reverse=self.metric.higher_is_better)
        return out

    # -- fine quantizer hooks ---------------------------------------------

    @abc.abstractmethod
    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        """Encode raw vectors into this index's code format."""

    def _row_terms(self, codes: np.ndarray) -> RowTerms:
        """Hook: query-independent per-row terms, stored in CSR order
        beside ``codes`` (squared norms, cast codes, flat LUT indices)."""
        return ()

    def _begin_scan(self, queries: np.ndarray, snap: ListsSnapshot):
        """Hook: the per-request scan state.

        Built once per search, before any bucket is scanned, so nothing
        that depends on the queries alone is recomputed per bucket.  It
        offers ``keyed(rows, qidx)`` — a C-contiguous ``(rows, queries)``
        block scoring the CSR rows ``rows`` (a slice or a position
        array) against the request's queries ``qidx`` (an index array
        or a slice), keyed so that lower is better — and ``final(qidx,
        keyed)``, the real metric scores.  A scan that can score CSR
        ranges where they lie also offers ``keyed_ranges(ranges, qi)``:
        one query against consecutive ``(lo, hi)`` ranges, 1-D.  The
        default serves any dense metric through the reference scorer.
        """
        return _ReferenceScan(self, queries, snap.codes)

    @abc.abstractmethod
    def _scan_list(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Reference scorer: queries against raw codes -> (m, len(codes))."""

    # -- introspection -------------------------------------------------------

    @property
    def ntotal(self) -> int:
        return self._ntotal

    def memory_bytes(self) -> int:
        total = self.lists.memory_bytes()
        if self.centroids is not None:
            total += self.centroids.nbytes
        return total

    def bucket_sizes(self) -> np.ndarray:
        """Occupancy per bucket (diagnostics / scheduler input)."""
        return self.lists.sizes()

    def stats(self) -> Dict[str, object]:
        base = super().stats()
        base["nlist"] = self.nlist
        if self._ntotal:
            sizes = self.bucket_sizes()
            base["bucket_min"] = int(sizes.min())
            base["bucket_max"] = int(sizes.max())
        return base


#: (query, bucket) pairs per list up to which a request is probed
#: query-major.  Measured, not derived: see :func:`probes_query_major`.
QUERY_MAJOR_PAIRS_PER_LIST = 2


def probes_query_major(nq: int, nprobe: int, nlist: int) -> bool:
    """Whether a request of ``nq`` queries probing ``nprobe`` of
    ``nlist`` buckets each is scanned query-major.

    The bucket-major probe pays an argsort of the (query, bucket) pairs
    and a compare, a ``nonzero`` and a gather per distinct bucket so
    that a bucket is scored once for all the queries that probe it
    (paper Sec. 3.2.1).  That buys nothing until queries share buckets:
    with few pairs per list nearly every probed bucket has one query,
    and each query goes straight down its own lists instead.  Where
    sharing starts to pay was measured — the regime sweep of
    ``benchmarks/bench_ablation_batched_ivf.py --regimes``, recorded in
    EXPERIMENTS.md: from 2k to 30k rows and 32 to 512 lists query-major
    takes 0.4-0.9x the time of bucket-major up to one pair per list,
    0.6-1.2x at two and 0.9-5x from four on.
    """
    return nq * nprobe <= QUERY_MAJOR_PAIRS_PER_LIST * nlist


def _probe_bucket_major(scan, k, bucket_ids, positions, bounds, masked=None):
    """Survivors of a probe that reuses each bucket across queries, as
    (query, index into ``bounds`` space, keyed score) arrays.

    Pass 1 scans each query's *nearest* bucket and takes the k-th best
    score there as that query's threshold (infinite when the bucket
    holds fewer than k admissible rows).  Pass 2 scans the remaining
    (query, bucket) pairs and keeps only rows at or under the
    threshold — a compare and a ``nonzero`` per bucket where a
    per-bucket top-k would be an ``argpartition`` over every score.
    In both passes the pairs are grouped by bucket with one argsort and
    each distinct bucket is scored once for all its queries.  The rows
    ``masked`` names (``ListsSnapshot.hidden_rows``) are keyed ``+inf``
    before either pass looks at the block, so they neither set a
    threshold nor pass one that is finite.
    """
    nq, nprobe = bucket_ids.shape
    threshold = np.full(nq, np.inf, dtype=np.float32)
    # (nothing hidden: any bounds do, the spans below never look inside)
    hidden, hidden_bounds = masked if masked is not None else (None, bounds)

    def probe(pair_q: np.ndarray, pair_b: np.ndarray, first: bool):
        order = np.argsort(pair_b, kind="stable")
        pair_q, pair_b = pair_q[order], pair_b[order]
        cuts = (np.flatnonzero(np.diff(pair_b)) + 1).tolist()
        starts = [0, *cuts]
        buckets = pair_b[starts]
        spans = zip(starts, [*cuts, len(pair_b)],
                    bounds[buckets].tolist(), bounds[buckets + 1].tolist(),
                    hidden_bounds[buckets].tolist(),
                    hidden_bounds[buckets + 1].tolist())
        hits, keys, groups = [], [], []
        for start, stop, lo, hi, dead_lo, dead_hi in spans:
            if lo == hi:
                continue
            qidx = pair_q[start:stop]
            rows = slice(lo, hi) if positions is None else positions[lo:hi]
            keyed = scan.keyed(rows, qidx)
            if hidden is not None and dead_lo < dead_hi:
                keyed[hidden[dead_lo:dead_hi] - lo] = np.inf
            if first and hi - lo >= k:
                threshold[qidx] = np.partition(keyed, k - 1, axis=0)[k - 1]
            # flat indices into the (rows, queries) block: a 2-D
            # nonzero costs three times the flat one
            hit = (keyed <= threshold[qidx]).ravel().nonzero()[0]
            if len(hit):
                hits.append(hit)
                keys.append(keyed.take(hit))
                groups.append((len(hit), stop - start, start, lo))
        if not hits:
            return pair_q[:0], pair_q[:0], threshold[:0]
        groups = np.array(groups)
        width, start, lo = np.repeat(groups[:, 1:], groups[:, 0], axis=0).T
        row, col = np.divmod(np.concatenate(hits), width)
        return pair_q[start + col], lo + row, np.concatenate(keys)

    all_q = np.arange(nq)
    found = [probe(all_q, bucket_ids[:, 0], first=True)]
    if nprobe > 1:
        found.append(probe(
            np.repeat(all_q, nprobe - 1), bucket_ids[:, 1:].ravel(),
            first=False,
        ))
    return tuple(np.concatenate(part) for part in zip(*found))


def _score_query_major(scan, bucket_ids, positions, bounds, masked=None):
    """Each query straight down its own lists: an iterator over
    ``(query, number of its first probed row, keyed scores of its
    probed rows, the rows)`` for every query that probes any row, and
    the arrays that turn row numbers back into ``bounds`` space.

    Probed rows are numbered query by query, each query's ranges in
    probe order.  A query's ranges are scored into one array — range by
    range on CSR views where the scan state can (``keyed_ranges``; the
    rows are then a list of ``(lo, hi)`` CSR ranges), in one gather
    otherwise (the rows are an array of CSR positions).  Rows that
    ``masked`` names (``ListsSnapshot.hidden_rows``; unfiltered probes
    only) are keyed ``+inf`` where they lie.
    """
    lo, hi = bounds[bucket_ids], bounds[bucket_ids + 1]
    sizes = (hi - lo).ravel()
    ends = sizes.cumsum()
    # base[p] turns the numbers of pair p's rows into their indices in
    # bounds space.
    base = lo.ravel() - (ends - sizes)
    by_range = getattr(scan, "keyed_ranges", None) if positions is None else None
    if by_range is None:
        rows = base.repeat(sizes)
        rows += np.arange(len(rows))
        if positions is not None:
            rows = positions[rows]
    dead = None
    if masked is not None:
        # the numbers of the hidden rows among the probed ones, ascending
        hidden, hidden_bounds = masked
        first = hidden_bounds[bucket_ids].ravel()
        counts = hidden_bounds[bucket_ids + 1].ravel() - first
        if counts.any():
            pairs = np.flatnonzero(counts)
            counts = counts[pairs]
            within = np.arange(counts.sum()) - (counts.cumsum() - counts).repeat(counts)
            dead = hidden[first[pairs].repeat(counts) + within] - base[pairs].repeat(counts)

    def scored():
        stop = 0
        for qi, (los, his) in enumerate(zip(lo.tolist(), hi.tolist())):
            start, stop = stop, stop + sum(his) - sum(los)
            if start == stop:
                continue
            if by_range is not None:
                taken = [(a, b) for a, b in zip(los, his) if a < b]
                keyed = by_range(taken, qi)
            else:
                taken = rows[start:stop]
                keyed = scan.keyed(taken, slice(qi, qi + 1))[:, 0]
            if dead is not None:
                a, b = dead.searchsorted((start, stop))
                keyed[dead[a:b] - start] = np.inf
            yield qi, start, keyed, taken

    return scored(), ends, base


def _taken(values: np.ndarray, rows) -> List[np.ndarray]:
    """``values`` at the rows :func:`_score_query_major` reports, as
    arrays that end to end line up with the scores."""
    if isinstance(rows, list):
        return [values[a:b] for a, b in rows]
    return [values[rows]]


def _probe_query_major(scan, k, bucket_ids, positions, bounds, masked=None):
    """Survivors, as :func:`_probe_bucket_major` returns them, of a
    probe that takes each query straight down its own lists.

    One ``partition`` of a query's probed scores
    (:func:`_score_query_major`) gives its exact k-th best score as the
    threshold.  Nothing is sorted, compared or gathered per bucket.
    """
    scored, ends, base = _score_query_major(
        scan, bucket_ids, positions, bounds, masked)
    hits, keys = [], []
    for __, start, keyed, __ in scored:
        kth = min(k, len(keyed)) - 1
        hit = (keyed <= np.partition(keyed, kth)[kth]).nonzero()[0]
        keys.append(keyed[hit])
        hit += start
        hits.append(hit)
    if not hits:
        return base[:0], base[:0], np.empty(0, dtype=np.float32)
    hit = np.concatenate(hits)
    pair = ends.searchsorted(hit, side="right")
    return pair // bucket_ids.shape[1], hit + base[pair], np.concatenate(keys)


class _ReferenceScan:
    """Scan state for dense metrics without a kernel: the fine
    quantizer's reference scorer on each row range."""

    def __init__(self, index: IVFIndexBase, queries: np.ndarray, codes: np.ndarray):
        self.index, self.queries, self.codes = index, queries, codes
        self.negated = index.metric.higher_is_better

    def keyed(self, rows, qidx: np.ndarray) -> np.ndarray:
        scores = self.index._scan_list(self.queries[qidx], self.codes[rows])
        keyed = np.ascontiguousarray(scores.T, dtype=np.float32)
        return -keyed if self.negated else keyed

    def final(self, qidx: np.ndarray, keyed: np.ndarray) -> np.ndarray:
        return -keyed if self.negated else keyed


def _count_probe(node, buckets_probed, rows_scanned, pruned, evals, nbytes) -> None:
    """Record one search's work counters (zero counts stay absent)."""
    node.count("buckets_probed", buckets_probed)
    node.count("rows_scanned", rows_scanned)
    for name, value in (("candidates_pruned", pruned),
                        ("distance_evals", evals), ("bytes_read", nbytes)):
        if value:
            node.count(name, value)
