"""Immutable columnar segments (paper Sec. 2.3/2.4).

"Both index and data are stored in the same segment.  Thus, the
segment is the basic unit of searching, scheduling, and buffering."

A segment stores, for ``n`` entities:

* ``row_ids`` — sorted int64 global row ids;
* one columnar vector matrix per vector field, in row-id order (the
  paper: "all the vectors are sorted by row IDs ... Milvus can
  directly access the corresponding vector");
* one :class:`AttributeColumn` per numeric attribute;
* optionally one :class:`VectorIndex` per vector field, built lazily
  for large segments.

Segments serialize to a single object on any :class:`FileSystem`: an
uncompressed npz with a JSON ``meta`` entry, from the same writer as
serialized indexes (:func:`repro.utils.npz.npz_bytes`).  Entries are
stored, not deflated: zlib saved 11 % of a 30k-row segment's bytes for
40-50x the write time (EXPERIMENTS.md, "Sealing a segment").  Blobs
written deflated by earlier versions still load.  Indexes persist
beside the segment (:mod:`repro.index.io`) or, for graph and tree
indexes, are rebuilt on load, mirroring Milvus's asynchronous index
building.
"""

from __future__ import annotations

import io
import json
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.exec.normcache import NormCache
from repro.index import create_index
from repro.index.base import SearchResult, VectorIndex
from repro.index.kernels import GEMM_METRICS, GemmScan
from repro.metrics import get_metric
from repro.metrics.dense import cosine_pairwise, l2_squared_pairwise
from repro.obs import get_obs
from repro.obs.profile import current_node
from repro.storage.attributes import AttributeColumn, merge_columns
from repro.storage.bloom import BloomFilter
from repro.storage.categorical import CategoricalColumn
from repro.utils import TopKCollector, sorted_membership, topk_from_scores
from repro.utils.npz import npz_bytes

#: vector fields spec: name -> (dim, metric_name)
VectorSpecs = Dict[str, Tuple[int, str]]

_NO_ROWS = np.empty(0, dtype=np.int64)


class Segment:
    """One immutable sealed segment."""

    def __init__(
        self,
        segment_id: int,
        row_ids: np.ndarray,
        vectors: Dict[str, np.ndarray],
        attributes: Dict[str, AttributeColumn],
        vector_specs: VectorSpecs,
        version: int = 0,
        categoricals: Optional[Dict[str, "CategoricalColumn"]] = None,
        bloom: Optional[BloomFilter] = None,
    ):
        self.segment_id = int(segment_id)
        self.version = int(version)
        self.row_ids = np.asarray(row_ids, dtype=np.int64)
        if not np.all(np.diff(self.row_ids) > 0):
            raise ValueError("segment row_ids must be strictly increasing")
        self.vectors = {name: np.asarray(v, dtype=np.float32) for name, v in vectors.items()}
        for name, mat in self.vectors.items():
            if len(mat) != len(self.row_ids):
                raise ValueError(f"vector field {name!r} row count mismatch")
        self.attributes = dict(attributes)
        self.categoricals = dict(categoricals or {})
        self.vector_specs = dict(vector_specs)
        self.indexes: Dict[str, VectorIndex] = {}
        # Row-id membership filter: built at seal time (deterministic
        # from row_ids, so rebuild == deserialize), consulted by
        # contains_mask before the exact searchsorted probe.
        self.bloom = bloom if bloom is not None else BloomFilter.build(self.row_ids)
        # Data-side kernel precomputations (|x|^2 norms, unit rows).
        # Segments are immutable after sealing, so the cache is never
        # invalidated — it lives and dies with the segment object.
        self.kernel_cache = NormCache()
        #: (tombstone array, positions of this segment's rows in it,
        #: their row ids), replaced whole by :meth:`_dead_rows`
        self._dead: Tuple[Optional[np.ndarray], np.ndarray, np.ndarray] = (
            None, _NO_ROWS, _NO_ROWS)

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.row_ids)

    @property
    def num_rows(self) -> int:
        return len(self.row_ids)

    def memory_bytes(self) -> int:
        total = self.row_ids.nbytes
        total += sum(v.nbytes for v in self.vectors.values())
        total += sum(c.memory_bytes() for c in self.attributes.values())
        total += sum(c.memory_bytes() for c in self.categoricals.values())
        total += sum(ix.memory_bytes() for ix in self.indexes.values())
        total += self.kernel_cache.memory_bytes()
        total += self.bloom.memory_bytes()
        return total

    # -- row access -----------------------------------------------------------

    def positions_of(self, row_ids: np.ndarray) -> np.ndarray:
        """Positions of ``row_ids`` within this segment; -1 when absent."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        pos = np.searchsorted(self.row_ids, row_ids)
        pos_clipped = np.minimum(pos, len(self.row_ids) - 1)
        hit = (len(self.row_ids) > 0) & (self.row_ids[pos_clipped] == row_ids)
        return np.where(hit, pos_clipped, -1)

    def vectors_for(self, field: str, row_ids: np.ndarray) -> np.ndarray:
        """Random access to vectors by global row id (rows must exist)."""
        pos = self.positions_of(row_ids)
        if np.any(pos < 0):
            raise KeyError("row id not present in segment")
        return self.vectors[field][pos]

    def contains_mask(self, row_ids: np.ndarray) -> np.ndarray:
        """Membership mask, bloom-accelerated.

        The filter has no false negatives, so a bloom "no" is final and
        skips the binary search entirely; only the "maybe" rows fall
        through to :meth:`positions_of`.  Delete-dedup scans and
        tombstone checks probe every sealed segment for ids that live
        in at most one of them, so most probes resolve in the filter.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if len(row_ids) == 0:
            return np.zeros(0, dtype=bool)
        maybe = self.bloom.might_contain(row_ids)
        registry = get_obs().registry
        n_maybe = int(maybe.sum())
        if n_maybe < len(row_ids):
            registry.counter("bloom_negatives_total").inc(len(row_ids) - n_maybe)
        if n_maybe:
            registry.counter("bloom_hits_total").inc(n_maybe)
        mask = np.zeros(len(row_ids), dtype=bool)
        if n_maybe:
            mask[maybe] = self.positions_of(row_ids[maybe]) >= 0
        return mask

    # -- indexing ----------------------------------------------------------------

    def build_index(self, field: str, index_type: str = "IVF_FLAT", **params) -> None:
        """Build (or rebuild) the per-field vector index.

        By default Milvus indexes only large segments; the LSM manager
        decides when to call this (Sec. 2.3).
        """
        dim, metric = self.vector_specs[field]
        data = self.vectors[field]
        index = create_index(index_type, dim, metric=metric, **params)
        if index.requires_training:
            index.train(data)
        index.add(data, ids=self.row_ids)
        index.warm()
        self.indexes[field] = index

    def has_index(self, field: str) -> bool:
        return field in self.indexes

    # -- search ----------------------------------------------------------------

    def search(
        self,
        field: str,
        queries: np.ndarray,
        k: int,
        exclude: Optional[np.ndarray] = None,
        row_filter: Optional[np.ndarray] = None,
        brute_force: bool = False,
        collector: Optional[TopKCollector] = None,
        **search_params,
    ) -> Optional[SearchResult]:
        """Top-k within this segment.

        Args:
            exclude: sorted row ids to hide (delete tombstones).
            row_filter: sorted row ids that are admissible (attribute
                filtering); ``None`` admits everything.
            brute_force: bypass the index and scan exactly — strategy A
                of Sec. 4.1, chosen by the planner at high selectivity.
            collector: the request's collector, when the scans of a
                snapshot share one.  The segment then contributes what
                it scored — every probed row of an IVF index, every row
                of an unindexed matrix, the finished top-k of anything
                else — and returns ``None``.
            search_params: forwarded to the index (``nprobe``, ``ef``...).
        """
        metric = get_metric(self.vector_specs[field][1])
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[np.newaxis, :]

        index = None if brute_force else self.indexes.get(field)
        node = current_node()
        if node is not None:
            node.set_attr(
                "plan",
                f"index:{index.index_type}" if index is not None else "brute_force",
            )
        if index is not None:
            result = self._search_with_index(
                index, queries, k, exclude, row_filter, collector, **search_params
            )
        else:
            result = self._brute_force(
                metric, field, queries, k, exclude, row_filter, collector)
        if collector is None:
            return result
        if result is not None:
            collector.add_result(result.ids, result.scores)
        return None

    def _dead_rows(self, exclude: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """Ascending positions, and the row ids, of the rows of this
        segment that ``exclude`` (sorted tombstoned row ids, any
        segment's) hides.

        A collection's tombstones mostly live in other segments, and a
        request only needs this segment's: they are worked out once per
        tombstone array and remembered under the array's identity.  The
        manifest never writes into a tombstone array, it replaces it,
        and a segment never changes, so the same array always means the
        same positions — and the same id array, which is what lets an
        index remember its own translation of it the same way.  Reader
        threads publish the triple by one assignment; two that race on
        a new array store equal answers.
        """
        if exclude is None or not len(exclude):
            return _NO_ROWS, _NO_ROWS
        known_for, dead, dead_ids = self._dead
        if known_for is not exclude:
            dead = np.flatnonzero(sorted_membership(self.row_ids, exclude))
            dead_ids = self.row_ids[dead]
            self._dead = (exclude, dead, dead_ids)
        return dead, dead_ids

    def _admissible_mask(self, exclude, row_filter) -> Optional[np.ndarray]:
        mask = None
        dead, __ = self._dead_rows(exclude)
        if len(dead):
            mask = np.ones(len(self.row_ids), dtype=bool)
            mask[dead] = False
        if row_filter is not None:
            allow = sorted_membership(self.row_ids, row_filter)
            mask = allow if mask is None else (mask & allow)
        return mask

    def _pairwise_scores(self, metric, field, queries, data, mask) -> np.ndarray:
        """``metric.pairwise`` with the data-side term from the cache.

        Norms/unit rows are cached for the *full* field matrix and
        sliced by ``mask`` — both are row-wise, so slicing the cached
        result is bit-identical to computing it on the sliced rows.
        """
        if metric.name == "l2":
            norms = self.kernel_cache.squared_norms(field, self.vectors[field])
            if mask is not None:
                norms = norms[mask]
            return l2_squared_pairwise(queries, data, data_sq_norms=norms)
        if metric.name == "cosine":
            unit = self.kernel_cache.unit_rows(field, self.vectors[field])
            if mask is not None:
                unit = unit[mask]
            return cosine_pairwise(queries, data, data_unit=unit)
        return metric.pairwise(queries, data)

    def _brute_force(
        self, metric, field, queries, k, exclude, row_filter, collector=None,
    ) -> Optional[SearchResult]:
        if (collector is not None and row_filter is None
                and metric.name in GEMM_METRICS):
            self._contribute_rows(metric, field, queries, exclude, collector)
            return None
        mask = self._admissible_mask(exclude, row_filter)
        data = self.vectors[field]
        ids = self.row_ids
        if mask is not None:
            data = data[mask]
            ids = ids[mask]
        result = SearchResult.empty(len(queries), k, metric)
        _count_exact_scan(len(queries), len(data), len(self.row_ids) - len(data))
        if len(data) == 0:
            return result
        scores = self._pairwise_scores(metric, field, queries, data, mask)
        for qi in range(len(queries)):
            top_ids, top_scores = topk_from_scores(
                scores[qi], k, metric.higher_is_better, ids=ids
            )
            result.ids[qi, : len(top_ids)] = top_ids
            result.scores[qi, : len(top_scores)] = top_scores
        return result

    def _contribute_rows(self, metric, field, queries, exclude, collector) -> None:
        """Score the whole field matrix for ``collector``: the segment
        as an IVF with one list, through the same kernel.

        Dead rows are scored with the rest and then given the worst
        score where they lie — no masked copy of the matrix, no top-k.
        """
        data = self.vectors[field]
        dead, __ = self._dead_rows(exclude)
        _count_exact_scan(len(queries), len(data) - len(dead), len(dead))
        if len(data) == 0:
            return
        term = None
        if metric.name == "l2":
            term = self.kernel_cache.squared_norms(field, data)
        elif metric.name == "cosine":
            term = self.kernel_cache.inverse_norms(field, data)
        scan = GemmScan(metric.name, queries, data, term)
        whole = [(0, len(data))]
        for qi in range(len(queries)):
            scores = scan.final(qi, scan.keyed_ranges(whole, qi))
            if len(dead):
                scores[dead] = metric.worst_value()
            collector.add(qi, scores, (self.row_ids,))

    def _search_with_index(
        self, index, queries, k, exclude, row_filter, collector=None,
        **search_params,
    ) -> Optional[SearchResult]:
        metric = index.metric
        dead_rows, dead_ids = self._dead_rows(exclude)
        n_excluded = len(dead_rows)
        if n_excluded and index.supports_search_param("hidden"):
            # The index masks this segment's dead rows where they lie.
            search_params["hidden"] = dead_ids
            n_excluded = 0
        # Otherwise oversearch by them, so that dropping them still
        # yields k; tombstones of other segments cost nothing.
        k_eff = min(k + n_excluded, index.ntotal) if n_excluded else k
        if collector is not None and index.supports_search_param("collector"):
            search_params["collector"] = collector
        if row_filter is not None:
            # IVF indexes support pushdown; others fall back to brute force.
            try:
                raw = index.search(queries, k_eff, row_filter=row_filter, **search_params)
            except TypeError:
                return self._brute_force(
                    metric, _field_of(self, index), queries, k, exclude,
                    row_filter, collector)
        else:
            raw = index.search(queries, k_eff, **search_params)
        if raw is None:  # contributed to the collector
            return None
        if not n_excluded:
            if raw.k == k:
                return raw
            return SearchResult(raw.ids[:, :k], raw.scores[:, :k])
        # Drop tombstoned hits and close the gaps, every query at once.
        # A query's scan of its best-first row stops at the first pad or
        # once k live hits are kept; only tombstones met before that
        # point count as pruned.  The block is k + n_excluded wide and
        # the stop is usually near k, so look at a prefix and double it
        # until every query has stopped inside it.
        width = k
        while True:
            width = min(2 * width, raw.k)
            ids = raw.ids[:, :width]
            valid = np.logical_and.accumulate(ids >= 0, axis=1)
            dead = valid & sorted_membership(ids.ravel(), dead_ids).reshape(ids.shape)
            live = valid & ~dead
            stopped = (live.sum(axis=1) >= k) | ~valid[:, -1]
            if width == raw.k or stopped.all():
                break
        slot = np.cumsum(live, axis=1) - live  # live hits kept before this one
        tombstoned = int((dead & (slot < k)).sum())
        live &= slot < k
        rows, cols = np.nonzero(live)[0], slot[live]
        out = SearchResult.empty(len(queries), k, metric)
        out.ids[rows, cols] = ids[live]
        out.scores[rows, cols] = raw.scores[:, :width][live]
        node = current_node()
        if node is not None and tombstoned:
            node.count("candidates_pruned", tombstoned)
        return out

    # -- attribute access ---------------------------------------------------------

    def attribute_range(self, name: str, low: float, high: float) -> np.ndarray:
        """Row ids in this segment whose attribute falls in [low, high]."""
        return self.attributes[name].range_query(low, high)

    def categorical_in(self, name: str, codes) -> np.ndarray:
        """Row ids whose categorical field matches any of ``codes``."""
        return self.categoricals[name].rows_in(codes)

    # -- merge ------------------------------------------------------------------------

    @classmethod
    def merge(
        cls,
        segment_id: int,
        segments: Sequence["Segment"],
        drop_ids: Optional[np.ndarray] = None,
        version: int = 0,
    ) -> "Segment":
        """Merge segments, dropping tombstoned rows (out-of-place deletes).

        Paper Sec. 2.3: "the obsoleted vectors are removed during
        segment merge."
        """
        if not segments:
            raise ValueError("cannot merge zero segments")
        specs = segments[0].vector_specs
        all_ids = np.concatenate([s.row_ids for s in segments])
        order = np.argsort(all_ids, kind="stable")
        merged_ids = all_ids[order]
        keep = np.ones(len(merged_ids), dtype=bool)
        if drop_ids is not None and len(drop_ids):
            keep &= ~sorted_membership(merged_ids, np.asarray(drop_ids, dtype=np.int64))
        merged_ids = merged_ids[keep]

        vectors = {}
        for field in specs:
            stacked = np.concatenate([s.vectors[field] for s in segments])
            vectors[field] = stacked[order][keep]

        attributes = {}
        attr_names = segments[0].attributes.keys()
        if drop_ids is not None and len(drop_ids):
            dropset = np.asarray(drop_ids, dtype=np.int64)
        else:
            dropset = None
        for name in attr_names:
            merged_col = merge_columns([s.attributes[name] for s in segments])
            if dropset is not None and len(merged_col):
                keep_attr = ~sorted_membership(merged_col.row_ids, dropset)
                merged_col = AttributeColumn.from_sorted(
                    merged_col.keys[keep_attr], merged_col.row_ids[keep_attr]
                )
            attributes[name] = merged_col

        categoricals = {}
        for name in segments[0].categoricals:
            all_codes = np.concatenate([s.categoricals[name].codes for s in segments])
            categoricals[name] = CategoricalColumn(
                all_codes[order][keep], merged_ids
            )
        return cls(
            segment_id, merged_ids, vectors, attributes, specs,
            version=version, categoricals=categoricals,
        )

    # -- serialization ---------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to one uncompressed npz blob with a JSON meta entry."""
        meta = {
            "segment_id": self.segment_id,
            "version": self.version,
            "vector_specs": {k: list(v) for k, v in self.vector_specs.items()},
            "attributes": sorted(self.attributes),
            "categoricals": sorted(self.categoricals),
            "bloom": {"k": self.bloom.k, "m": self.bloom.m},
        }
        arrays = {"row_ids": self.row_ids, "bloom_bits": self.bloom.bits}
        for name, mat in self.vectors.items():
            arrays[f"vec__{name}"] = mat
        for name, col in self.attributes.items():
            arrays[f"attr_keys__{name}"] = col.keys
            arrays[f"attr_rows__{name}"] = col.row_ids
        for name, col in self.categoricals.items():
            arrays[f"cat__{name}"] = col.codes
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        return npz_bytes(arrays)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Segment":
        """Load a blob of :meth:`to_bytes`, stored or (as older versions
        wrote it) deflated — ``np.load`` reads both."""
        with np.load(io.BytesIO(blob)) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
            row_ids = archive["row_ids"]
            specs = {k: (int(v[0]), str(v[1])) for k, v in meta["vector_specs"].items()}
            vectors = {name: archive[f"vec__{name}"] for name in specs}
            attributes = {
                name: AttributeColumn.from_sorted(
                    archive[f"attr_keys__{name}"], archive[f"attr_rows__{name}"]
                )
                for name in meta["attributes"]
            }
            categoricals = {
                name: CategoricalColumn(archive[f"cat__{name}"], row_ids)
                for name in meta.get("categoricals", [])
            }
            bloom = None
            if "bloom" in meta and "bloom_bits" in archive:
                bloom = BloomFilter(
                    archive["bloom_bits"], meta["bloom"]["k"], meta["bloom"]["m"]
                )
        return cls(
            meta["segment_id"], row_ids, vectors, attributes, specs,
            version=meta["version"], categoricals=categoricals, bloom=bloom,
        )


def _count_exact_scan(nq: int, scanned: int, hidden: int) -> None:
    """Work counters of an exact scan that leaves ``hidden`` rows out."""
    node = current_node()
    if node is not None:
        node.count("rows_scanned", scanned)
        node.count("distance_evals", nq * scanned)
        if hidden:
            node.count("candidates_pruned", hidden)


def _field_of(segment: Segment, index: VectorIndex) -> str:
    for name, ix in segment.indexes.items():
        if ix is index:
            return name
    raise KeyError("index not attached to segment")
