"""Collections: entity tables over the LSM storage engine.

Implements the paper's three primitive query types (Sec. 2.1):

* vector query — :meth:`Collection.search`;
* attribute filtering — :meth:`Collection.search` with ``filter=``;
* multi-vector query — :meth:`Collection.multi_vector_search`.

Writes follow Sec. 5.1's "log, then acknowledge":
:meth:`Collection.insert` and :meth:`Collection.delete` return once
:class:`~repro.storage.LSMManager` has appended the operation to the
WAL and applied it to the memtable; sealing into segments is the
storage engine's business, so "users may not immediately see the
inserted data" until they :meth:`~Collection.flush`.

Filtered searches are always planned: the collection's calibrated
:class:`~repro.filtering.cost.AdaptivePlanner` (strategy D of
Sec. 4.1) picks strategy and knobs per request from the filter's
selectivity and feeds the executed counters back.

A search runs on its caller's thread from end to end: segment scans go
one after another (or into one collector), and concurrency comes from
concurrent callers, never from a pool inside one request
(docs/INTERNALS.md §13).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import InvalidQueryError, SchemaError
from repro.core.schema import CollectionSchema
from repro.filtering.cost import AdaptivePlanner
from repro.index.base import SearchResult
from repro.metrics import get_metric
from repro.obs import get_obs
from repro.obs.explain import ExplainedResult, explain_search, filter_section
from repro.obs.profile import (
    QueryProfile,
    current_node,
    measurement_stage,
    profile_stage,
)
from repro.storage import LSMConfig, LSMManager
from repro.storage.filesystem import FileSystem
from repro.storage.manifest import Snapshot
from repro.utils import sorted_membership
from repro.utils.sanitizer import maybe_sanitize
from repro.utils.validation import ensure_int_ids, ensure_positive_int

#: an attribute range filter: (attribute_name, low, high), inclusive.
AttributeFilter = Tuple[str, float, float]

#: most results one query may ask for: Milvus's own cap (paper Sec. 3.3,
#: footnote 5), and where the multi-vector merge stops widening its k'.
#: What a request can make the engine allocate is ``nq`` times it.
MAX_TOPK = 16384


def _check_k(k) -> int:
    """``k`` as an ``int`` in ``[1, MAX_TOPK]``, or a refusal naming it."""
    try:
        k = ensure_positive_int(k, "k")
    except ValueError as exc:
        raise InvalidQueryError(str(exc)) from None
    if k > MAX_TOPK:
        raise InvalidQueryError(f"k must be at most {MAX_TOPK}, got {k}")
    return k


def _ensure_finite(values: np.ndarray, label: str) -> None:
    """Refuse NaN/inf: the WAL would replay them on every recovery."""
    if not np.isfinite(values).all():
        raise SchemaError(f"{label}: values must be finite, got NaN or inf")


class Collection:
    """One entity table: named vectors + numeric attributes per row."""

    def __init__(
        self,
        schema: CollectionSchema,
        lsm_config: Optional[LSMConfig] = None,
        fs: Optional[FileSystem] = None,
    ):
        from repro.storage.categorical import CategoryDictionary

        self.schema = schema
        self._lsm = LSMManager(
            schema.vector_specs(),
            schema.attribute_names(),
            config=lsm_config,
            fs=fs,
            categorical_names=schema.categorical_names(),
            categorical_kinds={
                f.name: f.index_kind for f in schema.categorical_fields
            },
        )
        self._dictionaries = {
            name: CategoryDictionary() for name in schema.categorical_names()
        }
        # _next_row_id is guarded by _id_lock; declared in
        # [tool.reprolint.guarded-fields] rather than in-code, so both
        # declaration styles stay exercised.
        self._next_row_id = 0
        self._id_lock = maybe_sanitize(threading.Lock(), "collection-ids")
        # Built lazily so a recover() run after construction still
        # seeds the planner from the persisted manifest state.
        self._planner: Optional[AdaptivePlanner] = None

    # -- write path -----------------------------------------------------

    def insert(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        """Insert a batch of entities; returns the assigned row ids.

        ``data`` maps every vector field and every attribute field of
        the schema to an array with one entry per entity.
        """
        vectors, attributes, categoricals, n = self._split_payload(data)
        with self._id_lock:
            row_ids = np.arange(self._next_row_id, self._next_row_id + n, dtype=np.int64)
            self._next_row_id += n
        self._lsm.insert(row_ids, vectors, attributes, categoricals)
        get_obs().usage.record_insert(self.schema.name, n)
        return row_ids

    def delete(self, row_ids: Sequence[int]) -> None:
        """Delete entities by row id (out-of-place; visible after flush)."""
        self._lsm.delete(ensure_int_ids(row_ids, "ids"))

    def update(self, row_ids: Sequence[int], data: Dict[str, np.ndarray]) -> np.ndarray:
        """Update = delete + insert (paper Sec. 2.3); returns new row ids."""
        new_ids = self.insert(data)
        self.delete(row_ids)
        return new_ids

    def flush(self) -> None:
        """Block until every acknowledged write is flushed (Sec. 5.1)."""
        self._lsm.flush()
        # Calibration learned since the last flush rides the durable
        # manifest, so a restart + recover() resumes a warm planner.
        if self._planner is not None:
            self._lsm.persist_planner_state(self._planner.to_dict())

    def close(self) -> None:
        """Stop the collection's background threads once their queued
        work is done (:meth:`LSMManager.close`)."""
        self._lsm.close()

    def _split_payload(self, data: Dict[str, np.ndarray]):
        specs = self.schema.vector_specs()
        attr_names = self.schema.attribute_names()
        cat_names = self.schema.categorical_names()
        expected = set(specs) | set(attr_names) | set(cat_names)
        if set(data) != expected:
            raise SchemaError(
                f"insert payload fields {sorted(data)} != schema fields {sorted(expected)}"
            )
        vectors = {}
        n = None
        for name, (dim, __) in specs.items():
            mat = np.asarray(data[name], dtype=np.float32)
            if mat.ndim == 1:
                mat = mat[np.newaxis, :]
            if mat.shape[1] != dim:
                raise SchemaError(
                    f"field {name!r}: dimension {mat.shape[1]} != schema dim {dim}"
                )
            if n is None:
                n = len(mat)
            elif len(mat) != n:
                raise SchemaError("all fields must have the same number of rows")
            _ensure_finite(mat, f"field {name!r}")
            vectors[name] = mat
        attributes = {}
        for name in attr_names:
            vals = np.asarray(data[name], dtype=np.float64).ravel()
            if len(vals) != n:
                raise SchemaError(
                    f"attribute {name!r}: {len(vals)} values for {n} entities"
                )
            _ensure_finite(vals, f"attribute {name!r}")
            attributes[name] = vals
        categoricals = {}
        for name in cat_names:
            raw = data[name]
            values = list(raw.tolist() if isinstance(raw, np.ndarray) else raw)
            if len(values) != n:
                raise SchemaError(
                    f"categorical {name!r}: {len(values)} values for {n} entities"
                )
            categoricals[name] = self._dictionaries[name].encode(values)
        return vectors, attributes, categoricals, int(n)

    # -- read path ----------------------------------------------------------

    def search(
        self,
        field: str,
        queries: np.ndarray,
        k: int,
        filter: Optional[AttributeFilter] = None,
        snapshot: Optional[Snapshot] = None,
        explain: bool = False,
        **search_params,
    ) -> SearchResult:
        """Vector query, optionally with an attribute range filter.

        ``search_params`` are index knobs (``nprobe``, ``ef``, ...);
        the arguments of the layers below are refused by name (see
        :meth:`_check_search`).  The request runs on the calling
        thread (see :mod:`repro.exec`).

        ``explain=True`` returns an :class:`ExplainedResult` instead:
        the same results plus the planner dump
        (:func:`~repro.obs.explain.explain_search`) and the executed
        :class:`~repro.obs.profile.QueryProfile` with exact work
        counters.  Works with observability off; with it on, every
        search is a stage of a kept span tree
        (``GET /traces/{trace_id}``).

        With a filter the attribute column yields the admissible row
        ids and the calibrated planner picks, from their share of the
        live rows, how to use them (Sec. 4.1): an exact scan of the
        admissible rows (A), pushdown into the per-segment vector
        search (B), or a widened unfiltered search post-filtered (C).
        Explicit ``search_params`` always win over planned knobs.  The
        standalone strategy benchmarks live in :mod:`repro.filtering`.

        Filter forms:

        * numeric range — ``("price", low, high)`` (inclusive);
        * categorical — ``("color", "==", "red")`` or
          ``("color", "in", ["red", "blue"])``, served from the
          inverted-list / bitmap categorical indexes.
        """
        queries, k = self._check_search(field, queries, k, snapshot, search_params)
        if filter is not None:
            filter = self._check_filter(filter)
        obs = get_obs()
        # explain always records (a QueryProfile works with observability
        # off); otherwise this is one stage of the ambient tree, or a
        # root of its own when observability is on.
        attrs = dict(collection=self.schema.name, field=field, k=k,
                     filtered=filter is not None)
        if explain:
            profile = QueryProfile("collection.search", **attrs)
            stage = profile.root
        else:
            profile = None
            stage = profile_stage("collection.search", **attrs)
        with stage:
            started = time.perf_counter()
            result = self._search_impl(
                field, queries, k, filter, snapshot, **search_params
            )
            elapsed = time.perf_counter() - started
        # Exact usage accounting: the stage's integer counters are
        # deterministic, so per-collection usage equals the sum of the
        # collection.search stages of the kept trees.
        obs.usage.record_query(self.schema.name, elapsed, stage.total_counters())
        obs.registry.histogram("collection_search_seconds").observe(elapsed)
        obs.slow_query_log.observe(
            "collection.search", elapsed, trace_id=stage.trace_id,
            profile=stage,
            collection=self.schema.name, field=field, k=k,
        )
        if explain:
            plan = explain_search(
                self, field, queries=queries, k=k, filter=filter,
                profile=profile, **search_params
            )
            return ExplainedResult(result=result, plan=plan, profile=profile)
        return result

    def _check_search(
        self, field, queries, k, snapshot, search_params
    ) -> Tuple[np.ndarray, int]:
        """Refuse a search that cannot be served, naming the argument.

        The one validation boundary of the read path — the SDK and the
        REST router both arrive here — so nothing below it sees an
        unknown field, a ``k`` it cannot allocate for, queries of the
        wrong shape or with NaN/infinite entries (which would otherwise
        come back as an empty ``200``), or a search param that is not a
        knob of the collection's index type (an argument of the engine
        is not one) or is not a positive integer — checked the same
        whether or not any segment is indexed yet.  Returns the queries
        as an ``(nq, dim)`` float32 matrix and ``k`` as an ``int``.
        """
        dim = self.schema.vector_field(field).dim
        if search_params:
            knobs = self._lsm.search_knobs(field)
            for key, value in search_params.items():
                if key not in knobs:
                    raise InvalidQueryError(
                        f"params.{key}: unknown search param {key!r} (index "
                        f"knobs of {field!r}: {sorted(knobs)})"
                    )
                try:
                    ensure_positive_int(value, f"params.{key}")
                except ValueError as exc:
                    raise InvalidQueryError(str(exc)) from None
        k = _check_k(k)
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[np.newaxis, :]
        if queries.ndim != 2 or queries.shape[1] != dim:
            raise InvalidQueryError(
                f"queries must be {dim}-dimensional vectors for field "
                f"{field!r}, got shape {queries.shape}"
            )
        if not np.isfinite(queries).all():
            raise InvalidQueryError("queries must be finite: found NaN or infinity")
        if snapshot is not None and not isinstance(snapshot, Snapshot):
            raise InvalidQueryError(
                f"snapshot must come from LSMManager.snapshot(), got {snapshot!r}"
            )
        return queries, k

    def _check_filter(self, filter) -> AttributeFilter:
        """Refuse a filter that cannot mean anything, naming ``filter``.

        Beside :meth:`_check_search` because the SDK and the REST router
        both arrive here.  A filter is ``(attribute, low, high)`` with
        finite bounds and ``low <= high`` — an inverted or NaN range
        would otherwise come back as an empty ``200`` — or a categorical
        ``(field, op, values)``; nothing else that unpacks into three (a
        string, a dict).  Returns range bounds as floats.
        """
        if not isinstance(filter, (tuple, list)) or len(filter) != 3:
            raise InvalidQueryError(
                "filter must be (attribute, low, high) or (field, op, values), "
                f"got {filter!r}"
            )
        name, low, high = filter
        if not isinstance(name, str):
            raise InvalidQueryError(f"filter attribute must be a name, got {name!r}")
        if self.schema.has_categorical(name):
            return name, low, high
        try:
            low, high = float(low), float(high)
        except (TypeError, ValueError):
            raise InvalidQueryError(
                f"filter bounds on {name!r} must be numbers, got {low!r} and {high!r}"
            ) from None
        if not (math.isfinite(low) and math.isfinite(high)):
            raise InvalidQueryError(
                f"filter bounds on {name!r} must be finite, got [{low}, {high}]"
            )
        if low > high:
            raise InvalidQueryError(
                f"filter range on {name!r} is inverted: low {low} > high {high}"
            )
        return name, low, high

    def _search_impl(
        self,
        field: str,
        queries: np.ndarray,
        k: int,
        filter: Optional[AttributeFilter],
        snapshot: Optional[Snapshot],
        **search_params,
    ) -> SearchResult:
        if filter is None:
            return self._lsm.search(
                field, queries, k, snapshot=snapshot, **search_params
            )
        owned = snapshot is None
        snap = self._lsm.snapshot() if owned else snapshot
        try:
            with profile_stage("collection.filter", spec=str(filter)) as stage:
                admissible = self._filter_rows(filter, snap)
                stage.set_attr("admissible_rows", int(len(admissible)))
            if len(admissible) == 0:
                metric = get_metric(self.schema.vector_field(field).metric)
                return SearchResult.empty(len(queries), k, metric)
            return self._adaptive_filtered_search(
                field, queries, k, filter, admissible, snap, **search_params
            )
        finally:
            if owned:
                self._lsm.release(snap)

    # -- adaptive filtered search (calibrated strategy D) -----------------

    @property
    def planner(self) -> AdaptivePlanner:
        """The collection's query planner, seeded from persisted state.

        Built on first use so calibration recovered by
        :meth:`LSMManager.recover` (which runs after construction) is
        picked up.  Benign race: two threads may both build one; the
        losing instance carries no observations yet.
        """
        if self._planner is None:
            self._planner = AdaptivePlanner.from_dict(self._lsm.planner_state())
        return self._planner

    def _index_info(self, field: str, snap: Snapshot):
        """(index_type, nlist, bucket_sizes, supports_pushdown, knob_names,
        row_bytes) of the first indexed visible segment, or defaults when
        none is.
        """
        for segment in self._visible_segments(snap):
            index = segment.indexes.get(field)
            if index is not None:
                nlist = getattr(index, "nlist", None)
                sizes = (
                    index.bucket_sizes().tolist()
                    if hasattr(index, "bucket_sizes") else None
                )
                return (
                    index.index_type,
                    nlist,
                    sizes,
                    index.supports_search_param("row_filter"),
                    type(index).SEARCH_PARAMS,
                    index.row_code_bytes(),
                )
        return None, None, None, True, frozenset(), None

    def _plan_filtered(self, field: str, k: int, n_admissible: int, snap: Snapshot):
        """``(plan, index_type, knob_names)`` for a filter passing
        ``n_admissible`` of the rows live in ``snap``."""
        n = max(self._lsm.live_rows(snap), 1)
        index_type, nlist, bucket_sizes, supports, knob_names, row_bytes = (
            self._index_info(field, snap)
        )
        plan = self.planner.plan(
            n=n,
            passing_fraction=n_admissible / n,
            k=k,
            index_type=index_type or "",
            nlist=nlist,
            bucket_sizes=bucket_sizes,
            supports_pushdown=supports,
            row_bytes=row_bytes,
        )
        return plan, index_type, knob_names

    def _adaptive_filtered_search(
        self,
        field: str,
        queries: np.ndarray,
        k: int,
        filter: AttributeFilter,
        admissible: np.ndarray,
        snap: Snapshot,
        **search_params,
    ) -> SearchResult:
        """Plan (strategy + knobs) from calibrated costs, execute, feed back."""
        planner = self.planner
        plan, index_type, knob_names = self._plan_filtered(
            field, k, len(admissible), snap
        )
        # Planned knobs the field's index understands; explicit caller
        # params always win over the planner's choices.
        knobs = {
            name: value for name, value in plan.knobs().items()
            if name in knob_names
        }
        knobs.update(search_params)
        nq = len(queries)
        node = current_node()
        if node is not None:
            # EXPLAIN's filter section, rendered before observe() below
            # moves the estimates this plan was chosen on.
            node.set_attr("adaptive_plan", filter_section(
                planner, plan, filter, len(admissible), nq))
        with measurement_stage("adaptive.exec", strategy=plan.strategy) as stage:
            result = self._execute_plan(
                field, queries, k, admissible, snap, plan, knobs, index_type,
            )
        # In-memory only: taking an LSM lock here would queue every
        # filtered read behind flushes and merges.  Collection.flush()
        # makes the calibration durable.
        planner.observe(plan, stage.total_counters(), nq=nq)
        return result

    def _execute_plan(
        self, field, queries, k, admissible, snap, plan, knobs, index_type,
    ) -> SearchResult:
        if plan.strategy == "A" or not index_type:
            # Attribute-first exact scan: brute force over admissible
            # rows only (recall 1 within the filter).
            return self._lsm.search(
                field, queries, k, snapshot=snap, row_filter=admissible,
                brute_force=True
            )
        if plan.strategy == "B":
            return self._lsm.search(
                field, queries, k, snapshot=snap, row_filter=admissible, **knobs
            )
        # Strategy C: one widened unfiltered search, post-filtered
        # against the admissible set; fall back to pushdown if the
        # widening undershoots (estimation error), so results never
        # come back short when k admissible rows exist.
        p = max(len(admissible) / plan.n, 1e-9)
        k_eff = min(max(int(np.ceil(plan.theta * k / p)), k), plan.n)
        raw = self._lsm.search(field, queries, k_eff, snapshot=snap, **knobs)
        metric = get_metric(self.schema.vector_field(field).metric)
        out = SearchResult.empty(len(queries), k, metric)
        want = min(k, len(admissible))
        short = False
        pruned = 0
        for qi in range(len(queries)):
            valid = raw.ids[qi] >= 0
            ids_row = raw.ids[qi][valid]
            keep = sorted_membership(ids_row, admissible)
            kept_ids = ids_row[keep]
            kept_scores = raw.scores[qi][valid][keep]
            pruned += int(len(ids_row) - len(kept_ids))
            m = min(k, len(kept_ids))
            out.ids[qi, :m] = kept_ids[:m]
            out.scores[qi, :m] = kept_scores[:m]
            if m < want:
                short = True
        node = current_node()
        if node is not None and pruned:
            node.count("candidates_pruned", pruned)
        if short:
            return self._lsm.search(
                field, queries, k, snapshot=snap, row_filter=admissible, **knobs
            )
        return out

    def _filter_rows(self, filter: AttributeFilter, snap: Snapshot) -> np.ndarray:
        """Resolve any filter form to sorted admissible row ids."""
        name, op_or_low, value_or_high = filter
        if self.schema.has_categorical(name):
            if op_or_low == "==":
                codes = [value_or_high]
            elif op_or_low == "in":
                codes = list(value_or_high)
            else:
                raise InvalidQueryError(
                    f"categorical filter on {name!r} needs '==' or 'in', "
                    f"got {op_or_low!r}"
                )
            encoded = self._dictionaries[name].encode_existing(codes)
            encoded = [int(c) for c in encoded if c >= 0]
            return self._categorical_rows(name, encoded, snap)
        if not self.schema.has_attribute(name):
            raise InvalidQueryError(f"unknown attribute {name!r} in filter")
        return self._admissible_rows(
            name, float(op_or_low), float(value_or_high), snap
        )

    def _visible_segments(self, snap: Snapshot):
        """Everything readable in ``snap``: sealed segments, then the
        read views of frozen memtables awaiting background flush —
        frozen rows answer filters, fetches, and range queries exactly
        like sealed rows."""
        for seg_id in snap.segment_ids:
            yield self._lsm.bufferpool.get(seg_id)
        for view in self._lsm.frozen_view_segments(snap):
            yield view

    def _categorical_rows(self, name: str, codes, snap: Snapshot) -> np.ndarray:
        if not codes:
            return np.empty(0, dtype=np.int64)
        parts = [
            segment.categorical_in(name, codes)
            for segment in self._visible_segments(snap)
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        rows = np.unique(np.concatenate(parts))
        tombs = self._lsm.visible_tombstones(snap)
        if len(tombs):
            rows = np.setdiff1d(rows, tombs, assume_unique=False)
        return rows

    def _admissible_rows(
        self, attr: str, low: float, high: float, snap: Snapshot
    ) -> np.ndarray:
        parts = [
            segment.attribute_range(attr, low, high)
            for segment in self._visible_segments(snap)
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        rows = np.unique(np.concatenate(parts))
        tombs = self._lsm.visible_tombstones(snap)
        if len(tombs):
            rows = np.setdiff1d(rows, tombs, assume_unique=False)
        return rows

    def multi_vector_search(
        self,
        queries: Dict[str, np.ndarray],
        k: int,
        weights: Optional[Dict[str, float]] = None,
        method: str = "auto",
        aggregation: str = "sum",
        **search_params,
    ) -> List[List[Tuple[int, float]]]:
        """Multi-vector query (Sec. 4.2): top-k entities by aggregated score.

        Args:
            queries: one query vector (or batch) per vector field.
            weights: weighted-sum aggregation weights (default 1.0).
            method: ``"fusion"`` (decomposable metrics), ``"iterative"``
                (iterative merging, Algorithm 2), ``"naive"`` (per-field
                top-k union), or ``"auto"``.
            aggregation: monotone aggregation over keyed per-field
                scores — ``"sum"`` (weighted sum), ``"avg"``, ``"min"``
                (rank by worst factor), ``"max"``.  Only ``"sum"`` is
                decomposable, so other aggregations force the iterative
                path.

        Returns:
            per-query lists of (row_id, aggregated_score) pairs.
        """
        from repro.multivector import MultiVectorSearcher

        k = _check_k(k)
        searcher = MultiVectorSearcher(self, weights=weights)
        return searcher.search(
            queries, k, method=method, aggregation=aggregation, **search_params
        )

    # -- point reads ---------------------------------------------------------

    def fetch_vectors(self, field: str, row_ids: Sequence[int]) -> np.ndarray:
        """Vectors for ``row_ids`` (must be live flushed rows)."""
        self.schema.vector_field(field)
        row_ids = np.asarray(row_ids, dtype=np.int64)
        out = np.empty((len(row_ids), self.schema.vector_field(field).dim), np.float32)
        found = np.zeros(len(row_ids), dtype=bool)
        snap = self._lsm.snapshot()
        try:
            for segment in self._visible_segments(snap):
                mask = segment.contains_mask(row_ids) & ~found
                if mask.any():
                    out[mask] = segment.vectors_for(field, row_ids[mask])
                    found |= mask
        finally:
            self._lsm.release(snap)
        if not found.all():
            missing = row_ids[~found].tolist()
            raise KeyError(f"row ids not found: {missing[:10]}")
        return out

    def fetch_attributes(self, name: str, row_ids: Sequence[int]) -> np.ndarray:
        """Attribute values for ``row_ids``."""
        if not self.schema.has_attribute(name):
            raise InvalidQueryError(f"unknown attribute {name!r}")
        row_ids = np.asarray(row_ids, dtype=np.int64)
        out = np.full(len(row_ids), np.nan)
        snap = self._lsm.snapshot()
        try:
            for segment in self._visible_segments(snap):
                col = segment.attributes[name]
                order = np.argsort(col.row_ids)
                sorted_rows = col.row_ids[order]
                pos = np.searchsorted(sorted_rows, row_ids)
                pos_c = np.minimum(pos, max(len(sorted_rows) - 1, 0))
                hit = (len(sorted_rows) > 0) & (sorted_rows[pos_c] == row_ids)
                out[hit] = col.keys[order][pos_c[hit]]
        finally:
            self._lsm.release(snap)
        if np.isnan(out).any():
            raise KeyError("row ids not found in attribute column")
        return out

    def query(
        self,
        filter: AttributeFilter,
        limit: Optional[int] = None,
    ) -> np.ndarray:
        """Scalar-only query: row ids matching ``filter`` (no vectors).

        The classic "SELECT id WHERE price < 100" path, served entirely
        from attribute/categorical indexes.
        """
        filter = self._check_filter(filter)
        snap = self._lsm.snapshot()
        try:
            rows = self._filter_rows(filter, snap)
        finally:
            self._lsm.release(snap)
        return rows[:limit] if limit is not None else rows

    def range_search(
        self,
        field: str,
        queries: np.ndarray,
        radius: float,
        **search_params,
    ) -> List[List[Tuple[int, float]]]:
        """All entities scoring within ``radius`` of each query.

        Runs per segment (brute force, or the segment index's
        range_search when available) and merges; tombstoned rows are
        excluded.
        """
        self.schema.vector_field(field)
        metric = get_metric(self.schema.vector_field(field).metric)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        snap = self._lsm.snapshot()
        try:
            out: List[List[Tuple[int, float]]] = [[] for __ in range(len(queries))]
            tombs = set(self._lsm.visible_tombstones(snap).tolist())
            for segment in self._visible_segments(snap):
                index = segment.indexes.get(field)
                if index is not None:
                    try:
                        parts = index.range_search(queries, radius, **search_params)
                    except NotImplementedError:
                        parts = self._brute_range(segment, field, queries, radius, metric)
                else:
                    parts = self._brute_range(segment, field, queries, radius, metric)
                for qi in range(len(queries)):
                    out[qi].extend(
                        (i, s) for i, s in parts[qi] if i not in tombs
                    )
            for qi in range(len(queries)):
                out[qi].sort(key=lambda p: p[1], reverse=metric.higher_is_better)
            return out
        finally:
            self._lsm.release(snap)

    @staticmethod
    def _brute_range(segment, field, queries, radius, metric):
        scores = metric.pairwise(queries, segment.vectors[field])
        parts = []
        for qi in range(len(queries)):
            if metric.higher_is_better:
                hits = np.flatnonzero(scores[qi] >= radius)
            else:
                hits = np.flatnonzero(scores[qi] <= radius)
            parts.append([
                (int(segment.row_ids[h]), float(scores[qi][h])) for h in hits
            ])
        return parts

    def fetch_categoricals(self, name: str, row_ids: Sequence[int]) -> List[str]:
        """Decoded categorical values for ``row_ids``."""
        if not self.schema.has_categorical(name):
            raise InvalidQueryError(f"unknown categorical field {name!r}")
        row_ids = np.asarray(row_ids, dtype=np.int64)
        codes = np.full(len(row_ids), -1, dtype=np.int64)
        snap = self._lsm.snapshot()
        try:
            for segment in self._visible_segments(snap):
                mask = segment.contains_mask(row_ids) & (codes < 0)
                if mask.any():
                    codes[mask] = segment.categoricals[name].values_for(row_ids[mask])
        finally:
            self._lsm.release(snap)
        if (codes < 0).any():
            raise KeyError("row ids not found in categorical column")
        return self._dictionaries[name].decode(codes)

    # -- maintenance ----------------------------------------------------------

    def create_index(self, field: str, index_type: str = "IVF_FLAT", **params) -> int:
        """Build indexes for ``field`` on every live segment."""
        self.schema.vector_field(field)
        return self._lsm.build_index(field, index_type, **params)

    def compact(self) -> int:
        """Force merges now; returns the number performed."""
        return self._lsm.maybe_merge()

    # -- introspection -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_entities(self) -> int:
        """Visible (flushed, non-deleted) entity count."""
        return self._lsm.num_live_rows

    @property
    def lsm(self) -> LSMManager:
        """The underlying storage manager (advanced use / benchmarks)."""
        return self._lsm

    def describe(self) -> Dict[str, object]:
        info = self.schema.describe()
        info["num_entities"] = self.num_entities
        info["num_segments"] = len(self._lsm.manifest.live_segment_ids())
        info["unflushed_rows"] = self._lsm.unflushed_rows
        return info
