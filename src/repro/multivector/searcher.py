"""Collection adapter for multi-vector search.

Binds the array-level algorithms (fusion / iterative merging / naive)
to a :class:`repro.core.Collection`: per-field queries run against the
collection's segments, and fusion builds its concatenated index from
the collection's live rows (cached per manifest version).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.multivector.aggregate import WeightedSum
from repro.multivector.fusion import DECOMPOSABLE_METRICS, VectorFusion
from repro.multivector.iterative import DEFAULT_K_THRESHOLD, IterativeMerging
from repro.multivector.naive import naive_multi_vector_search
from repro.obs.profile import profile_stage
from repro.utils import sorted_membership


class MultiVectorSearcher:
    """Multi-vector query executor bound to one collection."""

    def __init__(self, collection, weights: Optional[Dict[str, float]] = None):
        self.collection = collection
        self.fields = tuple(f.name for f in collection.schema.vector_fields)
        if len(self.fields) < 2:
            raise ValueError("multi-vector search needs >= 2 vector fields")
        metrics = {f.metric for f in collection.schema.vector_fields}
        if len(metrics) != 1:
            raise ValueError(
                "multi-vector aggregation requires one metric across fields, "
                f"got {sorted(metrics)}"
            )
        self.metric_name = next(iter(metrics))
        self.agg = WeightedSum(self.fields, weights)
        self._fusion: Optional[VectorFusion] = None
        self._fusion_version = -1

    # -- public API ----------------------------------------------------------

    def search(
        self,
        queries: Dict[str, np.ndarray],
        k: int,
        method: str = "auto",
        k_threshold: int = DEFAULT_K_THRESHOLD,
        aggregation: str = "sum",
        **search_params,
    ) -> List[List[Tuple[int, float]]]:
        """Top-k entities per query entity.

        ``method``: "fusion" | "iterative" | "naive" | "auto" (fusion
        when the metric is decomposable, else iterative merging —
        matching the paper's guidance).  Non-sum aggregations are not
        decomposable, so they route to iterative merging.
        """
        if method == "auto":
            decomposable = (
                self.metric_name in DECOMPOSABLE_METRICS and aggregation == "sum"
            )
            method = "fusion" if decomposable else "iterative"
        if method == "fusion" and aggregation != "sum":
            raise ValueError(
                "vector fusion requires the (weighted) sum aggregation; "
                f"use method='iterative' for {aggregation!r}"
            )
        batches = self._to_batches(queries)
        with profile_stage(
            "multivector.search", method=method, aggregation=aggregation, k=int(k)
        ):
            return self._search_impl(
                batches, k, method, k_threshold, aggregation, **search_params
            )

    def _search_impl(
        self,
        batches: Dict[str, np.ndarray],
        k: int,
        method: str,
        k_threshold: int,
        aggregation: str,
        **search_params,
    ) -> List[List[Tuple[int, float]]]:
        nq = len(next(iter(batches.values())))
        if method == "fusion":
            fusion = self._get_fusion()
            return fusion.search(batches, k, **search_params)
        if method == "iterative":
            merger = IterativeMerging(
                self.fields,
                self._make_query_fn(**search_params),
                metric=self.metric_name,
                weights=self.agg.weights,
                k_threshold=k_threshold,
                aggregation=aggregation,
            )
            return [
                merger.search_one({f: batches[f][qi] for f in self.fields}, k)
                for qi in range(nq)
            ]
        if method == "naive":
            query_fn = self._make_query_fn(**search_params)
            out = []
            for qi in range(nq):
                one = {f: batches[f][qi] for f in self.fields}
                out.append(
                    naive_multi_vector_search(
                        self.fields, query_fn, one, k,
                        exact_fn=lambda ids, q=one: self._exact(q, ids),
                        metric=self.metric_name, weights=self.agg.weights,
                    )
                )
            return out
        raise ValueError(f"unknown multi-vector method {method!r}")

    # -- helpers ------------------------------------------------------------------

    def _to_batches(self, queries: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        if set(queries) != set(self.fields):
            raise ValueError(
                f"queries must cover fields {sorted(self.fields)}, got {sorted(queries)}"
            )
        batches = {}
        nq = None
        for f in self.fields:
            q = np.asarray(queries[f], dtype=np.float32)
            if q.ndim == 1:
                q = q[np.newaxis, :]
            if nq is None:
                nq = len(q)
            elif len(q) != nq:
                raise ValueError("all query fields must have the same batch size")
            batches[f] = q
        return batches

    def _make_query_fn(self, **search_params):
        def query_fn(field: str, query: np.ndarray, k_prime: int):
            total = self.collection.num_entities
            k_eff = max(1, min(k_prime, total)) if total else k_prime
            result = self.collection.search(field, query, k_eff, **search_params)
            mask = result.ids[0] >= 0
            return result.ids[0][mask], result.scores[0][mask]

        return query_fn

    def _exact(self, queries: Dict[str, np.ndarray], candidate_ids: np.ndarray):
        from repro.metrics import get_metric

        metric = get_metric(self.metric_name)
        field_vectors = {
            f: self.collection.fetch_vectors(f, candidate_ids) for f in self.fields
        }
        return self.agg.exact_scores(queries, field_vectors, metric)

    def _get_fusion(self) -> VectorFusion:
        version = self.collection.lsm.manifest.current_version
        if self._fusion is None or self._fusion_version != version:
            ids, field_data = self._export_live_rows()
            self._fusion = VectorFusion(
                field_data, metric=self.metric_name,
                weights=self.agg.weights, ids=ids,
            )
            self._fusion_version = version
        return self._fusion

    def _export_live_rows(self):
        lsm = self.collection.lsm
        snap = lsm.snapshot()
        try:
            ids_parts = []
            data_parts = {f: [] for f in self.fields}
            for seg_id in snap.segment_ids:
                segment = lsm.bufferpool.get(seg_id)
                keep = ~sorted_membership(segment.row_ids, snap.tombstones)
                ids_parts.append(segment.row_ids[keep])
                for f in self.fields:
                    data_parts[f].append(segment.vectors[f][keep])
            if not ids_parts:
                raise ValueError("collection has no flushed entities")
            ids = np.concatenate(ids_parts)
            field_data = {f: np.concatenate(data_parts[f]) for f in self.fields}
            return ids, field_data
        finally:
            lsm.release(snap)
