"""The extensible index framework: registration and construction."""

import numpy as np
import pytest

from repro.index import (
    VectorIndex,
    SearchResult,
    available_index_types,
    create_index,
    register_index,
)


class TestRegistry:
    def test_all_paper_indexes_available(self):
        types = available_index_types()
        for expected in ("FLAT", "IVF_FLAT", "IVF_SQ8", "IVF_PQ", "HNSW", "NSG", "ANNOY"):
            assert expected in types

    def test_create_by_name_case_insensitive(self):
        index = create_index("ivf_flat", 8, nlist=4)
        assert index.index_type == "IVF_FLAT"

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="index_type"):
            create_index("BOGUS", 8)

    def test_params_forwarded(self):
        index = create_index("HNSW", 8, M=5)
        assert index.M == 5

    def test_custom_index_plugs_in(self, small_data):
        """The paper's pitch: new indexes only implement the interface."""

        class CentroidOnlyIndex(VectorIndex):
            index_type = "TEST_CENTROID"
            requires_training = False

            def __init__(self, dim, metric="l2"):
                super().__init__(dim, metric)
                self._vectors = None
                self._ids = None

            def _add(self, vectors, ids):
                self._vectors = vectors
                self._ids = ids

            def _search(self, queries, k, **params):
                scores = self.metric.pairwise(queries, self._vectors)
                result = SearchResult.empty(len(queries), k, self.metric)
                for qi in range(len(queries)):
                    order = self.metric.sort_order(scores[qi])[:k]
                    result.ids[qi, : len(order)] = self._ids[order]
                    result.scores[qi, : len(order)] = scores[qi][order]
                return result

            @property
            def ntotal(self):
                return 0 if self._vectors is None else len(self._vectors)

            def memory_bytes(self):
                return 0 if self._vectors is None else self._vectors.nbytes

        register_index(CentroidOnlyIndex)
        try:
            index = create_index("TEST_CENTROID", 16)
            index.add(small_data)
            result = index.search(small_data[0], 3)
            assert result.ids[0, 0] == 0
        finally:
            from repro.index import registry

            del registry._REGISTRY["TEST_CENTROID"]

    def test_double_registration_rejected(self):
        from repro.index import FlatIndex

        with pytest.raises(ValueError):
            register_index(FlatIndex)
