"""Baseline engines, datasets, and bench utils."""

import numpy as np
import pytest

from repro.baselines import (
    CAPABILITY_KEYS,
    LibraryStyleEngine,
    MilvusEngine,
    RelationalVectorEngine,
    SPTAGLikeEngine,
    VearchLikeEngine,
)
from repro.bench import format_table, measure_throughput, recall_throughput_curve
from repro.index import IVFFlatIndex
from repro.datasets import (
    deep_like,
    exact_ground_truth,
    recall_at_k,
    recipe_like,
    sift_like,
    random_queries,
    uniform_attributes,
)


@pytest.fixture(scope="module")
def bench_setup():
    data = sift_like(2000, dim=16, seed=0)
    attrs = uniform_attributes(2000, seed=1)
    queries = random_queries(data, 10, seed=2)
    truth = exact_ground_truth(queries, data, 10)
    return data, attrs, queries, truth


class TestBaselineEngines:
    @pytest.mark.parametrize("engine_cls,kwargs", [
        (MilvusEngine, {"nlist": 16}),
        (LibraryStyleEngine, {"nlist": 16}),
        (VearchLikeEngine, {"nlist": 16}),
        (SPTAGLikeEngine, {"n_trees": 8}),
        (RelationalVectorEngine, {"use_index": True}),
    ])
    def test_reasonable_recall(self, bench_setup, engine_cls, kwargs):
        data, attrs, queries, truth = bench_setup
        engine = engine_cls(**kwargs)
        engine.fit(data, attrs)
        params = {} if engine_cls is SPTAGLikeEngine else {"nprobe": 16}
        result = engine.search(queries, 10, **params)
        assert recall_at_k(result.ids, truth) >= 0.6

    def test_capability_rows_match_table1(self):
        """Table 1's Milvus row: yes across the board; others have gaps."""
        milvus = MilvusEngine()
        assert all(milvus.capabilities()[k] for k in CAPABILITY_KEYS)
        library = LibraryStyleEngine()
        assert not library.capabilities()["dynamic_data"]
        assert not library.capabilities()["attribute_filtering"]
        sptag = SPTAGLikeEngine()
        assert not sptag.capabilities()["gpu"]
        vearch = VearchLikeEngine()
        assert not vearch.capabilities()["multi_vector_query"]

    def test_sptag_memory_overhead(self, bench_setup):
        """The paper's 14x memory observation, order of magnitude."""
        data, attrs, *_ = bench_setup
        milvus = MilvusEngine(nlist=16)
        milvus.fit(data)
        sptag = SPTAGLikeEngine(n_trees=12)
        sptag.fit(data)
        assert sptag.memory_bytes() > 5 * milvus.memory_bytes()

    def test_milvus_faster_than_relational(self, bench_setup, monkeypatch):
        """The 'two orders of magnitude' class gap, at small scale — read
        off the work that makes it, not off a clock: the relational
        executor pays one interpreted distance call per stored row per
        query, while the purpose-built engine evaluates fewer rows (the
        index prunes) and every call it makes into a kernel evaluates a
        bucket's worth of them."""
        from repro.obs.profile import QueryProfile

        data, attrs, queries, __ = bench_setup
        milvus = MilvusEngine(nlist=16)
        milvus.fit(data, attrs)
        relational = RelationalVectorEngine(use_index=False)
        relational.fit(data, attrs)

        calls = []
        metric = type(relational.metric)
        single = metric.single
        monkeypatch.setattr(
            metric, "single",
            lambda self, q, v: calls.append(1) or single(self, q, v))
        relational.search(queries, 10)
        rows_per_query = len(calls) / len(queries)
        assert rows_per_query == len(data)  # every row, one call each

        with QueryProfile("milvus") as prof:
            milvus.search(queries, 10, nprobe=8)
        work = prof.total_counters()
        evals_per_query = work["distance_evals"] / len(queries)
        assert evals_per_query < rows_per_query
        # at most one kernel call per probed (query, bucket) pair, plus
        # the coarse step: rows evaluated per call, where the relational
        # executor's is exactly 1
        kernel_calls = work["buckets_probed"] + len(queries)
        assert work["distance_evals"] / kernel_calls > 10

    def test_filtered_search_engines(self, bench_setup):
        data, attrs, queries, __ = bench_setup
        for engine in (MilvusEngine(nlist=16), VearchLikeEngine(nlist=16),
                       RelationalVectorEngine(use_index=True)):
            engine.fit(data, attrs)
            result = engine.filtered_search(queries[:3], 5, 0.0, 5000.0, nprobe=16)
            hits = result.ids[result.ids >= 0]
            assert (attrs[hits] <= 5000.0).all()

    def test_library_has_no_filtering(self, bench_setup):
        data, attrs, queries, __ = bench_setup
        engine = LibraryStyleEngine(nlist=16)
        engine.fit(data, attrs)
        with pytest.raises(NotImplementedError):
            engine.filtered_search(queries[:1], 5, 0, 1)


class TestDatasets:
    def test_sift_like_range(self):
        data = sift_like(100, dim=32)
        assert data.shape == (100, 32)
        assert data.min() >= 0 and data.max() <= 255

    def test_deep_like_normalized(self):
        data = deep_like(100, dim=24)
        np.testing.assert_allclose(np.linalg.norm(data, axis=1), 1.0, atol=1e-5)

    def test_recipe_correlation_controls_alignment(self):
        correlated = recipe_like(500, correlation=0.95, seed=0)
        independent = recipe_like(500, correlation=0.0, seed=0)

        def rank_overlap(entities):
            t_d = ((entities["text"] - entities["text"][0]) ** 2).sum(axis=1)
            i_d = ((entities["image"] - entities["image"][0]) ** 2).sum(axis=1)
            top_t = set(np.argsort(t_d)[:50].tolist())
            top_i = set(np.argsort(i_d)[:50].tolist())
            return len(top_t & top_i)

        assert rank_overlap(correlated) > rank_overlap(independent)

    def test_seeded_reproducibility(self):
        np.testing.assert_array_equal(sift_like(50, seed=5), sift_like(50, seed=5))

    def test_recall_at_k(self):
        truth = np.array([[1, 2, 3]])
        assert recall_at_k(np.array([[1, 2, 3]]), truth) == 1.0
        assert recall_at_k(np.array([[1, 9, 8]]), truth) == pytest.approx(1 / 3)
        assert recall_at_k(np.array([[1, -1, -1]]), truth) == pytest.approx(1 / 3)

    def test_ground_truth_chunking_consistent(self, bench_setup):
        data, __, queries, ___ = bench_setup
        import repro.datasets.groundtruth as gt

        original = gt._CHUNK
        try:
            gt._CHUNK = 100
            chunked = gt.exact_ground_truth(queries[:3], data, 5)
        finally:
            gt._CHUNK = original
        whole = exact_ground_truth(queries[:3], data, 5)
        np.testing.assert_array_equal(chunked, whole)


class TestBenchUtils:
    def test_measure_throughput(self):
        qps = measure_throughput(lambda q: None, np.zeros((100, 4)))
        assert qps > 0

    def test_recall_throughput_curve(self, bench_setup):
        data, __, queries, truth = bench_setup
        index = IVFFlatIndex(16, nlist=16, seed=0)
        index.train(data)
        index.add(data)
        points = recall_throughput_curve(
            index.search, queries, truth, 10,
            [{"nprobe": 1}, {"nprobe": 16}],
        )
        assert len(points) == 2
        assert points[1].recall >= points[0].recall

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        assert "T" in text and "bb" in text and "2.5" in text
