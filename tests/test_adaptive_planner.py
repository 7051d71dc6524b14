"""Feedback-calibrated planner + in-traversal filtered search (ISSUE 8).

Covers the tentpole (CalibratedCostModel / AdaptivePlanner / in-traversal
``row_filter``) and the three satellite bugfix regressions:

* indexes that cannot honour ``row_filter`` must raise
  :class:`UnsupportedSearchParamError`, never silently ignore it;
* ``strategy_c`` counts ``candidates_pruned`` only for the final
  widening round (each round re-fetches a superset of the last);
* ``_scanned_fraction`` is bucket-size weighted, not ``nprobe/nlist``.
"""

import threading

import numpy as np
import pytest

from repro.core import (
    AttributeField,
    Collection,
    CollectionSchema,
    UnsupportedSearchParamError,
    VectorField,
)
from repro.datasets import random_queries, sift_like
from repro.filtering import (
    AttributeFilterEngine,
    AdaptivePlanner,
    CalibratedCostModel,
    weighted_scanned_fraction,
)
from repro.index import create_index
from repro.obs.profile import measurement_stage
from repro.storage import InMemoryObjectStore
from repro.storage.lsm import LSMConfig
from repro.utils import EwmaCalibrator


# -- satellite 1: row_filter contract across index types --------------------

DENSE_TYPES = {
    "FLAT": {},
    "IVF_FLAT": {"nlist": 8},
    "IVF_SQ8": {"nlist": 8},
    "IVF_PQ": {"nlist": 8, "m": 4},
    "HNSW": {"M": 8},
    "NSG": {"knn": 16, "out_degree": 12},
    "ANNOY": {"n_trees": 8},
}


@pytest.fixture(scope="module")
def contract_data():
    data = sift_like(300, dim=16, n_clusters=6, seed=4)
    queries = random_queries(data, 4, seed=5)
    return data, queries


class TestRowFilterContract:
    @pytest.mark.parametrize("index_type", sorted(DENSE_TYPES))
    def test_dense_indexes_honour_row_filter(self, index_type, contract_data):
        data, queries = contract_data
        index = create_index(index_type, 16, metric="l2", **DENSE_TYPES[index_type])
        index.train(data)
        index.add(data)
        allowed = np.arange(0, 300, 2, dtype=np.int64)  # even ids only
        result = index.search(queries, 5, row_filter=allowed)
        hits = result.ids[result.ids >= 0]
        assert len(hits) > 0
        assert (hits % 2 == 0).all(), f"{index_type} leaked filtered-out rows"

    @pytest.mark.parametrize("index_type", sorted(DENSE_TYPES))
    def test_supports_search_param(self, index_type):
        cls = type(create_index(index_type, 16, **DENSE_TYPES[index_type]))
        assert cls.supports_search_param("row_filter")

    def test_binary_flat_rejects_loudly(self):
        rng = np.random.default_rng(0)
        index = create_index("BIN_FLAT", 64, metric="hamming")
        index.add(rng.integers(0, 256, size=(50, 8), dtype=np.uint8))
        query = rng.integers(0, 256, size=(1, 8), dtype=np.uint8)
        with pytest.raises(UnsupportedSearchParamError):
            index.search(query, 5, row_filter=np.array([1, 2, 3]))
        assert not type(index).supports_search_param("row_filter")

    def test_unsupported_error_is_a_typeerror(self):
        # Segment._search_with_index falls back to brute force on
        # TypeError; the loud rejection must keep riding that path.
        assert issubclass(UnsupportedSearchParamError, TypeError)

    def test_in_traversal_filtered_graph_recall(self, contract_data):
        data, queries = contract_data
        index = create_index("HNSW", 16, metric="l2", M=12, ef_construction=80, seed=0)
        index.add(data)
        allowed = np.flatnonzero(np.arange(300) % 10 == 0).astype(np.int64)
        result = index.search(queries, 5, ef=80, row_filter=allowed)
        # exact answer over the admissible subset
        d = ((data[allowed][None, :, :] - queries[:, None, :]) ** 2).sum(-1)
        exact = allowed[np.argsort(d, axis=1, kind="stable")[:, :5]]
        hit = sum(
            len(set(row[row >= 0].tolist()) & set(truth.tolist()))
            for row, truth in zip(result.ids, exact)
        )
        assert hit / exact.size >= 0.9  # 10% selectivity, in-traversal


# -- satellite 2: strategy_c prune counting ---------------------------------


class TestStrategyCPruneCount:
    def test_counts_only_final_round(self):
        # Distances from the query grow with row id, so round one
        # fetches rows 0..9 and the (forced) second round rows 0..19.
        n, k = 100, 5
        vectors = np.arange(n, dtype=np.float32).reshape(-1, 1)
        passing = np.zeros(n, dtype=bool)
        passing[[0, 5, 11, 13, 15, 17, 19]] = True
        passing[20:63] = True  # 50 passing rows total -> selectivity 0.5
        attrs = np.where(passing, 0.0, 1000.0)
        index = create_index("FLAT", 1, metric="l2")
        index.add(vectors)
        engine = AttributeFilterEngine(
            vectors, attrs, metric="l2", index=index, theta=1.0
        )
        query = np.zeros(1, dtype=np.float32)
        with measurement_stage("test.strategy_c") as stage:
            result = engine.strategy_c(query, -0.5, 0.5, k)
        counters = stage.total_counters()
        # round 1 fetches 10 rows (theta*k/p = 5/0.5), 2 pass -> widen;
        # round 2 fetches 20 rows, 7 pass, 13 pruned.  The old code
        # summed both rounds (8 + 13 = 21), double-billing the 8
        # carried-over rows.
        assert counters["candidates_pruned"] == 13
        assert result.ids.tolist() == [0, 5, 11, 13, 15]


# -- satellite 3: bucket-size weighted scanned fraction ----------------------


class TestWeightedScannedFraction:
    def test_balanced_buckets_match_unweighted(self):
        sizes = np.full(16, 100)
        assert weighted_scanned_fraction(4, sizes, 16) == pytest.approx(4 / 16)

    def test_skew_raises_fraction(self):
        # one hot bucket holds half the rows: probing it costs far more
        # than 1/nlist of the data.
        sizes = np.array([800] + [50] * 15 + [0] * 0)
        skewed = weighted_scanned_fraction(1, sizes, 16)
        assert skewed > 1 / 16
        expected = (sizes.astype(float) ** 2).sum() / sizes.sum() ** 2
        assert skewed == pytest.approx(expected)

    def test_clamped_to_one(self):
        assert weighted_scanned_fraction(1000, np.array([10, 10]), 2) == 1.0

    def test_missing_sizes_falls_back_to_unweighted(self):
        assert weighted_scanned_fraction(4, None, 16) == pytest.approx(4 / 16)
        assert weighted_scanned_fraction(4, None, None) == 1.0

    def test_engine_uses_real_bucket_sizes(self):
        data = sift_like(1000, dim=8, n_clusters=4, seed=9)
        rng = np.random.default_rng(3)
        engine = AttributeFilterEngine(
            data, rng.uniform(0, 1, 1000), metric="l2", nlist=8, seed=0
        )
        sizes = engine.index.bucket_sizes()
        assert engine._scanned_fraction(2) == pytest.approx(
            weighted_scanned_fraction(2, sizes, 8)
        )
        # clustered data -> uneven buckets -> differs from nprobe/nlist
        if len(np.unique(sizes)) > 1:
            assert engine._scanned_fraction(2) != pytest.approx(2 / 8)


# -- tentpole: calibration math ----------------------------------------------


class TestCalibration:
    def test_ewma_converges_to_ratio(self):
        cal = EwmaCalibrator(alpha=0.5, window=4)
        for __ in range(20):
            cal.observe("x", predicted=10.0, measured=30.0)
        assert cal.coefficient("x") == pytest.approx(3.0, rel=1e-3)
        assert cal.correct("x", 10.0) == pytest.approx(30.0, rel=1e-3)
        assert cal.is_calibrated("x")

    def test_ratio_clamped(self):
        cal = EwmaCalibrator()
        for __ in range(50):
            cal.observe("x", predicted=1.0, measured=1e9)
        assert cal.coefficient("x") <= 20.0

    def test_round_trip(self):
        cal = EwmaCalibrator(alpha=0.25)
        cal.observe("a", 1.0, 2.0)
        cal.observe("b", 4.0, 1.0)
        clone = EwmaCalibrator.from_dict(cal.to_dict())
        assert clone.to_dict() == cal.to_dict()

    def test_calibrated_model_shifts_estimates(self):
        model = CalibratedCostModel()
        raw = model.raw_estimate(10_000, 0.5, 10, 0.1)
        # report B consistently costing 5x its model
        for __ in range(10):
            model.observe(
                "B",
                raw.b,
                {"distance_evals": raw.b * 5, "rows_scanned": 0},
            )
        corrected = model.estimate(10_000, 0.5, 10, 0.1)
        assert corrected.b > raw.b * 3
        assert corrected.a == pytest.approx(raw.a)  # untouched strategy

    def test_infinite_cost_passes_through(self):
        model = CalibratedCostModel()
        costs = model.estimate(10_000, 0.0001, 50, 0.1)
        assert costs.c == float("inf")


# -- tentpole: adaptive collection behaviour ---------------------------------


def _adaptive_collection(fs=None, seed=123, nlist=8):
    schema = CollectionSchema(
        "adaptive",
        vector_fields=[VectorField("emb", 16, "l2")],
        attribute_fields=[AttributeField("price")],
    )
    coll = Collection(
        schema,
        lsm_config=LSMConfig(
            background=False, index_build_min_rows=0,
            index_type="IVF_FLAT", index_params={"nlist": nlist},
        ),
        fs=fs,
    )
    rng = np.random.default_rng(seed)
    data = sift_like(600, dim=16, n_clusters=8, seed=seed)
    coll.insert({"emb": data, "price": rng.uniform(0, 100, 600)})
    coll.flush()
    return coll, data


class TestAdaptiveCollection:
    def test_two_seeded_runs_identical(self):
        plans = []
        for __ in range(2):
            coll, data = _adaptive_collection()
            queries = random_queries(data, 6, seed=77)
            ids = []
            for q in queries:
                r = coll.search("emb", q, 5, filter=("price", 10.0, 60.0))
                ids.append(r.ids.tolist())
            plans.append((ids, coll.planner.to_dict()))
        assert plans[0][0] == plans[1][0]
        assert plans[0][1] == plans[1][1]

    def test_filtered_results_never_leak(self):
        coll, data = _adaptive_collection(seed=8)
        queries = random_queries(data, 5, seed=9)
        result = coll.search("emb", queries, 5, filter=("price", 25.0, 75.0))
        snap = coll._lsm.snapshot()
        try:
            admissible = set(coll._filter_rows(("price", 25.0, 75.0), snap).tolist())
        finally:
            coll._lsm.release(snap)
        hits = result.ids[result.ids >= 0]
        assert set(hits.tolist()) <= admissible

    def test_planner_state_survives_recover(self):
        fs = InMemoryObjectStore()
        coll, data = _adaptive_collection(fs=fs)
        queries = random_queries(data, 6, seed=21)
        for q in queries:
            coll.search("emb", q, 5, filter=("price", 10.0, 70.0))
        coll.flush()  # persists planner state into the manifest
        state = coll.planner.to_dict()
        assert state["model"]["calibration"]["coef"]  # calibration happened

        schema = coll.schema
        reopened = Collection(
            schema, lsm_config=LSMConfig(background=False), fs=fs
        )
        reopened._lsm.recover()
        assert reopened.planner.to_dict() == state

    def test_explain_estimates_converge(self):
        coll, data = _adaptive_collection(seed=55)
        queries = random_queries(data, 4, seed=56)
        for __ in range(4):  # calibration window
            coll.search("emb", queries, 5, filter=("price", 15.0, 85.0))
        explained = coll.search(
            "emb", queries, 5, filter=("price", 15.0, 85.0), explain=True
        )
        section = explained.plan["filter"]
        assert section["executed"] in ("A", "B", "C")
        comparison = explained.estimated_vs_actual()
        assert comparison  # at least one calibrated counter
        for entry in comparison.values():
            assert entry["relative_error"] <= 0.2

    def test_explain_reports_the_plan_that_ran(self, monkeypatch):
        coll, data = _adaptive_collection(seed=55)
        queries = random_queries(data, 4, seed=56)
        planned, resolved = [], []
        plan, filter_rows = coll.planner.plan, coll._filter_rows
        monkeypatch.setattr(
            coll.planner, "plan", lambda **kw: planned.append(plan(**kw)) or planned[-1])
        monkeypatch.setattr(
            coll, "_filter_rows", lambda *a: resolved.append(a) or filter_rows(*a))
        explained = coll.search(
            "emb", queries, 5, filter=("price", 15.0, 85.0), explain=True
        )
        # one filter pass, one plan: EXPLAIN shows it, as recorded before
        # the executed counters moved the calibration
        assert len(planned) == len(resolved) == 1
        section = explained.plan["filter"]
        assert section == explained.profile.root.attrs["adaptive_plan"]
        assert section["executed"] == planned[0].strategy
        assert section["knobs"] == planned[0].knobs()
        assert section["calibration"] == {}  # nothing observed before this plan
        assert coll.planner.residuals()      # ... and something after it

    def test_filtered_search_completes_while_maintenance_lock_is_held(self):
        """Planning and feedback take no LSM lock: a filtered read (the
        collection's first, so it also seeds the planner) does not queue
        behind a flush, merge or index build holding ``_bg_lock``."""
        coll, data = _adaptive_collection(seed=5)
        held, release, done = (threading.Event() for __ in range(3))
        results = []

        def maintenance():
            with coll.lsm._bg_lock:
                held.set()
                release.wait(timeout=60)

        def reader():
            try:
                results.append(
                    coll.search("emb", data[:2], 5, filter=("price", 10.0, 60.0)))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                results.append(exc)
            done.set()

        holder = threading.Thread(target=maintenance)
        holder.start()
        try:
            assert held.wait(timeout=10)
            search = threading.Thread(target=reader, daemon=True)
            search.start()
            finished = done.wait(timeout=20)
        finally:
            release.set()
            holder.join(timeout=10)
        search.join(timeout=10)
        assert finished, "filtered search waited for the maintenance lock"
        assert not holder.is_alive() and not search.is_alive()
        assert (results[0].ids[:, 0] >= 0).all()


class TestHeteroCalibration:
    def test_sq8h_static_threshold_preserved(self):
        from repro.hetero.sq8h import SQ8HExecutor

        ex = SQ8HExecutor()
        assert ex.model_plan(100, 1_000_000, 128, 1024).mode == "hybrid"
        assert ex.model_plan(2000, 1_000_000, 128, 1024).mode == "gpu"

    def test_sq8h_calibrated_mode_migrates(self):
        from repro.hetero.sq8h import SQ8HExecutor

        ex = SQ8HExecutor(calibrator=EwmaCalibrator())
        m, n, dim, nlist = 2000, 1_000_000, 128, 1024
        assert ex.model_plan(m, n, dim, nlist).mode == "gpu"
        # this machine's PCIe is secretly 100x slower than modeled
        for __ in range(10):
            plan = ex._model_gpu_plan(m, n, dim, nlist)
            ex.observe_execution(plan, plan.total_seconds * 100)
        assert ex.model_plan(m, n, dim, nlist).mode == "hybrid"

    def test_scheduler_steers_away_from_slow_device(self):
        from repro.hetero.gpu import GPUDevice
        from repro.hetero.scheduler import SearchTask, SegmentScheduler

        sched = SegmentScheduler(
            [GPUDevice(device_id=0), GPUDevice(device_id=1)],
            calibrator=EwmaCalibrator(),
        )
        for i in range(6):
            task = SearchTask(segment_id=i, nbytes=1 << 20, m=10, n=100_000, dim=128)
            asg = sched.dispatch(task)
            slow = 10.0 if asg.device_id == 0 else 1.0
            sched.observe_execution(asg, (asg.end_seconds - asg.start_seconds) * slow)
        sched.reset_clock()
        picks = [
            sched.dispatch(
                SearchTask(segment_id=100 + i, nbytes=1 << 20, m=10, n=100_000, dim=128)
            ).device_id
            for i in range(4)
        ]
        assert picks.count(1) > picks.count(0)


class TestAdaptivePlannerUnit:
    def test_nprobe_grows_as_selectivity_drops(self):
        planner = AdaptivePlanner()
        sizes = [100] * 16
        loose = planner.select_nprobe(1600, 0.5, 10, 16, sizes)
        tight = planner.select_nprobe(1600, 0.01, 10, 16, sizes)
        assert tight > loose

    def test_ef_bounds(self):
        planner = AdaptivePlanner()
        assert planner.select_ef(10, 1.0) >= 16
        # ef counts admissible beam entries: it must NOT scale with
        # 1/p (traversal widening through filtered-out nodes is
        # automatic, and ef=theta*k/p double-counts it).
        assert planner.select_ef(10, 1e-6) == planner.select_ef(10, 1.0)
        assert planner.select_ef(64, 1.0) >= 64
        assert planner.select_ef(300, 0.5) == 512  # capped
        assert planner.select_ef(1000, 0.5) == 1000  # k floor beats the cap

    def test_plan_round_trip(self):
        planner = AdaptivePlanner()
        plan = planner.plan(
            n=1000, passing_fraction=0.3, k=10,
            index_type="IVF_FLAT", nlist=8, bucket_sizes=[125] * 8,
        )
        planner.observe(plan, {"rows_scanned": 200, "distance_evals": 80}, nq=1)
        clone = AdaptivePlanner.from_dict(planner.to_dict())
        assert clone.to_dict() == planner.to_dict()
