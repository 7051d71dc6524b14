"""Quantized-scan kernel layer: equivalence vs reference arithmetic.

Every kernel (blocked flat-LUT PQ, decode-free SQ8, bucket-major
batched execution) must reproduce its naive reference up to float
summation order, with *exactly* the work counters the definition of
IVF search implies.  End to end the reference is the plain-numpy
oracle of ``tests/test_ivf_scan.py``.
"""

import threading

import numpy as np
import pytest

from repro import obs
from repro.filtering.cost import AdaptivePlanner
from repro.index import (
    IVFOPQIndex,
    IVFPQIndex,
    IVFSQ8Index,
    ProductQuantizer,
    available_index_types,
    create_index,
    index_from_bytes,
    index_to_bytes,
)
from repro.index import kernels
from repro.index.ivf_common import InvertedLists
from tests.test_ivf_scan import ATOL, Model, check_against_oracle

METRICS = ("l2", "ip", "cosine")


def _build(factory, data):
    """A trained, populated index with the oracle's record of its rows."""
    index = factory(data.shape[1])
    index.train(data)
    model = Model(index)
    model.add(data, np.arange(len(data), dtype=np.int64))
    return model


# -- blocked flat-LUT PQ kernel --------------------------------------------


class TestBlockedADC:
    @pytest.fixture(scope="class")
    def pq(self, request):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(600, 16)).astype(np.float32)
        pq = ProductQuantizer(16, m=4, nbits=6, seed=0).train(data)
        return pq, data

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("block", [1, 2, 3, 4, 8])
    def test_matches_naive_all_blocks(self, pq, metric, block):
        pq, data = pq
        rng = np.random.default_rng(4)
        queries = rng.normal(size=(7, 16)).astype(np.float32)
        codes = pq.encode(data[:200])
        tables = pq.build_tables(queries, metric)
        naive = ProductQuantizer.adc_scan(tables, codes)
        blocked = kernels.adc_scan_blocked(
            kernels.flatten_tables(tables), codes, pq.ksub, block=block
        )
        np.testing.assert_allclose(blocked, naive, rtol=1e-5, atol=1e-4)

    def test_edge_shapes(self, pq):
        pq, data = pq
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(1, 16)).astype(np.float32)  # nq=1
        tables_flat = kernels.flatten_tables(pq.build_tables(queries, "l2"))
        empty = pq.encode(data[:0])
        assert kernels.adc_scan_blocked(tables_flat, empty, pq.ksub).shape == (1, 0)
        single = pq.encode(data[:1])  # one row
        out = kernels.adc_scan_blocked(tables_flat, single, pq.ksub)
        naive = ProductQuantizer.adc_scan(pq.build_tables(queries, "l2"), single)
        np.testing.assert_allclose(out, naive, rtol=1e-5, atol=1e-4)

    def test_non_contiguous_inputs(self, pq):
        pq, data = pq
        rng = np.random.default_rng(6)
        wide = rng.normal(size=(10, 16)).astype(np.float32)
        queries = wide[::2]  # stride-2 view
        codes = pq.encode(data[:100])[::3]  # non-contiguous codes too
        tables = pq.build_tables(queries, "ip")
        blocked = kernels.adc_scan_blocked(
            kernels.flatten_tables(tables), codes, pq.ksub
        )
        np.testing.assert_allclose(
            blocked, ProductQuantizer.adc_scan(tables, codes), rtol=1e-5, atol=1e-4
        )


# -- decode-free SQ8 kernel ------------------------------------------------


def _sq8_scan(sq, codes, queries, metric):
    """The decode-free scan state the way IVF_SQ8 builds it."""
    cast = codes.astype(np.float32)
    term = kernels.row_term(metric, kernels.sq8_decoded_sqnorms(sq, cast))
    return kernels.GemmScan(
        metric, queries, cast, term, scale=sq.vdiff / 255.0, shift=sq.vmin
    )


def _scores(scan, nq, rows=slice(None), qidx=None):
    """Real scores (queries, rows) from a scan state's keyed blocks."""
    qidx = np.arange(nq) if qidx is None else qidx
    return scan.final(qidx, scan.keyed(rows, qidx)).T


class TestDecodeFreeSQ8:
    @pytest.mark.parametrize("metric", METRICS)
    def test_matches_decoded_reference(self, metric, rng):
        from repro.index import ScalarQuantizer
        from repro.metrics import get_metric

        data = rng.normal(size=(300, 12)).astype(np.float32)
        sq = ScalarQuantizer().train(data)
        codes = sq.encode(data)
        queries = rng.normal(size=(5, 12)).astype(np.float32)
        got = _scores(_sq8_scan(sq, codes, queries, metric), 5)
        want = get_metric(metric).pairwise(queries, sq.decode(codes))
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-3)

    def test_edge_shapes_and_zero_vector(self, rng):
        from repro.index import ScalarQuantizer
        from repro.metrics import get_metric

        data = rng.normal(size=(50, 8)).astype(np.float32)
        data[0] = 0.0  # cosine zero-row must score 0, not NaN
        sq = ScalarQuantizer().train(data)
        codes = sq.encode(data)
        queries = rng.normal(size=(1, 8)).astype(np.float32)
        for metric in METRICS:
            scan = _sq8_scan(sq, codes, queries, metric)
            assert _scores(scan, 1, slice(0, 0)).shape == (1, 0)
            got = _scores(scan, 1, slice(0, 1))
            want = get_metric(metric).pairwise(queries, sq.decode(codes[:1]))
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-3)
        scores = _scores(_sq8_scan(sq, codes, queries, "cosine"), 1, slice(0, 1))
        assert np.isfinite(scores).all()
        if not sq.decode(codes[:1]).any():
            assert np.isclose(scores[0, 0], 0.0)

    def test_qidx_and_rows_select_blocks(self, rng):
        from repro.index import ScalarQuantizer

        data = rng.normal(size=(100, 8)).astype(np.float32)
        sq = ScalarQuantizer().train(data)
        codes = sq.encode(data)
        queries = rng.normal(size=(6, 8)).astype(np.float32)
        scan = _sq8_scan(sq, codes, queries, "l2")
        full = _scores(scan, 6)
        qidx = np.array([4, 1])
        np.testing.assert_allclose(
            _scores(scan, 6, qidx=qidx), full[qidx], rtol=1e-5, atol=1e-5)
        # a CSR slice (a view) and a position array (a gather) agree
        positions = np.array([3, 17, 18, 60])
        np.testing.assert_allclose(
            _scores(scan, 6, positions), full[:, positions], rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(
            _scores(scan, 6, slice(10, 40)), full[:, 10:40], rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("metric", METRICS)
    def test_flat_rows_are_the_same_kernel(self, metric, rng):
        """IVF_FLAT is GemmScan with no scale/shift."""
        from repro.metrics import get_metric
        from repro.metrics.dense import squared_norms

        data = rng.normal(size=(120, 8)).astype(np.float32)
        data[3] = 0.0
        queries = rng.normal(size=(4, 8)).astype(np.float32)
        scan = kernels.GemmScan(
            metric, queries, data, kernels.row_term(metric, squared_norms(data)))
        np.testing.assert_allclose(
            _scores(scan, 4), get_metric(metric).pairwise(queries, data),
            rtol=1e-4, atol=1e-4)

    def test_keyed_blocks_are_float32_and_contiguous(self, rng):
        """The probe's threshold array is float32 and it decodes flat
        indices into the block: both are part of the keyed() contract."""
        from repro.index import ScalarQuantizer

        data = rng.normal(size=(64, 8)).astype(np.float32)
        sq = ScalarQuantizer().train(data)
        queries = rng.normal(size=(3, 8)).astype(np.float32)
        pq = ProductQuantizer(8, m=2, nbits=4, seed=0).train(data)
        pq_codes = pq.encode(data)
        for metric in METRICS:
            scans = [
                _sq8_scan(sq, sq.encode(data), queries, metric),
                kernels.AdcScan(pq, queries, metric,
                                kernels.flat_code_indices(pq_codes, pq.ksub)),
            ]
            for scan in scans:
                block = scan.keyed(np.array([5, 9, 11, 40]), np.array([2, 0]))
                assert block.shape == (4, 2)
                assert block.dtype == np.float32
                assert block.flags.c_contiguous


# -- end-to-end: the probe vs the plain-numpy oracle --------------------------


IVF_FACTORIES = [
    ("IVF_FLAT", lambda d, m: create_index("IVF_FLAT", d, metric=m, nlist=16)),
    ("IVF_SQ8", lambda d, m: IVFSQ8Index(d, metric=m, nlist=16)),
    ("IVF_PQ", lambda d, m: IVFPQIndex(d, metric=m, nlist=16, m=4, nbits=6)),
    ("IVF_OPQ", lambda d, m: IVFOPQIndex(d, metric=m, nlist=16, m=4, nbits=6,
                                         opq_iters=2)),
]


def _atol(metric, data):
    """Absolute tolerance against the float64 oracle, from the dtype: the
    float32 L2/IP expansions round at a few ulps of their largest term,
    ``|x|^2`` (~5.6e5 on ``medium_data``); cosine scores are O(1)."""
    if metric == "cosine":
        return ATOL
    sq_norms = (data.astype(np.float64) ** 2).sum(axis=1)
    return 8 * np.finfo(np.float32).eps * float(sq_norms.max())


class TestKernelVsReferenceSearch:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("name,factory", IVF_FACTORIES,
                             ids=[n for n, __ in IVF_FACTORIES])
    def test_results_and_counters_match(self, name, factory, metric,
                                        medium_data, medium_queries):
        model = _build(lambda d: factory(d, metric), medium_data)
        check_against_oracle(
            model, medium_queries, 5, 4, atol=_atol(metric, medium_data))

    def test_row_filter_counter_parity(self, medium_data, medium_queries):
        model = _build(lambda d: IVFSQ8Index(d, nlist=16), medium_data)
        row_filter = np.arange(0, len(medium_data), 3, dtype=np.int64)
        check_against_oracle(
            model, medium_queries, 5, 4, row_filter, atol=_atol("l2", medium_data))
        __, work = model.search(medium_queries, 5, 4, row_filter)
        assert work["candidates_pruned"] > 0  # the parity is not vacuous

    def test_range_search_matches(self, medium_data, medium_queries):
        model = _build(lambda d: IVFSQ8Index(d, nlist=16), medium_data)
        # midpoint radius: float32-vs-float64 epsilon must not flip a
        # row's membership, so keep the threshold away from any score
        probe = model.index.search(medium_queries[:1], 10, nprobe=4)
        radius = float(probe.scores[0, 5] + probe.scores[0, 6]) / 2.0
        got = model.index.range_search(medium_queries[:4], radius, nprobe=4)
        want = model.range_search(medium_queries[:4], radius, 4)
        assert len(got[0]) == 6
        for hits, (ids, scores) in zip(got, want):
            assert [i for i, __ in hits] == ids.tolist()
            np.testing.assert_allclose(
                [s for __, s in hits], scores, rtol=5e-4, atol=1e-3)

    def test_single_query_batch(self, medium_data, medium_queries):
        index = _build(
            lambda d: IVFPQIndex(d, nlist=16, m=4, nbits=6), medium_data).index
        full = index.search(medium_queries, 5, nprobe=4)
        solo = index.search(medium_queries[2:3], 5, nprobe=4)
        # Same scores in the same order; ids may permute only within
        # exact ADC ties (duplicate codes), whose merge order depends
        # on the batch's bucket iteration order.
        np.testing.assert_array_equal(solo.scores[0], full.scores[2])
        assert set(solo.ids[0].tolist()) == set(full.ids[2].tolist())


# -- OPQ ---------------------------------------------------------------------


class TestOPQ:
    def _correlated(self, n=900, dim=16, seed=11):
        rng = np.random.default_rng(seed)
        latent = rng.normal(size=(n, dim)).astype(np.float32)
        mix = rng.normal(size=(dim, dim)).astype(np.float32)
        mix += 3.0 * np.eye(dim, dtype=np.float32)  # strong correlation
        return latent @ mix

    def test_two_runs_bit_identical(self):
        data = self._correlated()
        factory = lambda: ProductQuantizer(16, m=4, nbits=6, seed=0)
        rot_a, pq_a = kernels.train_opq_rotation(data, factory, opq_iters=3, seed=0)
        rot_b, pq_b = kernels.train_opq_rotation(data, factory, opq_iters=3, seed=0)
        np.testing.assert_array_equal(rot_a, rot_b)
        np.testing.assert_array_equal(pq_a.codebooks, pq_b.codebooks)

    def test_rotation_is_orthogonal(self):
        data = self._correlated(n=400)
        rotation, __ = kernels.train_opq_rotation(
            data, lambda: ProductQuantizer(16, m=4, nbits=4, seed=0),
            opq_iters=2, seed=0,
        )
        np.testing.assert_allclose(
            rotation @ rotation.T, np.eye(16), atol=1e-4
        )

    def test_opq_reduces_reconstruction_error(self):
        data = self._correlated()
        pq = ProductQuantizer(16, m=4, nbits=6, seed=0).train(data)
        plain_err = float(((pq.decode(pq.encode(data)) - data) ** 2).sum())
        rotation, opq = kernels.train_opq_rotation(
            data, lambda: ProductQuantizer(16, m=4, nbits=6, seed=0),
            opq_iters=4, seed=0,
        )
        rotated = data @ rotation
        opq_err = float(((opq.decode(opq.encode(rotated)) - rotated) ** 2).sum())
        assert opq_err < plain_err

    def test_registry_and_search(self, medium_data, medium_queries):
        assert "IVF_OPQ" in available_index_types()
        index = create_index("IVF_OPQ", medium_data.shape[1], nlist=16,
                             m=4, nbits=6, opq_iters=2)
        index.train(medium_data)
        index.add(medium_data)
        result = index.search(medium_queries, 10, nprobe=8)
        assert result.ids.shape == (len(medium_queries), 10)
        assert (result.ids >= 0).any(axis=1).all()

    def test_untrained_search_raises(self, medium_data):
        index = IVFOPQIndex(medium_data.shape[1], nlist=16, m=4, nbits=6)
        with pytest.raises(RuntimeError):
            index._codec_space(medium_data[:1])

    def test_serialization_roundtrip(self, medium_data, medium_queries):
        index = IVFOPQIndex(medium_data.shape[1], nlist=16, m=4, nbits=6,
                            opq_iters=2)
        index.train(medium_data)
        index.add(medium_data)
        restored = index_from_bytes(index_to_bytes(index))
        assert isinstance(restored, IVFOPQIndex)
        np.testing.assert_array_equal(restored.rotation, index.rotation)
        want = index.search(medium_queries, 5, nprobe=4)
        got = restored.search(medium_queries, 5, nprobe=4)
        np.testing.assert_array_equal(got.ids, want.ids)


# -- decode rank regression --------------------------------------------------


class TestDecodeRank:
    def test_pq_decode_rank_mirrors_input(self, rng):
        data = rng.normal(size=(300, 8)).astype(np.float32)
        pq = ProductQuantizer(8, m=2, nbits=4, seed=0).train(data)
        codes = pq.encode(data[:5])
        assert pq.decode(codes).shape == (5, 8)
        assert pq.decode(codes[0]).shape == (8,)
        np.testing.assert_array_equal(pq.decode(codes[0]), pq.decode(codes)[0])

    def test_sq_decode_rank_mirrors_input(self, rng):
        from repro.index import ScalarQuantizer

        data = rng.normal(size=(50, 6)).astype(np.float32)
        sq = ScalarQuantizer().train(data)
        codes = sq.encode(data[:4])
        assert sq.decode(codes).shape == (4, 6)
        assert sq.decode(codes[0]).shape == (6,)
        np.testing.assert_array_equal(sq.decode(codes[0]), sq.decode(codes)[0])


# -- planner row_bytes -------------------------------------------------------


class TestRowBytesPlanning:
    def test_bytes_read_predicted_for_index_strategies(self):
        planner = AdaptivePlanner()
        plan = planner.plan(
            n=10_000, passing_fraction=0.5, k=10,
            index_type="IVF_SQ8", nlist=64, row_bytes=24,
        )
        assert plan.row_bytes == 24
        for strategy in ("B", "C"):
            raw = planner._raw_counters(plan, strategy)
            assert raw["bytes_read"] == pytest.approx(
                raw["rows_scanned"] * 24
            )
        assert "bytes_read" not in planner._raw_counters(plan, "A")

    def test_no_row_bytes_no_prediction(self):
        planner = AdaptivePlanner()
        plan = planner.plan(n=10_000, passing_fraction=0.5, k=10,
                            index_type="IVF_FLAT", nlist=64)
        assert "bytes_read" not in planner._raw_counters(plan, "B")

    def test_row_code_bytes_per_index(self, medium_data):
        dim = medium_data.shape[1]
        flat = create_index("IVF_FLAT", dim, nlist=16)
        sq8 = IVFSQ8Index(dim, nlist=16)
        pq = IVFPQIndex(dim, nlist=16, m=4, nbits=6)
        assert flat.row_code_bytes() == 4 * dim
        assert sq8.row_code_bytes() == dim
        assert pq.row_code_bytes() == 4


# -- InvertedLists: CSR snapshots under concurrent appends ------------------


def _chunk(nlist, labels, first_id, fill):
    """A bucket-grouped chunk the way ``IVFIndexBase._add`` builds one."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    ids = np.arange(first_id, first_id + len(labels), dtype=np.int64)[order]
    codes = np.full((len(labels), 4), fill, dtype=np.uint8)
    return np.bincount(labels, minlength=nlist), ids, codes


def _bucket(lists, list_no):
    """(ids, codes) views of one bucket of the current snapshot."""
    snap = lists.snapshot()
    lo, hi = snap.offsets[list_no], snap.offsets[list_no + 1]
    return snap.ids[lo:hi], None if snap.codes is None else snap.codes[lo:hi]


class TestInvertedLists:
    def test_merge_is_bucket_major_and_insertion_ordered(self):
        lists = InvertedLists(3)
        lists.append(*_chunk(3, [2, 0, 2, 1], 0, 1))
        first = lists.snapshot()
        lists.append(*_chunk(3, [0, 2, 0], 4, 2))
        snap = lists.snapshot()
        assert first is not snap and len(first.ids) == 4  # old image intact
        np.testing.assert_array_equal(snap.offsets, [0, 3, 4, 7])
        np.testing.assert_array_equal(snap.ids, [1, 4, 6, 3, 0, 2, 5])
        np.testing.assert_array_equal(snap.codes[:, 0], [1, 2, 2, 1, 1, 1, 2])
        assert lists.snapshot() is snap  # published once, then lock-free
        ids, codes = _bucket(lists, 2)
        np.testing.assert_array_equal(ids, [0, 2, 5])
        assert np.shares_memory(codes, snap.codes)  # a view, not a copy
        np.testing.assert_array_equal(lists.sizes(), [3, 1, 3])

    def test_empty_lists(self):
        lists = InvertedLists(2)
        assert lists.memory_bytes() == 0
        ids, codes = _bucket(lists, 1)
        assert len(ids) == 0 and codes is None
        assert lists.total == 0 and lists.sizes().tolist() == [0, 0]

    def test_positions_of_translates_a_filter(self):
        lists = InvertedLists(3)
        lists.append(*_chunk(3, [2, 0, 2, 1, 0], 10, 0))
        snap = lists.snapshot()  # ids in CSR order: 11 14 | 13 | 10 12
        np.testing.assert_array_equal(
            snap.positions_of(np.array([10, 11, 99, 13])), [0, 2, 3])
        assert len(snap.positions_of(np.empty(0, dtype=np.int64))) == 0
        np.testing.assert_array_equal(
            snap.positions_of(np.arange(20)), np.arange(5))

    def test_readers_take_no_lock_once_built(self):
        lists = InvertedLists(2)
        lists.append(*_chunk(2, [0, 1, 1], 0, 0))
        lists.snapshot()

        class Tripwire:
            def __enter__(self):
                raise AssertionError("read path took the ivf-lists lock")

            def __exit__(self, *exc):
                return False

        lists._lock = Tripwire()
        assert len(_bucket(lists, 1)[0]) == 2
        assert lists.total == 3 and lists.sizes().tolist() == [1, 2]

    def test_concurrent_readers_while_snapshot_is_built(self):
        lists = InvertedLists(1)
        for block in range(40):
            lists.append(*_chunk(1, [0] * 10, block * 10, block))
        errors = []

        def reader():
            try:
                for __ in range(50):
                    ids, codes = _bucket(lists, 0)
                    assert len(ids) == len(codes) == 400
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for __ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors and not any(t.is_alive() for t in threads)
        ids, codes = _bucket(lists, 0)
        np.testing.assert_array_equal(ids, np.arange(400))
        np.testing.assert_array_equal(codes[:, 0], np.repeat(np.arange(40), 10))

    def test_concurrent_append_and_get(self):
        """8 readers, 4 writers, shortened switch interval: every image
        a reader sees is whole (ids and codes of the same appends), and
        no append is lost."""
        import sys

        lists = InvertedLists(4)
        errors = []

        def writer(w):
            try:
                for i in range(60):
                    # id and code byte are tied, so a torn image shows
                    lists.append(*_chunk(4, [i % 4], w * 1000 + i, (w * 60 + i) % 251))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                for __ in range(120):
                    snap = lists.snapshot()
                    assert snap.offsets[-1] == len(snap.ids)
                    if snap.codes is None:
                        continue
                    assert len(snap.ids) == len(snap.codes)
                    w, i = np.divmod(snap.ids, 1000)
                    np.testing.assert_array_equal(
                        snap.codes[:, 0], (w * 60 + i) % 251)
                    for ln in range(4):
                        ids, __codes = _bucket(lists, ln)
                        assert ((ids % 1000) % 4 == ln).all()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        threads += [threading.Thread(target=reader) for __ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert lists.total == 240
        assert sorted(lists.snapshot().ids.tolist()) == sorted(
            w * 1000 + i for w in range(4) for i in range(60))
