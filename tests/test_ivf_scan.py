"""The IVF probe against an oracle that lives here, not in ``src/``.

The oracle is the definition of IVF search in plain numpy: assign every
stored row to its nearest centroid, take the rows of the query's
``nprobe`` nearest buckets, drop what a ``row_filter`` excludes, score
them all in float64 against what the fine quantizer stored (the raw
vector, or the codec's reconstruction), sort.  The threshold-pruned
probe must return exactly that, for every index type, metric, ``k`` and
add order, and must report the work the oracle counts — in *both* of
its regimes, bucket-major and query-major, whichever of the two
``probes_query_major`` would pick for the request: every check below
runs ``index.search`` and then each regime by name — and then once
more with the probe scoring into a ``TopKCollector`` that takes the
threshold and the sort for it.  ``hidden`` rows (a segment's
tombstones) are part of the definition: scored where they lie, never
returned, counted as pruned.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.index import (
    IVFFlatIndex,
    IVFOPQIndex,
    IVFPQIndex,
    IVFSQ8Index,
    index_from_bytes,
    index_to_bytes,
)
from repro.index.base import SearchResult
from repro.index.ivf_common import probes_query_major
from repro.obs.profile import QueryProfile
from repro.utils import TopKCollector

DIM, NLIST = 16, 12
METRICS = ("l2", "ip", "cosine")
FACTORIES = {
    "IVF_FLAT": lambda metric: IVFFlatIndex(DIM, metric=metric, nlist=NLIST, seed=0),
    "IVF_SQ8": lambda metric: IVFSQ8Index(DIM, metric=metric, nlist=NLIST, seed=0),
    "IVF_PQ": lambda metric: IVFPQIndex(
        DIM, metric=metric, nlist=NLIST, m=4, nbits=4, seed=0),
    "IVF_OPQ": lambda metric: IVFOPQIndex(
        DIM, metric=metric, nlist=NLIST, m=4, nbits=4, opq_iters=2, seed=0),
}
#: float32 GEMM expansions against a float64 oracle, scores of O(10)
RTOL, ATOL = 1e-4, 2e-3
#: id of the duplicate of the row with id ``1000 + 3 * j`` is DUP_BASE + j
DUP_BASE = 5000


def canonical(ids):
    """Ids with every duplicate mapped to the row it duplicates."""
    ids = np.asarray(ids)
    return np.sort(np.where(ids >= DUP_BASE, 1000 + 3 * (ids - DUP_BASE), ids))


def clustered(n, seed):
    rng = np.random.default_rng(seed)
    centres = 4.0 * rng.standard_normal((NLIST, DIM))
    return (centres[rng.integers(0, NLIST, n)]
            + rng.standard_normal((n, DIM))).astype(np.float32)


# -- the oracle ---------------------------------------------------------------


def nearest_centroid(index, vectors):
    c = index.centroids.astype(np.float64)
    v = vectors.astype(np.float64)
    return ((v[:, None, :] - c[None, :, :]) ** 2).sum(-1).argmin(axis=1)


class Model:
    """What was added to an index, kept by the test itself."""

    def __init__(self, index):
        self.index = index
        self.ids = np.empty(0, dtype=np.int64)
        self.vectors = np.empty((0, index.dim), dtype=np.float32)

    def add(self, vectors, ids):
        self.index.add(vectors, ids=ids)
        self.ids = np.concatenate([self.ids, ids])
        self.vectors = np.concatenate([self.vectors, vectors])

    def labels(self):
        return nearest_centroid(self.index, self.vectors)

    def stored(self):
        """The rows as the fine quantizer sees them, in codec space."""
        index, v = self.index, self.vectors
        if isinstance(index, IVFPQIndex):
            v = index._codec_space(v)
            return index.pq.decode(index.pq.encode(v)).astype(np.float64)
        if isinstance(index, IVFSQ8Index):
            return index.sq.decode(index.sq.encode(v)).astype(np.float64)
        return v.astype(np.float64)

    def scores(self, query, rows):
        index, x = self.index, self.stored()[rows]
        name = index.metric.name
        q = query.astype(np.float64)
        if isinstance(index, IVFPQIndex):
            q = index._codec_space(query[None, :])[0].astype(np.float64)
            if name == "cosine":  # PQ's cosine assumes normalized inputs
                name = "ip"
        if name == "l2":
            return ((x - q) ** 2).sum(axis=1)
        if name == "cosine":
            norms = np.linalg.norm(x, axis=1) * np.linalg.norm(q)
            return np.divide(x @ q, norms, out=np.zeros(len(x)), where=norms > 0)
        return x @ q

    def search(self, queries, k, nprobe, row_filter=None, hidden=None):
        """Per query: (row positions best-first, their scores), plus the
        work counters an exact executor of the definition reports.

        A ``row_filter`` decides which probed rows are scored at all,
        and a hidden row is not admissible; without one every probed
        row is scored and the hidden ones are dropped afterwards."""
        labels = self.labels()
        sizes = np.bincount(labels, minlength=self.index.nlist)
        buckets = self.index.select_buckets(queries, nprobe)
        higher = self.index.metric.higher_is_better
        work = dict.fromkeys(
            ("buckets_probed", "rows_scanned", "candidates_pruned",
             "distance_evals", "bytes_read"), 0)
        work["distance_evals"] = len(queries) * self.index.nlist  # the coarse step
        out = []
        for qi, query in enumerate(queries):
            rows = np.flatnonzero(np.isin(labels, buckets[qi]))
            work["buckets_probed"] += int(np.count_nonzero(sizes[buckets[qi]]))
            work["rows_scanned"] += len(rows)
            probed = len(rows)
            live = rows
            if hidden is not None:
                live = rows[~np.isin(self.ids[rows], hidden)]
            if row_filter is not None:
                rows = live = live[np.isin(self.ids[live], row_filter)]
            work["candidates_pruned"] += probed - len(live)
            work["distance_evals"] += len(rows)
            work["bytes_read"] += len(rows) * self.index.row_code_bytes()
            rows = live
            scores = self.scores(query, rows)
            order = np.argsort(-scores if higher else scores, kind="stable")[:k]
            out.append((rows[order], scores[order]))
        return out, work

    def range_search(self, queries, radius, nprobe):
        """Per query: (ids, scores) of the probed buckets' rows that
        score within ``radius``, best-first."""
        labels = self.labels()
        buckets = self.index.select_buckets(queries, nprobe)
        higher = self.index.metric.higher_is_better
        out = []
        for qi, query in enumerate(queries):
            rows = np.flatnonzero(np.isin(labels, buckets[qi]))
            scores = self.scores(query, rows)
            hit = scores >= radius if higher else scores <= radius
            rows, scores = rows[hit], scores[hit]
            order = np.argsort(-scores if higher else scores, kind="stable")
            out.append((self.ids[rows[order]], scores[order]))
        return out


#: regime name -> the ``query_major`` argument of ``_search_pruned``
REGIMES = {"bucket-major": False, "query-major": True}


def search_in(index, regime, queries, k, nprobe, row_filter=None, hidden=None):
    """What ``index.search`` does on a non-empty index, with the probe
    regime named by the caller instead of selected from the shape."""
    queries = index._check_vectors(queries)
    return index._search_pruned(
        queries, k, index.select_buckets(queries, nprobe), row_filter,
        REGIMES[regime], hidden)


def given_params(**params):
    """The search parameters the caller actually set."""
    return {key: value for key, value in params.items() if value is not None}


def search_collected(index, queries, k, nprobe, row_filter=None, hidden=None):
    """The probe scoring into a collector of its own, and what that
    collector makes of it."""
    params = given_params(row_filter=row_filter, hidden=hidden)
    collector = TopKCollector(len(queries), k, index.metric.higher_is_better)
    assert index.search(
        queries, k, nprobe=nprobe, collector=collector, **params) is None
    return SearchResult(*collector.close())


def check_against_oracle(
        model, queries, k, nprobe, row_filter=None, atol=ATOL, hidden=None):
    """``index.search``, each regime called directly and the probe
    behind a collector, against the oracle; returns what
    ``index.search`` returned."""
    params = given_params(row_filter=row_filter, hidden=hidden)
    want, work = model.search(queries, k, nprobe, row_filter, hidden)
    with QueryProfile("probe") as prof:
        selected = model.index.search(queries, k, nprobe=nprobe, **params)
    check_result(model, queries, k, row_filter, atol, selected, prof, want, work)
    for regime in REGIMES:
        with QueryProfile("probe") as prof:
            got = search_in(
                model.index, regime, queries, k, nprobe, row_filter, hidden)
        check_result(model, queries, k, row_filter, atol, got, prof, want, work)
    with QueryProfile("probe") as prof:
        got = search_collected(model.index, queries, k, nprobe, row_filter, hidden)
    assert got.scores.dtype == np.float64
    check_result(model, queries, k, row_filter, atol, got, prof, want, work)
    if hidden is not None:
        assert not np.isin(selected.ids, hidden).any()
    return selected


def check_result(model, queries, k, row_filter, atol, got, prof, want, work):
    assert got.ids.shape == got.scores.shape == (len(queries), k)
    sign = -1.0 if model.index.metric.higher_is_better else 1.0
    position = {int(i): p for p, i in enumerate(model.ids)}
    for qi, (rows, scores) in enumerate(want):
        n = len(rows)
        ids = got.ids[qi]
        assert (ids[:n] >= 0).all() and (ids[n:] == -1).all(), (qi, n, ids)
        assert len(set(ids[:n].tolist())) == n  # no row returned twice
        got_scores = got.scores[qi, :n]
        # best-first, and the same score at every rank as the oracle
        assert (np.diff(sign * got_scores) >= 0).all()
        np.testing.assert_allclose(got_scores, scores, rtol=RTOL, atol=atol)
        # every returned id carries its own score (ties may permute ids,
        # never detach an id from its score)
        mine = model.scores(
            queries[qi], np.array([position[int(i)] for i in ids[:n]], dtype=int))
        np.testing.assert_allclose(got_scores, mine, rtol=RTOL, atol=atol)
        if row_filter is not None:
            assert np.isin(ids[:n], row_filter).all()
    counters = prof.total_counters()
    assert {key: counters.get(key, 0) for key in work} == work


def same_answer(index, a, ai, b, bi):
    """Row ``ai`` of result ``a`` answers as row ``bi`` of ``b`` does."""
    # BLAS may round a dot product (PQ: a table entry) in the last bit
    # differently at another block shape
    np.testing.assert_allclose(a.scores[ai], b.scores[bi], rtol=1e-5, atol=1e-4)
    if not isinstance(index, IVFPQIndex):
        # a duplicated row ties with its original in exact arithmetic:
        # the same rows, up to which copy was taken (PQ codes tie far
        # more rows than the duplicates)
        np.testing.assert_array_equal(canonical(a.ids[ai]), canonical(b.ids[bi]))


# -- fixtures: one built index per (type, metric) -------------------------------


@pytest.fixture(scope="module")
def built():
    cache = {}

    def get(itype, metric):
        if (itype, metric) not in cache:
            data = clustered(700, seed=1)
            index = FACTORIES[itype](metric)
            index.train(data)
            model = Model(index)
            # Rows of five buckets only, so the others stay empty; then
            # 40 exact duplicates (ties), in a second add; ids are not
            # positions.
            labels = nearest_centroid(index, data)
            some = np.flatnonzero(np.isin(labels, [0, 3, 4, 7, 9]))[:260]
            model.add(data[some], 1000 + 3 * np.arange(len(some)))
            model.add(data[some[:40]], DUP_BASE + np.arange(40))
            cache[itype, metric] = model
        return cache[itype, metric]

    return get


@pytest.fixture(scope="module")
def queries():
    return clustered(9, seed=2)


# -- the matrix ---------------------------------------------------------------


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("itype", sorted(FACTORIES))
class TestProbeMatchesOracle:
    def test_has_empty_buckets_and_ties(self, built, itype, metric):
        model = built(itype, metric)
        sizes = model.index.bucket_sizes()
        assert (sizes == 0).any() and sizes.sum() == 300 == model.index.ntotal
        np.testing.assert_array_equal(
            sizes, np.bincount(model.labels(), minlength=NLIST))

    @pytest.mark.parametrize("k,nprobe", [
        (5, 3),        # the ordinary case
        (5, 1),        # nprobe=1: pass 1 only
        (5, NLIST),    # every bucket
        (7, 100),      # nprobe above nlist is clamped
        (150, 4),      # k above any bucket's size: infinite thresholds
        (1000, NLIST),  # k above ntotal: everything, then padding
        (1, 2),
    ])
    def test_unfiltered(self, built, queries, itype, metric, k, nprobe):
        check_against_oracle(built(itype, metric), queries, k, nprobe)

    @pytest.mark.parametrize("which", ["empty", "one-row", "absent-ids", "half", "all"])
    def test_row_filter(self, built, queries, itype, metric, which):
        model = built(itype, metric)
        row_filter = {
            "empty": np.empty(0, dtype=np.int64),
            "one-row": model.ids[[17]],
            "absent-ids": np.array([-5, 1, 2, 999999], dtype=np.int64),
            "half": np.sort(model.ids[::2]),
            "all": np.sort(model.ids),
        }[which]
        got = check_against_oracle(model, queries, 6, 5, row_filter)
        if which in ("empty", "absent-ids"):
            assert (got.ids == -1).all()

    @pytest.mark.parametrize("k", [5, 150])
    @pytest.mark.parametrize("which", [
        "none", "absent-ids", "a-few", "a-bucket", "half", "all"])
    def test_hidden_rows(self, built, queries, itype, metric, which, k):
        """Tombstones of the owning segment: in place, never returned,
        and ``k`` is what the caller asked for."""
        model = built(itype, metric)
        hidden = {
            "none": np.empty(0, dtype=np.int64),
            "absent-ids": np.array([-5, 1, 2, 999999], dtype=np.int64),
            "a-few": np.sort(model.ids[[3, 17, 40, 41, 299]]),
            "a-bucket": np.sort(model.ids[model.labels() == 4]),
            "half": np.sort(model.ids[1::2]),
            "all": np.sort(model.ids),
        }[which]
        got = check_against_oracle(model, queries, k, 5, hidden=hidden)
        if which == "all":
            assert (got.ids == -1).all()
        # ... and under a filter they are simply not admissible
        check_against_oracle(
            model, queries, k, 5, np.sort(model.ids[::3]), hidden=hidden)

    def test_hidden_rows_are_translated_once_per_array(
            self, built, queries, itype, metric, monkeypatch):
        from repro.index.ivf_common import ListsSnapshot

        model = built(itype, metric)
        calls = []
        positions_of = ListsSnapshot.positions_of
        monkeypatch.setattr(
            ListsSnapshot, "positions_of",
            lambda self, ids: calls.append(ids) or positions_of(self, ids))
        hidden = np.sort(model.ids[:9])
        for nq in (1, 9):  # both regimes
            model.index.search(queries[:nq], 5, nprobe=NLIST, hidden=hidden)
        assert len(calls) == 1 and calls[0] is hidden
        model.index.search(queries, 5, nprobe=4, hidden=hidden.copy())
        assert len(calls) == 2

    def test_single_query_equals_its_row_of_the_batch(
            self, built, queries, itype, metric):
        """A query's answer does not depend on its batch-mates: ties
        break by (score, CSR position), both properties of the row."""
        model = built(itype, metric)
        full = model.index.search(queries, 8, nprobe=4)
        solos = [lambda q: model.index.search(q, 8, nprobe=4)] + [
            lambda q, regime=regime: search_in(model.index, regime, q, 8, 4)
            for regime in REGIMES]
        for qi in (0, 4, 8):
            for search in solos:
                same_answer(model.index, search(queries[qi:qi + 1]), 0, full, qi)

    def test_exact_ties_come_in_csr_order(self, built, queries, itype, metric):
        if not isinstance(built(itype, metric).index, IVFPQIndex):
            return  # only table-gather scores tie bit-exactly
        model = built(itype, metric)
        snap = model.index.lists.snapshot()
        where = {int(i): p for p, i in enumerate(snap.ids)}
        for regime in REGIMES:
            got = search_in(model.index, regime, queries, 40, NLIST)
            ties = 0
            for ids, scores in zip(got.ids, got.scores):
                pos = np.array([where[int(i)] for i in ids[ids >= 0]])
                same = np.diff(scores[: len(pos)]) == 0
                ties += int(same.sum())
                assert (np.diff(pos)[same] > 0).all()
            assert ties > 0  # the duplicated rows guarantee some

    def test_serialization_round_trip(self, built, queries, itype, metric):
        model = built(itype, metric)
        restored = index_from_bytes(index_to_bytes(model.index))
        assert type(restored) is type(model.index)
        assert restored.ntotal == model.index.ntotal
        want = model.index.search(queries, 9, nprobe=5)
        got = restored.search(queries, 9, nprobe=5)
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.scores, want.scores)


# -- serialization: the layout written before the CSR one ------------------------


def old_layout_blob(index) -> bytes:
    """The per-bucket, zlib-compressed npz ``index_to_bytes`` used to write."""
    arrays = {"centroids": index.centroids}
    snap = index.lists.snapshot()
    for list_no in range(index.nlist):
        lo, hi = snap.offsets[list_no], snap.offsets[list_no + 1]
        arrays[f"ids__{list_no}"] = snap.ids[lo:hi]
        if hi > lo:  # the old writer had no codes array for an empty bucket
            arrays[f"codes__{list_no}"] = snap.codes[lo:hi]
    meta = {"index_type": index.index_type, "dim": index.dim,
            "metric": index.metric.name, "nlist": index.nlist}
    if isinstance(index, IVFSQ8Index):
        arrays["sq_vmin"], arrays["sq_vdiff"] = index.sq.vmin, index.sq.vdiff
    if isinstance(index, IVFPQIndex):
        meta["pq_m"], meta["pq_nbits"] = index.pq.m, index.pq.nbits
        arrays["pq_codebooks"] = index.pq.codebooks
    if isinstance(index, IVFOPQIndex):
        meta["opq_iters"] = index.opq_iters
        arrays["opq_rotation"] = index.rotation
    buf = io.BytesIO()
    np.savez_compressed(
        buf, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays)
    return buf.getvalue()


class TestBlobLayouts:
    @pytest.mark.parametrize("itype", sorted(FACTORIES))
    def test_old_per_bucket_blob_still_loads(self, built, queries, itype):
        model = built(itype, "l2")
        restored = index_from_bytes(old_layout_blob(model.index))
        assert restored.ntotal == model.index.ntotal
        np.testing.assert_array_equal(
            restored.bucket_sizes(), model.index.bucket_sizes())
        want = model.index.search(queries, 9, nprobe=5)
        got = restored.search(queries, 9, nprobe=5)
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_new_blob_is_three_arrays_uncompressed(self, built):
        blob = index_to_bytes(built("IVF_FLAT", "l2").index)
        with np.load(io.BytesIO(blob)) as archive:
            assert sorted(archive.files) == [
                "centroids", "codes", "ids", "meta", "offsets"]
        import zipfile
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}

    def test_trained_but_empty_index_round_trips(self):
        index = IVFFlatIndex(DIM, nlist=NLIST, seed=0)
        index.train(clustered(100, seed=3))
        for blob in (index_to_bytes(index), old_layout_blob(index)):
            restored = index_from_bytes(blob)
            assert restored.ntotal == 0 and restored.is_trained
            assert (restored.search(clustered(2, seed=4), 3).ids == -1).all()


# -- a dense metric the kernels have no GEMM form for ------------------------------


class TestCustomDenseMetric:
    @pytest.mark.parametrize("cls", [IVFFlatIndex, IVFSQ8Index])
    def test_probe_serves_it_through_the_reference_scorer(self, cls, queries):
        from repro.metrics import Metric

        class L1(Metric):
            name = "test_ivf_l1"
            higher_is_better = False

            def pairwise(self, queries, data):
                return np.abs(queries[:, None, :] - data[None, :, :]).sum(axis=2)

        data = clustered(300, seed=6)
        index = cls(DIM, metric=L1(), nlist=NLIST, seed=0)
        index.train(data)
        index.add(data)
        stored = data if cls is IVFFlatIndex else index.sq.decode(index.sq.encode(data))
        exact = np.abs(queries[:, None, :] - stored[None, :, :]).sum(axis=2)
        for got in [index.search(queries, 5, nprobe=NLIST),
                    search_collected(index, queries, 5, NLIST)] + [
                search_in(index, regime, queries, 5, NLIST) for regime in REGIMES]:
            np.testing.assert_array_equal(got.ids, np.argsort(exact, axis=1)[:, :5])
            np.testing.assert_allclose(
                got.scores, np.sort(exact, axis=1)[:, :5], rtol=1e-5)
        hits = index.range_search(queries[:1], float(got.scores[0, 2]), nprobe=NLIST)
        assert [i for i, __ in hits[0]] == got.ids[0, :3].tolist()


# -- which regime a request gets ----------------------------------------------------


class TestRegimeSelection:
    @pytest.mark.parametrize("nq,nprobe,nlist,query_major", [
        (1, 8, 128, True),      # search_single, and mixed_rw per segment
        (8, 16, 128, True),     # search_filtered: one pair per list
        (64, 32, 128, False),   # search_batch: sixteen
        (1, 128, 128, True),    # one query cannot share a bucket with itself
        (2, 128, 128, True),    # exactly two pairs per list
        (3, 128, 128, False),
        (17, 16, 128, False),   # one query past two pairs per list
        (1, 1, 1, True),
        (64, 1, 64, True),      # a big batch of single-bucket probes
        (64, 4, 4096, True),    # ... or over many lists
        (1000, 8, 128, False),
    ])
    def test_rule(self, nq, nprobe, nlist, query_major):
        assert probes_query_major(nq, nprobe, nlist) is query_major

    def test_rule_sees_the_clamped_nprobe(self):
        """``nprobe`` above ``nlist`` probes ``nlist`` buckets, and it is
        that number the rule is given."""
        index = IVFFlatIndex(DIM, nlist=NLIST, seed=0)
        index.train(clustered(100, seed=3))
        assert index.select_buckets(clustered(1, seed=4), 10 ** 6).shape == (1, NLIST)

    @pytest.mark.parametrize("itype", sorted(FACTORIES))
    def test_a_query_answers_alone_as_inside_a_batch_of_another_regime(self, itype):
        nlist, nprobe, batch = 24, 4, 64
        assert probes_query_major(1, nprobe, nlist)
        assert not probes_query_major(batch, nprobe, nlist)
        data = clustered(3000, seed=7)
        codec = {"IVF_PQ": {"m": 4, "nbits": 4},
                 "IVF_OPQ": {"m": 4, "nbits": 4, "opq_iters": 2}}.get(itype, {})
        index = type(FACTORIES[itype]("l2"))(DIM, nlist=nlist, seed=0, **codec)
        index.train(data)
        index.add(data)
        queries = clustered(batch, seed=8)
        full = index.search(queries, 10, nprobe=nprobe)
        for qi in range(0, batch, 7):
            same_answer(index, index.search(queries[qi:qi + 1], 10, nprobe=nprobe),
                        0, full, qi)


# -- add and search interleaved ---------------------------------------------------


class TestAddOrder:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(sorted(FACTORIES)),
        st.sampled_from(METRICS),
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(1, 60)),
                st.tuples(st.just("search"), st.integers(1, 80),
                          st.integers(1, NLIST), st.booleans(), st.booleans()),
            ),
            min_size=2, max_size=7,
        ),
        st.integers(0, 10_000),
    )
    def test_any_interleaving_matches_the_oracle(self, itype, metric, ops, seed):
        train = TRAINED.get((itype, metric))
        if train is None:
            index = FACTORIES[itype](metric)
            index.train(clustered(400, seed=5))
            train = TRAINED[itype, metric] = index_to_bytes(index)
        model = Model(index_from_bytes(train))
        rng = np.random.default_rng(seed)
        next_id = 0
        for op in ops:
            if op[0] == "add":
                n = op[1]
                # shuffled, gapped ids: positions, ids and order all differ
                ids = next_id + rng.permutation(2 * n)[:n].astype(np.int64)
                next_id += 2 * n
                model.add(clustered(n, seed=int(rng.integers(1 << 30))), ids)
            else:
                __, k, nprobe, filtered, tombstoned = op
                row_filter = hidden = None
                if filtered and len(model.ids):
                    keep = rng.random(len(model.ids)) < 0.5
                    row_filter = np.sort(model.ids[keep])
                if tombstoned and len(model.ids):
                    hidden = np.sort(model.ids[rng.random(len(model.ids)) < 0.3])
                queries = clustered(3, seed=int(rng.integers(1 << 30)))
                if len(model.ids) == 0:
                    assert (model.index.search(queries, k).ids == -1).all()
                    continue
                check_against_oracle(
                    model, queries, k, nprobe, row_filter, hidden=hidden)


#: (type, metric) -> blob of a trained, empty index (training is the slow part)
TRAINED = {}
