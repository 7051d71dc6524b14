"""Segments: columnar layout, search, merge, serialization."""

import io
import json
import zipfile

import numpy as np
import pytest

from repro.storage import Segment
from repro.storage.attributes import AttributeColumn
from repro.storage.categorical import CategoricalColumn
from repro.datasets import sift_like

SPECS = {"emb": (16, "l2")}


def make_segment(seg_id, row_ids, data, prices):
    row_ids = np.asarray(row_ids, dtype=np.int64)
    return Segment(
        seg_id, row_ids, {"emb": data},
        {"price": AttributeColumn(prices, row_ids)},
        SPECS,
    )


@pytest.fixture(scope="module")
def seg():
    data = sift_like(200, dim=16, seed=0)
    prices = np.linspace(0, 100, 200)
    return make_segment(0, np.arange(200), data, prices), data, prices


class TestSegmentBasics:
    def test_row_ids_must_increase(self):
        with pytest.raises(ValueError):
            make_segment(0, [3, 2, 1], np.zeros((3, 16), np.float32), np.zeros(3))

    def test_vectors_for(self, seg):
        segment, data, __ = seg
        got = segment.vectors_for("emb", np.array([5, 10]))
        np.testing.assert_array_equal(got, data[[5, 10]])

    def test_vectors_for_missing_raises(self, seg):
        segment, *_ = seg
        with pytest.raises(KeyError):
            segment.vectors_for("emb", np.array([9999]))

    def test_positions_of(self, seg):
        segment, *_ = seg
        pos = segment.positions_of(np.array([0, 199, 500]))
        assert pos.tolist() == [0, 199, -1]

    def test_attribute_range(self, seg):
        segment, __, prices = seg
        rows = segment.attribute_range("price", 0, 50)
        assert (prices[rows] <= 50).all()


class TestSegmentSearch:
    def test_brute_force_exact(self, seg):
        segment, data, __ = seg
        result = segment.search("emb", data[7], 1)
        assert result.ids[0, 0] == 7

    def test_exclude_tombstones(self, seg):
        segment, data, __ = seg
        result = segment.search("emb", data[7], 1, exclude=np.array([7]))
        assert result.ids[0, 0] != 7

    def test_row_filter(self, seg):
        segment, data, __ = seg
        allowed = np.arange(100, 200, dtype=np.int64)
        result = segment.search("emb", data[7], 5, row_filter=allowed)
        assert (result.ids[0][result.ids[0] >= 0] >= 100).all()

    def test_indexed_search_agrees_with_brute(self, seg):
        segment, data, __ = seg
        brute = segment.search("emb", data[:5], 5)
        segment.build_index("emb", "IVF_FLAT", nlist=8)
        indexed = segment.search("emb", data[:5], 5, nprobe=8)
        np.testing.assert_array_equal(brute.ids, indexed.ids)

    def test_indexed_search_with_tombstones(self, seg):
        segment, data, __ = seg
        if not segment.has_index("emb"):
            segment.build_index("emb", "IVF_FLAT", nlist=8)
        result = segment.search("emb", data[7], 1, nprobe=8, exclude=np.array([7]))
        assert result.ids[0, 0] != 7


def _drop_tombstones_reference(raw, exclude, k):
    """The per-hit loop ``Segment._search_with_index`` used to run:
    walk each best-first row, skip tombstones, stop at the first pad or
    at k kept.  Returns (ids, scores, tombstones met)."""
    ids = np.full((raw.nq, k), -1, dtype=np.int64)
    scores = np.full((raw.nq, k), np.inf)
    tombstoned = 0
    dead = set(exclude.tolist())
    for qi in range(raw.nq):
        kept = 0
        for item_id, score in zip(raw.ids[qi], raw.scores[qi]):
            if item_id < 0 or kept >= k:
                break
            if int(item_id) in dead:
                tombstoned += 1
                continue
            ids[qi, kept], scores[qi, kept] = item_id, score
            kept += 1
    return ids, scores, tombstoned


class TestTombstoneCompaction:
    """Dropping tombstoned hits gives what the per-hit loop over a
    ``k + dead`` wide result gave — whether the index masks the dead
    rows where they lie and is asked for ``k`` (IVF), or cannot, is
    asked for ``k + dead`` and has the gaps closed (everything else)."""

    @pytest.mark.parametrize("n_dead,k,nprobe", [
        (1, 5, 8), (30, 5, 8), (150, 10, 8), (199, 3, 8), (200, 4, 8),
        (40, 60, 2),   # k above what two buckets hold: padded rows
        (25, 1, 1),
        (5, 250, 8),   # k above the segment's row count
    ])
    def test_matches_the_per_hit_loop(self, n_dead, k, nprobe):
        from repro.obs.profile import QueryProfile

        data = sift_like(200, dim=16, seed=0)
        rng = np.random.default_rng(n_dead)
        exclude = np.sort(rng.choice(200, n_dead, replace=False)).astype(np.int64)
        queries = data[rng.choice(200, 6, replace=False)]

        def check(itype, build, params):
            segment = make_segment(0, np.arange(200), data, np.zeros(200))
            segment.build_index("emb", itype, **build)
            with QueryProfile("segment") as prof:
                got = segment.search("emb", queries, k, exclude=exclude, **params)
            # the wide result, one slot per tombstone, walked hit by hit
            index = segment.indexes["emb"]
            raw = index.search(queries, min(k + n_dead, 200), **params)
            ids, scores, tombstoned = _drop_tombstones_reference(raw, exclude, k)
            np.testing.assert_array_equal(got.ids, ids)
            np.testing.assert_array_equal(got.scores, scores)
            assert not np.isin(got.ids, exclude).any()
            return index, prof.total_counters().get("candidates_pruned", 0), tombstoned

        # cannot mask: pruned is what the walk met before it stopped
        __, pruned, tombstoned = check("FLAT", {}, {})
        assert pruned == tombstoned
        # masks: pruned is every dead row inside a probed bucket,
        # whatever k is
        index, pruned, __ = check("IVF_FLAT", {"nlist": 8}, {"nprobe": nprobe})
        snap = index.lists.snapshot()
        dead_per_bucket = np.array([
            np.isin(snap.ids[lo:hi], exclude).sum()
            for lo, hi in zip(snap.offsets[:-1], snap.offsets[1:])])
        assert pruned == dead_per_bucket[index.select_buckets(queries, nprobe)].sum()


class TestOwnDeadRowsOnly:
    """A segment widens its search, masks and copies for the tombstones
    that fall on its own rows, worked out once per tombstone array."""

    @pytest.fixture()
    def indexed(self):
        data = sift_like(200, dim=16, seed=0)
        segment = make_segment(0, np.arange(1000, 1200), data, np.zeros(200))
        segment.build_index("emb", "IVF_FLAT", nlist=8)
        return segment, data

    @pytest.fixture()
    def asked_k(self, indexed, monkeypatch):
        """The ``k`` each index search of the segment was asked for."""
        index = indexed[0].indexes["emb"]
        asked = []
        search = index.search
        monkeypatch.setattr(
            index, "search",
            lambda q, k, **kw: asked.append(k) or search(q, k, **kw))
        return asked

    def test_tombstones_elsewhere_do_not_widen_the_search(self, indexed, asked_k):
        segment, data = indexed
        elsewhere = np.arange(0, 900, dtype=np.int64)  # none of rows 1000..1199
        got = segment.search("emb", data[:4], 5, nprobe=8, exclude=elsewhere)
        assert asked_k == [5]
        want = segment.search("emb", data[:4], 5, nprobe=8)
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_widens_by_its_own_dead_rows(self, indexed, asked_k, monkeypatch):
        """... when the index cannot mask them; one that can is asked
        for k and told which rows to hide — its own, nobody else's."""
        segment, data = indexed
        exclude = np.concatenate([np.arange(900), [1000, 1003, 1100]]).astype(np.int64)
        told = []
        index = segment.indexes["emb"]
        search = index.search
        monkeypatch.setattr(
            index, "search",
            lambda q, k, **kw: told.append(kw.get("hidden")) or search(q, k, **kw))
        got = segment.search("emb", data[:4], 5, nprobe=8, exclude=exclude)
        assert asked_k == [5]
        assert [hidden.tolist() for hidden in told] == [[1000, 1003, 1100]]
        assert not np.isin(got.ids, exclude).any()
        assert (got.ids >= 0).all()
        assert got.ids[1, 0] == 1001  # a live row still finds itself

        flat = make_segment(0, np.arange(1000, 1200), data, np.zeros(200))
        flat.build_index("emb", "FLAT")
        asked = []
        search_flat = flat.indexes["emb"].search
        monkeypatch.setattr(
            flat.indexes["emb"], "search",
            lambda q, k, **kw: asked.append((k, sorted(kw))) or search_flat(q, k, **kw))
        got_flat = flat.search("emb", data[:4], 5, exclude=exclude)
        assert asked == [(5 + 3, [])]
        np.testing.assert_array_equal(got_flat.ids, got.ids)  # nprobe=8 of 8: exact

    def test_brute_force_without_dead_rows_copies_nothing(self, monkeypatch):
        from repro.storage import segment as segment_module

        data = sift_like(200, dim=16, seed=0)
        segment = make_segment(0, np.arange(1000, 1200), data, np.zeros(200))
        scored = []
        pairwise = segment_module.l2_squared_pairwise
        monkeypatch.setattr(
            segment_module, "l2_squared_pairwise",
            lambda q, d, **kw: scored.append(d) or pairwise(q, d, **kw))
        elsewhere = np.arange(0, 900, dtype=np.int64)
        got = segment.search("emb", data[:3], 2, exclude=elsewhere)
        assert scored[0] is segment.vectors["emb"]  # the matrix itself, no mask
        assert got.ids[:, 0].tolist() == [1000, 1001, 1002]
        # with a dead row of its own: masked, and the row is gone
        got = segment.search(
            "emb", data[:3], 2, exclude=np.array([5, 1001], dtype=np.int64))
        assert len(scored[1]) == 199
        assert 1001 not in got.ids

    def test_worked_out_once_per_tombstone_array(self, indexed, monkeypatch):
        from repro.storage import segment as segment_module

        segment, data = indexed
        calls = []
        membership = segment_module.sorted_membership
        monkeypatch.setattr(
            segment_module, "sorted_membership",
            lambda values, ref: calls.append(len(values)) or membership(values, ref))
        first = np.array([7, 1002], dtype=np.int64)
        for __ in range(3):
            segment.search("emb", data[:2], 3, nprobe=8, exclude=first)
            segment.search("emb", data[:2], 3, brute_force=True, exclude=first)
        # one pass over the segment's 200 rows; the rest are post-filters
        # of the few returned ids
        assert calls.count(200) == 1
        # a new array (the manifest replaces it on every delete) is new
        second = np.array([7, 1002, 1004], dtype=np.int64)
        got = segment.search("emb", data[:6], 3, nprobe=8, exclude=second)
        assert calls.count(200) == 2
        assert not np.isin(got.ids, second).any()
        # ... and the older array still answers for itself
        got = segment.search("emb", data[:6], 1, nprobe=8, exclude=first)
        assert got.ids[4, 0] == 1004 and calls.count(200) == 3


class TestSegmentMerge:
    def test_merge_combines_rows(self):
        data = sift_like(100, dim=16, seed=1)
        a = make_segment(0, np.arange(50), data[:50], np.arange(50.0))
        b = make_segment(1, np.arange(50, 100), data[50:], np.arange(50.0, 100.0))
        merged = Segment.merge(2, [a, b])
        assert len(merged) == 100
        np.testing.assert_array_equal(merged.row_ids, np.arange(100))
        np.testing.assert_array_equal(merged.vectors["emb"], data)

    def test_merge_drops_tombstones(self):
        data = sift_like(60, dim=16, seed=2)
        a = make_segment(0, np.arange(30), data[:30], np.zeros(30))
        b = make_segment(1, np.arange(30, 60), data[30:], np.zeros(30))
        merged = Segment.merge(2, [a, b], drop_ids=np.array([5, 35]))
        assert len(merged) == 58
        assert 5 not in merged.row_ids
        assert 35 not in merged.row_ids
        # Attribute column dropped the same rows.
        assert len(merged.attributes["price"]) == 58

    def test_merge_interleaved_ids(self):
        data = sift_like(40, dim=16, seed=3)
        a = make_segment(0, np.arange(0, 40, 2), data[:20], np.zeros(20))
        b = make_segment(1, np.arange(1, 40, 2), data[20:], np.zeros(20))
        merged = Segment.merge(2, [a, b])
        np.testing.assert_array_equal(merged.row_ids, np.arange(40))


class TestSegmentSerialization:
    def test_roundtrip(self, seg):
        segment, data, prices = seg
        blob = segment.to_bytes()
        restored = Segment.from_bytes(blob)
        assert restored.segment_id == segment.segment_id
        np.testing.assert_array_equal(restored.row_ids, segment.row_ids)
        np.testing.assert_array_equal(restored.vectors["emb"], segment.vectors["emb"])
        got = restored.attribute_range("price", 0, 50)
        expected = segment.attribute_range("price", 0, 50)
        assert set(got.tolist()) == set(expected.tolist())

    def test_roundtrip_search_identical(self, seg):
        segment, data, __ = seg
        restored = Segment.from_bytes(segment.to_bytes())
        r1 = segment._brute_force(
            __import__("repro.metrics", fromlist=["get_metric"]).get_metric("l2"),
            "emb", data[:3], 5, None, None,
        )
        r2 = restored.search("emb", data[:3], 5)
        np.testing.assert_array_equal(r1.ids, r2.ids)


def deflated_blob(segment) -> bytes:
    """The zlib-compressed npz ``Segment.to_bytes`` used to write."""
    meta = {
        "segment_id": segment.segment_id,
        "version": segment.version,
        "vector_specs": {k: list(v) for k, v in segment.vector_specs.items()},
        "attributes": sorted(segment.attributes),
        "categoricals": sorted(segment.categoricals),
        "bloom": {"k": segment.bloom.k, "m": segment.bloom.m},
    }
    arrays = {"row_ids": segment.row_ids, "bloom_bits": segment.bloom.bits}
    for name, mat in segment.vectors.items():
        arrays[f"vec__{name}"] = mat
    for name, col in segment.attributes.items():
        arrays[f"attr_keys__{name}"] = col.keys
        arrays[f"attr_rows__{name}"] = col.row_ids
    for name, col in segment.categoricals.items():
        arrays[f"cat__{name}"] = col.codes
    buf = io.BytesIO()
    np.savez_compressed(
        buf, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays)
    return buf.getvalue()


class TestBlobFormat:
    @pytest.fixture
    def full(self, seg):
        """A segment with every kind of column: vectors, a numeric
        attribute, a categorical and its bloom filter."""
        segment, data, prices = seg
        codes = np.arange(len(data)) % 5
        return Segment(
            7, segment.row_ids, {"emb": data},
            {"price": AttributeColumn(prices, segment.row_ids)}, SPECS,
            version=3,
            categoricals={"color": CategoricalColumn(codes, segment.row_ids)},
        )

    def test_deflated_blob_still_loads(self, full):
        restored = Segment.from_bytes(deflated_blob(full))
        assert (restored.segment_id, restored.version) == (7, 3)
        assert restored.vector_specs == full.vector_specs
        np.testing.assert_array_equal(restored.row_ids, full.row_ids)
        np.testing.assert_array_equal(restored.vectors["emb"], full.vectors["emb"])
        got, want = restored.attributes["price"], full.attributes["price"]
        np.testing.assert_array_equal(got.keys, want.keys)
        np.testing.assert_array_equal(got.row_ids, want.row_ids)
        np.testing.assert_array_equal(
            restored.categoricals["color"].codes, full.categoricals["color"].codes)
        assert (restored.bloom.k, restored.bloom.m) == (full.bloom.k, full.bloom.m)
        np.testing.assert_array_equal(restored.bloom.bits, full.bloom.bits)

    def test_new_blob_entries_are_stored(self, full):
        with zipfile.ZipFile(io.BytesIO(full.to_bytes())) as archive:
            entries = archive.infolist()
        assert {e.filename for e in entries} >= {
            "meta.npy", "row_ids.npy", "vec__emb.npy", "cat__color.npy",
            "bloom_bits.npy"}
        assert {e.compress_type for e in entries} == {zipfile.ZIP_STORED}

    def test_segments_and_indexes_share_one_writer(self):
        from repro.index import io as index_io
        from repro.storage import segment as segment_module
        from repro.utils.npz import npz_bytes

        assert segment_module.npz_bytes is npz_bytes
        assert index_io.npz_bytes is npz_bytes
