"""K-means: convergence, empty-cluster repair, determinism, and the
GEMM-built Lloyd step against its float64 ``np.add.at`` reference."""

import tracemalloc

import numpy as np
import pytest

from repro.index import KMeans
from repro.index.kmeans import _ASSIGN_CHUNK, assign_to_centroids, lloyd_step
from repro.datasets.synthetic import gaussian_mixture


def brute_force_labels(vectors, centroids):
    """Nearest centroid by the definition: float64 differences, squared."""
    diff = vectors[:, None, :].astype(np.float64) - centroids[None].astype(np.float64)
    full = (diff ** 2).sum(axis=2)
    return full.argmin(axis=1), full.min(axis=1)


def reference_lloyd_update(vectors, centroids, labels):
    """The update ``KMeans.fit`` used to make: per-cluster sums by
    ``np.add.at`` — here in float64 — divided by the counts."""
    sums = np.zeros(centroids.shape, dtype=np.float64)
    np.add.at(sums, labels, vectors.astype(np.float64))
    counts = np.bincount(labels, minlength=len(centroids))
    nonempty = counts > 0
    sums[nonempty] /= counts[nonempty, np.newaxis]
    return sums, counts


class TestKMeans:
    def test_recovers_separated_clusters(self):
        data = gaussian_mixture(600, 8, n_clusters=4, cluster_std=0.05, seed=0)
        km = KMeans(4, seed=0).fit(data)
        labels = km.predict(data)
        # Each found cluster should be internally consistent: points in
        # the same true blob land in the same k-means cluster.
        assert len(np.unique(labels)) == 4

    def test_inertia_decreases_with_more_clusters(self):
        data = gaussian_mixture(500, 8, n_clusters=8, seed=1)
        inertias = [KMeans(k, seed=0).fit(data).inertia_ for k in (2, 4, 8)]
        assert inertias[0] > inertias[1] > inertias[2]

    def test_deterministic_given_seed(self):
        data = gaussian_mixture(300, 6, seed=2)
        a = KMeans(5, seed=7).fit(data).centroids
        b = KMeans(5, seed=7).fit(data).centroids
        np.testing.assert_array_equal(a, b)

    def test_no_empty_clusters(self):
        # Data with fewer natural modes than requested clusters.
        rng = np.random.default_rng(3)
        data = np.repeat(rng.normal(size=(3, 4)), 50, axis=0).astype(np.float32)
        data += rng.normal(0, 1e-3, data.shape).astype(np.float32)
        km = KMeans(10, seed=0).fit(data)
        labels = km.predict(data)
        counts = np.bincount(labels, minlength=10)
        # Repair keeps every centroid meaningful (distinct positions),
        # even if some clusters stay tiny.
        assert len(np.unique(km.centroids, axis=0)) == 10
        assert counts.sum() == len(data)

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            KMeans(10).fit(np.zeros((5, 3), dtype=np.float32))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KMeans(3).predict(np.zeros((2, 3)))

    def test_assignment_is_nearest(self):
        data = gaussian_mixture(200, 5, seed=4)
        km = KMeans(6, seed=0).fit(data)
        labels, dists = assign_to_centroids(data, km.centroids)
        want_labels, want_dists = brute_force_labels(data, km.centroids)
        np.testing.assert_array_equal(labels, want_labels)
        # True distances (|x|^2 added back), not the argmin's partial score.
        np.testing.assert_allclose(dists, want_dists, rtol=1e-4, atol=1e-2)

    def test_chunked_assignment_matches_unchunked(self):
        data = gaussian_mixture(300, 5, seed=5)
        km = KMeans(4, seed=0).fit(data)
        l1, __ = assign_to_centroids(data, km.centroids, chunk=32)
        l2, __ = assign_to_centroids(data, km.centroids, chunk=10_000)
        np.testing.assert_array_equal(l1, l2)


class TestLloydStep:
    #: several chunks, the last one short, so sums accumulate across chunks
    N, DIM, K, CHUNK = 1000, 8, 16, 192

    @pytest.fixture
    def problem(self):
        data = gaussian_mixture(self.N, self.DIM, n_clusters=12, seed=6)
        rng = np.random.default_rng(6)
        centroids = data[rng.choice(self.N, self.K, replace=False)].copy()
        return data, centroids

    def test_one_step_equals_float64_add_at_update(self, problem):
        data, centroids = problem
        means, counts, labels, dists = lloyd_step(data, centroids, chunk=self.CHUNK)
        want_labels, want_dists = brute_force_labels(data, centroids)
        np.testing.assert_array_equal(labels, want_labels)
        want_means, want_counts = reference_lloyd_update(data, centroids, want_labels)
        np.testing.assert_array_equal(counts, want_counts)
        assert means.dtype == np.float32
        scale = float(np.abs(data).max())
        np.testing.assert_allclose(means, want_means, rtol=1e-5, atol=1e-5 * scale)
        np.testing.assert_allclose(dists, want_dists, rtol=1e-4, atol=1e-3)

    def test_empty_cluster_mean_stays_zero(self):
        data = np.zeros((10, 3), dtype=np.float32)
        data[5:] = 1.0
        centroids = np.array([[0, 0, 0], [1, 1, 1], [9, 9, 9]], dtype=np.float32)
        means, counts, __, __ = lloyd_step(data, centroids, chunk=4)
        assert counts.tolist() == [5, 5, 0]
        np.testing.assert_array_equal(means, [[0, 0, 0], [1, 1, 1], [0, 0, 0]])


def test_fit_allocates_no_k_by_n_array():
    """Peak traced memory of a 30k x 64, k=128 fit: one chunk-sized
    score buffer, reused as the one-hot, plus ``O(n)`` per-row state.
    A full one-hot would be a ``(k, n)`` float32 array; a one-hot beside
    the score block would put two chunk-sized matrices alive at once."""
    n, dim, k = 30_000, 64, 128
    data = np.random.default_rng(8).normal(size=(n, dim)).astype(np.float32)
    tracemalloc.start()
    try:
        KMeans(k, max_iter=3, seed=0).fit(data)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk_onehot = _ASSIGN_CHUNK * k * 4
    assert peak < k * n * 4
    assert peak < 1.5 * chunk_onehot
