import numpy as np
import pytest

from plumeflux import kernels


@pytest.fixture
def workload(rng):
    n, p, k = 400, 9, 4
    X = np.ascontiguousarray(rng.random((n, p)) * 20 - 1.0)
    mu = X.mean(axis=0)
    q = rng.standard_normal(p)
    denom = float(q @ q) + 0.5
    a = rng.random(p) * 1e-3
    c = rng.random(p) * 1e-3
    centers = np.ascontiguousarray(rng.random((k, p)) * 20)
    labels = rng.integers(0, k, size=n)
    return X, mu, q, denom, a, c, centers, labels, k


@pytest.fixture
def segmented(workload, rng):
    """The workload's pixels as a band-major slab with 3 segments and nodata (-1)."""
    X, mu, q, denom, a, c, *_ = workload
    seg = rng.integers(-1, 3, size=X.shape[0])
    mus = np.stack([mu, mu + 1.0, mu - 2.0])
    qs = np.stack([q, 2.0 * q, -q])
    denoms = np.array([denom, 3.0 * denom, denom + 1.0])
    return np.ascontiguousarray(X.T), seg, mus, qs, denoms, a, c


class TestKernelContracts:
    def test_mf_scores_matches_matrix_algebra(self, segmented):
        Y, seg, mus, qs, denoms, *_ = segmented
        expected = np.zeros(Y.shape[1])
        for s in range(3):
            rows = seg == s
            expected[rows] = (Y.T[rows] - mus[s]) @ qs[s] / denoms[s]
        np.testing.assert_allclose(
            kernels.mf_scores(Y, seg, mus, qs, denoms), expected, rtol=1e-13
        )

    def test_noise_variance_matches_quadratic_form(self, segmented):
        Y, seg, mus, qs, denoms, a, c = segmented
        expected = np.zeros(Y.shape[1])
        for s in range(3):
            rows = seg == s
            expected[rows] = (np.maximum(Y.T[rows], 0) * a + c) @ (qs[s] * qs[s]) / denoms[s] ** 2
        np.testing.assert_allclose(
            kernels.noise_variance(Y, seg, a, c, qs, denoms), expected, rtol=1e-13
        )

    def test_nodata_scores_zero_whatever_it_holds(self, segmented):
        Y, seg, mus, qs, denoms, a, c = segmented
        junk = Y.copy()
        junk[:, seg < 0] = np.nan
        for kernel, args in ((kernels.mf_scores, (mus, qs, denoms)),
                             (kernels.noise_variance, (a, c, qs, denoms))):
            out = kernel(junk, seg, *args)
            assert np.all(out[seg < 0] == 0.0)
            np.testing.assert_array_equal(out, kernel(Y, seg, *args))

    def test_assign_labels_matches_brute_force(self, workload):
        X, _, _, _, _, _, centers, _, _ = workload
        d = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(kernels.assign_labels(X, centers), np.argmin(d, axis=1))

    def test_cluster_sums_matches_bincount(self, workload):
        X, *_, labels, k = workload
        sums, counts = kernels.cluster_sums(X, labels, k)
        np.testing.assert_array_equal(counts, np.bincount(labels, minlength=k))
        for m in range(k):
            np.testing.assert_allclose(sums[m], X[labels == m].sum(axis=0), rtol=1e-13)

    def test_min_sqdist_update(self, workload):
        X, _, _, _, _, _, centers, _, _ = workload
        d2 = np.full(X.shape[0], 11.0)
        kernels.min_sqdist_update(X, centers[0], d2)
        expected = np.minimum(11.0, ((X - centers[0]) ** 2).sum(axis=1))
        np.testing.assert_allclose(d2, expected, rtol=1e-13)


class TestBackendSelection:
    def test_active_backend_name(self):
        assert kernels.backend_name() == "numpy"
