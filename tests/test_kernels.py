import ctypes

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

    def test_pixel_chunks_do_not_change_the_sweep(self, segmented, monkeypatch):
        Y, seg, mus, qs, denoms, a, c = segmented
        whole = kernels.mf_scores(Y, seg, mus, qs, denoms), kernels.noise_variance(Y, seg, a, c, qs, denoms)
        monkeypatch.setattr(kernels, "_PIXEL_CHUNK", 7)  # 400 pixels: 57 full chunks and one of 1
        np.testing.assert_array_equal(kernels.mf_scores(Y, seg, mus, qs, denoms), whole[0])
        np.testing.assert_array_equal(kernels.noise_variance(Y, seg, a, c, qs, denoms), whole[1])

    @pytest.mark.parametrize("chunk", [7, 16_384])
    @pytest.mark.parametrize("shape", [(13, 5), (1, 9), (11, 1), (40, 9)])
    @pytest.mark.parametrize("partition", ["columns", "one", "mixed"])
    def test_two_d_map_equals_the_gather(self, rng, monkeypatch, partition, shape, chunk):
        # a map whose valid pixels carry their column's segment is swept in
        # whole lines against per-column tables; any other map gathers
        monkeypatch.setattr(kernels, "_PIXEL_CHUNK", chunk)  # 7: lines not a multiple of a block
        (lines, samples), p = shape, 6
        seg_map = np.tile(np.arange(samples), (lines, 1))
        if partition == "one":
            seg_map[:] = 0
        elif partition == "mixed":
            seg_map = rng.integers(0, 3, size=shape)
        nodata = rng.random(shape) < 0.2
        if samples > 1:
            nodata[:, samples // 2] = True  # an all-nodata column
        seg_map[nodata] = -1
        n_seg = max(1, seg_map.max() + 1)
        Y = (50.0 + rng.standard_normal((p, lines * samples))).astype(np.float32)
        Y[:, nodata.ravel()] = np.nan
        mu = 50.0 + rng.standard_normal((n_seg, p))
        q, denom = rng.standard_normal((n_seg, p)), rng.random(n_seg) + 0.5
        a, c = rng.random(p) * 1e-3, rng.random(p) * 1e-3
        for kernel, args in ((kernels.mf_scores, (mu, q, denom)),
                             (kernels.noise_variance, (a, c, q, denom))):
            out = kernel(Y, seg_map, *args)
            assert out.tobytes() == kernel(Y, seg_map.ravel(), *args).tobytes()
            assert np.all(out[nodata.ravel()] == 0.0) and np.all(np.isfinite(out))

    def test_assign_labels_matches_brute_force(self, workload, rng):
        X, _, _, _, _, _, centers, _, _ = workload
        subset = np.sort(rng.choice(X.shape[0], 50, replace=False))
        for rows in (None, subset):
            x = X if rows is None else X[rows]
            d = ((x[:, None, :] - centers) ** 2).sum(axis=2)
            labels, d1, d2 = kernels.assign_labels(X, centers, rows)
            np.testing.assert_array_equal(labels, np.argmin(d, axis=1))
            d.sort(axis=1)
            # the rounding bound the k-means margin relies on: (p + 3) eps (|x|^2 + |c|^2)
            bound = (X.shape[1] + 3) * np.finfo(float).eps * (
                (x**2).sum(axis=1) + (centers**2).sum(axis=1).max()
            )
            assert np.all(np.abs(d1 - d[:, 0]) <= bound)
            assert np.all(np.abs(d2 - d[:, 1]) <= bound)

    def test_assign_labels_second_distance_counts_ties(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        centers = np.array([[1.0, 1.0], [1.0, -1.0], [5.0, 0.0]])
        labels, d1, d2 = kernels.assign_labels(X, centers)
        np.testing.assert_array_equal(labels, [0, 0, 2])
        np.testing.assert_array_equal(d1, [2.0, 1.0, 4.0])
        np.testing.assert_array_equal(d2, [2.0, 1.0, 5.0])
        _, _, only = kernels.assign_labels(X, centers[:1])
        assert np.all(only == np.inf)

    def test_cluster_sums_matches_bincount(self, workload):
        X, *_, labels, k = workload
        sums, counts = kernels.cluster_sums(X, labels, k)
        np.testing.assert_array_equal(counts, np.bincount(labels, minlength=k))
        expected = np.stack([np.bincount(labels, weights=x, minlength=k) for x in X.T], axis=1)
        assert sums.tobytes() == expected.tobytes()

    def test_cluster_sums_over_counts_are_the_cluster_means(self, rng):
        # the ctmf merge takes its pooled-cluster centroids from one cluster_sums pass
        X = rng.random((5000, 72)) * 20
        labels = rng.integers(0, 8, size=5000)
        labels[labels == 3] = 5  # an empty cluster
        sums, counts = kernels.cluster_sums(X, labels, 8)
        uniq = np.unique(labels)
        expected = np.stack([X[labels == u].mean(axis=0) for u in uniq])
        assert (sums[uniq] / counts[uniq, None]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [[0, 40], [0, -1], [1]])
    def test_cluster_sums_rejects_a_row_index_outside_x_or_the_labels(self, rng, rows):
        # the C kernel reads X at these rows unchecked
        with pytest.raises(IndexError, match="one index into X per label"):
            kernels.cluster_sums(rng.random((40, 3)), np.array([0, 1]), 2, rows=np.array(rows))

    def test_min_sqdist_update(self, workload):
        X, _, _, _, _, _, centers, _, _ = workload
        d2 = np.full(X.shape[0], 11.0)
        kernels.min_sqdist_update(X, centers[0], d2)
        expected = np.minimum(11.0, ((X - centers[0]) ** 2).sum(axis=1))
        np.testing.assert_allclose(d2, expected, rtol=1e-13)

    def test_min_sqdist_update_chunks_match_one_pass(self, rng):
        X = rng.random((10_000, 72)) * 20  # three chunks, the last one short
        center = rng.random(72) * 20
        d2 = np.full(X.shape[0], np.inf)
        d2[::3] = 0.5
        diff = X - center
        expected = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
        kernels.min_sqdist_update(X, center, d2)
        assert d2.tobytes() == expected.tobytes()

    def test_min_sqdist_update_to_each_rows_own_center(self, workload):
        X, _, _, _, _, _, centers, labels, _ = workload
        d2 = kernels.min_sqdist_update(X, centers, np.full(X.shape[0], np.inf), labels)
        assert d2.tobytes() == np.einsum("ij,ij->i", X - centers[labels], X - centers[labels]).tobytes()


class TestBackendSelection:
    def test_active_backend_name(self):
        assert kernels.backend_name() == "numpy"


def _blas_threads():
    """This thread's OpenBLAS thread setting, read by setting it back; None under another BLAS."""
    numpy_lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    setter = getattr(numpy_lib, "openblas_set_num_threads_local", None)
    if setter is None:
        return None
    value = setter(1)
    setter(value)
    return value


class TestOneBlasThread:
    def test_products_keep_their_bits_and_the_setting_comes_back(self, rng):
        B = rng.standard_normal((72, 512))
        expected = B @ B.T  # large enough for OpenBLAS to split across threads
        before = _blas_threads()
        with kernels.one_blas_thread():
            inside = B @ B.T
            assert _blas_threads() in (None, 1)
        assert inside.tobytes() == expected.tobytes()
        assert _blas_threads() == before

    def test_restores_after_an_exception(self):
        before = _blas_threads()
        with pytest.raises(ValueError), kernels.one_blas_thread():
            raise ValueError
        assert _blas_threads() == before


class TestTrimHeap:
    def test_glibc_trim_or_a_no_op(self, monkeypatch):
        kernels.trim_heap()  # glibc's malloc_trim(0) where the C library has one

        class NoTrim:  # a C library without malloc_trim
            pass

        monkeypatch.setattr(kernels.ctypes, "CDLL", lambda name: NoTrim())
        kernels._heap_trimmer.cache_clear()
        try:
            assert kernels._heap_trimmer()(0) == 0
            kernels.trim_heap()
        finally:
            kernels._heap_trimmer.cache_clear()
