import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from plumeflux import kernels, matched_filter
from plumeflux.errors import DataError, DomainError, NumericalError
from plumeflux.matched_filter import (
    MfConfig,
    _merge,
    _segment_moments,
    _whiten,
    _window_slab,
    apply_mf,
    compute_stats,
    decontaminate,
    kmeans,
    normalized_features,
    propagate_noise,
    retrieve,
)
from plumeflux.scene_io import RadianceCube, read_cube, write_cube
from plumeflux.segmentation import robust_threshold
from plumeflux.signature import (
    BandAbsorption,
    band_absorption,
    load_bundled_table,
    target_spectrum,
)

from conftest import deadline, make_cube, make_descriptor, random_spd

WINDOW = (2100.0, 2450.0)


def make_absorption(n_bands, k_values=None, rng=None):
    """Window absorption over all bands of a test descriptor."""
    if k_values is None:
        k_values = rng.uniform(1e-6, 3e-5, size=n_bands)
    return BandAbsorption(
        k_band=np.asarray(k_values, dtype=float),
        band_indices=np.arange(n_bands),
    )


def random_cube(rng, n_bands=5, lines=8, samples=10, mean=None, cov=None):
    """Cube whose window pixels are Gaussian draws from N(mean, cov)."""
    if mean is None:
        mean = rng.uniform(5.0, 20.0, size=n_bands)
    if cov is None:
        cov = random_spd(rng, n_bands, scale=0.01)
    chol = np.linalg.cholesky(cov)
    pixels = mean + rng.standard_normal((lines * samples, n_bands)) @ chol.T
    data = np.ascontiguousarray(pixels.T.reshape(n_bands, lines, samples))
    return make_cube(np.abs(data) + 0.1, n_bands=n_bands)


def two_pass_stats(X, gamma, delta_min=None):
    """Mean and shrinkage-regularized covariance of the rows of ``X``, in two passes."""
    mu = X.mean(0)
    Xc = X - mu
    S = Xc.T @ Xc / X.shape[0]
    trace_p = np.trace(S) / S.shape[0]
    floor = 1e-8 * (trace_p + 1.0) if delta_min is None else delta_min
    return mu, (1.0 - gamma) * S + max(gamma * trace_p, floor) * np.eye(S.shape[0])


def pixel_cube(X):
    """A one-column cube whose pixels are the rows of ``X``, and an all-band absorption."""
    n, p = X.shape
    return make_cube(X.T.reshape(p, n, 1)), make_absorption(p, np.full(p, 1e-5))


class TestSegmentStats:
    """Each segment's mean and shrinkage-regularized covariance from ``compute_stats``."""

    @pytest.mark.parametrize("variant", ["cmf", "ctmf"])
    def test_two_pixel_hand_case(self, variant):
        cube, absorption = pixel_cube(np.array([[0.0, 0.0], [2.0, 2.0]]))
        stats = compute_stats(cube, absorption, MfConfig(variant, cluster_count=1, shrinkage=0.0))
        np.testing.assert_array_equal(stats.mu, [[1.0, 1.0]])
        # divisor-N covariance [[1,1],[1,1]] plus floor 1e-8*(trace/p + 1) = 2e-8
        np.testing.assert_array_equal(stats.cov, [np.ones((2, 2)) + 2e-8 * np.eye(2)])

    @pytest.mark.parametrize("variant", ["cmf", "ctmf"])
    def test_identical_pixels_floor_keeps_spd(self, variant):
        cube, absorption = pixel_cube(np.full((10, 4), 7.0))
        stats = compute_stats(cube, absorption, MfConfig(variant, cluster_count=1, shrinkage=0.0))
        np.testing.assert_array_equal(stats.mu, [np.full(4, 7.0)])
        np.testing.assert_array_equal(stats.cov, [1e-8 * np.eye(4)])

    @pytest.mark.parametrize("variant", ["cmf", "ctmf"])
    def test_single_valid_pixel_rejected(self, variant):
        mask = np.array([[True], [False]])
        cube = make_cube(np.ones((3, 2, 1)), nodata_mask=mask)
        config = MfConfig(variant, cluster_count=1)
        with pytest.raises(DomainError, match="fewer than 2 valid pixels"):
            compute_stats(cube, make_absorption(3, np.full(3, 1e-5)), config)

    @pytest.mark.parametrize("delta_min", [None, 0.0, 0.5])
    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    @pytest.mark.parametrize("variant", ["cmf", "ctmf"])
    def test_each_segment_matches_the_two_pass_oracle(self, rng, variant, gamma, delta_min):
        cube = random_cube(rng, n_bands=5, lines=12, samples=10)
        config = MfConfig(variant, cluster_count=3, shrinkage=gamma, delta_min=delta_min)
        stats = compute_stats(cube, make_absorption(5, rng=rng), config)
        assert stats.n_segments == (3 if variant == "ctmf" else 1)
        pixels = cube.data.reshape(5, -1)
        for s in range(stats.n_segments):
            mu, cov = two_pass_stats(pixels[:, stats.segment_map.ravel() == s].T, gamma, delta_min)
            close(stats.mu[s], mu, 1e-10)
            close(stats.cov[s], cov, 1e-10)

    @pytest.mark.parametrize("variant", ["cmf", "ctmf"])
    def test_scaling_homogeneity(self, rng, variant):
        X = rng.random((50, 6)) * 10
        config = MfConfig(variant, cluster_count=2, shrinkage=0.0, delta_min=0.0)
        one, three = (compute_stats(*pixel_cube(a * X), config) for a in (1.0, 3.0))
        np.testing.assert_array_equal(three.segment_map, one.segment_map)
        np.testing.assert_allclose(three.mu, 3.0 * one.mu, rtol=1e-13)
        np.testing.assert_allclose(three.cov, 9.0 * one.cov, rtol=1e-12)


def plain_lloyd(X, k, seed, max_iter=100):
    """Reference k-means: the same seeding, then Lloyd steps that reassign every row.

    Returns (labels, steps, converged, number of steps that moved an empty center).
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.full(n, np.inf)
    for m in range(1, k):
        diff = X - centers[m - 1]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
        centers[m] = X[rng.choice(n, p=d2 / d2.sum())]
    labels = kernels.assign_labels(X, centers)[0]
    emptied = 0
    for step in range(1, max_iter + 1):
        sums = np.stack([np.bincount(labels, weights=x, minlength=k) for x in X.T], axis=1)
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            emptied += 1
            dist = np.einsum("ij,ij->i", X - centers[labels], X - centers[labels])
            for m in empty:
                far = int(np.argmax(dist))
                centers[m] = X[far]
                dist[far] = -1.0
            labels = kernels.assign_labels(X, centers)[0]
            continue
        centers = sums / counts[:, None]
        new_labels = kernels.assign_labels(X, centers)[0]
        if np.array_equal(new_labels, labels):
            return labels, step, True, emptied
        labels = new_labels
    return labels, max_iter, False, emptied


def blobs(rng, n, p, k):
    centers = rng.uniform(0.0, 10.0, size=(k, p))
    return centers[rng.integers(0, k, size=n)] + rng.standard_normal((n, p))


def overlapping_blobs():
    """20 000 x 8 points around 8 centers closer than the noise: 53 Lloyd steps from seed 0."""
    rng = np.random.default_rng(0)
    return rng.uniform(0.0, 2.0, size=(8, 8))[rng.integers(0, 8, size=20_000)] + rng.standard_normal((20_000, 8))


# points on which one Lloyd step of k = 4 from seed 49829 empties a cluster
EMPTY_CLUSTER = np.array([-2.5939996354485495, -4.865790190975382, -2.089178026314915,
                          0.834278274770828, 0.3074876332250506, -11.49807768747803,
                          -2.370933443626862, -3.052909875050551])[:, None]


class TestKmeansMatchesPlainLloyd:
    """Bounded k-means gives the labels, step count and convergence of plain Lloyd."""

    @staticmethod
    def check(X, k, seed, max_iter=100):
        labels, steps, converged = kmeans(X, k, seed, max_iter=max_iter)
        ref_labels, ref_steps, ref_converged, emptied = plain_lloyd(X, k, seed, max_iter)
        np.testing.assert_array_equal(labels, ref_labels)
        assert (steps, converged) == (ref_steps, ref_converged)
        return emptied

    @pytest.mark.parametrize("k", range(2, 9))
    def test_blobs(self, k):
        X = blobs(np.random.default_rng(100 + k), 1500, 6, k)
        self.check(X, k, seed=k)

    @pytest.fixture
    def passes(self, monkeypatch):
        """Rows of each assign_labels call over whole rows: ("full", n) or ("chunk", rows) for a re-run."""
        seen, first = [], []
        assign = kernels.assign_labels

        def recording(X, centers, rows=None):
            first.append(X)
            if rows is None:
                seen.append(("full" if X is first[0] else "chunk", X.shape[0]))
            return assign(X, centers, rows)

        monkeypatch.setattr(kernels, "assign_labels", recording)
        return seen

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("grid", [1, 2])
    def test_exact_ties_on_symmetric_points(self, k, grid):
        # integer points, mirror-symmetric: many rows lie exactly halfway
        # between two centers
        g = np.arange(-6.0, 7.0) if grid == 1 else np.arange(-3.0, 4.0)
        X = np.stack(np.meshgrid(*[g] * grid), axis=-1).reshape(-1, grid)
        for seed in range(4):
            self.check(X, k, seed)

    def test_exact_ties_take_the_full_chunk_label(self, passes):
        X = np.arange(-6.0, 7.0)[:, None]
        self.check(X, 4, seed=0)
        assert ("chunk", 13) in passes and set(passes) == {("full", 13), ("chunk", 13)}

    def test_duplicate_points(self, rng):
        X = np.repeat(blobs(rng, 40, 3, 4), 5, axis=0)
        rng.shuffle(X)
        self.check(X, 4, seed=3)

    def test_empty_cluster_rule(self):
        X = np.array([-2.5939996354485495, -4.865790190975382, -2.089178026314915,
                      0.834278274770828, 0.3074876332250506, -11.49807768747803,
                      -2.370933443626862, -3.052909875050551])[:, None]
        assert self.check(X, 4, seed=49829) >= 1

    def test_iteration_cap(self, rng):
        X = blobs(rng, 800, 4, 6)
        self.check(X, 6, seed=1, max_iter=2)
        assert kmeans(X, 6, seed=1, max_iter=2)[1:] == (2, False)

    def test_overlapping_blobs(self):
        # dozens of steps, most of which move a few rows: the running sums carry far
        self.check(overlapping_blobs(), 8, seed=0)

    @pytest.fixture
    def sums_calls(self, monkeypatch):
        """The row index of each cluster_sums call (None: every row)."""
        calls, sums = [], kernels.cluster_sums

        def recording(X, labels, k, rows=None):
            calls.append(rows)
            return sums(X, labels, k, rows)

        monkeypatch.setattr(kernels, "cluster_sums", recording)
        return calls

    def test_running_sums_stay_within_rounding_of_fresh_sums(self, monkeypatch, sums_calls):
        X, k = overlapping_blobs(), 8
        seen, moved = [], matched_filter._BoundedLabels.moved

        def recording(self, labels, old, centers):
            seen.append(centers.copy())
            return moved(self, labels, old, centers)

        monkeypatch.setattr(matched_filter._BoundedLabels, "moved", recording)
        labels, steps, converged = kmeans(X, k, seed=0)
        assert converged and steps > 30
        assert sums_calls[0] is None and all(r is not None for r in sums_calls[1:])
        assert np.median([r.size for r in sums_calls[1:]]) < 0.05 * X.shape[0]  # each moved row twice
        # at the fixpoint, the last centers are the running sums of the final labels over
        # their counts; per coordinate they lie within 4 steps eps sum|x| of a fresh sum
        sums, counts = kernels.cluster_sums(X, labels, k)
        bound = 4 * steps * np.finfo(np.float64).eps * kernels.cluster_sums(np.abs(X), labels, k)[0]
        assert np.all(np.abs(seen[-1] * counts[:, None] - sums) <= bound)

    @pytest.mark.parametrize("case", ["overlapping blobs", "empty cluster"])
    def test_one_cluster_sums_call_per_step(self, sums_calls, case):
        # perfbench counts the steps (and a stop at the cap) by these calls; every row is
        # summed in the first step and in the first after an empty-cluster reseed
        X, k, seed = (overlapping_blobs(), 8, 0) if case == "overlapping blobs" else (EMPTY_CLUSTER, 4, 49829)
        steps = kmeans(X, k, seed)[1]
        assert len(sums_calls) == steps
        full = [rows is None for rows in sums_calls]
        assert full[0] and sum(full) == 1 + plain_lloyd(X, k, seed)[3]

    def test_near_tie_fallback_reruns_whole_chunks(self, rng, monkeypatch, passes):
        # a wide margin puts many recomputed rows inside it, and small chunks
        # make each fallback re-run one chunk of many
        monkeypatch.setattr(matched_filter, "_MARGIN", 0.05)
        monkeypatch.setattr(kernels, "label_step", lambda k, p: 7)
        self.check(blobs(rng, 700, 5, 5), 5, seed=2)
        assert passes.count(("chunk", 7)) > 10 and set(passes) == {("full", 700), ("chunk", 7)}

    def test_growing_center_norms_force_a_full_pass(self, passes):
        # centers that start near the origin and move out grow past the norm
        # the margin was sized for, so the bounds are rebuilt by a full pass
        rng = np.random.default_rng(23)
        X = np.concatenate([0.3 * rng.standard_normal((24, 2)), 3.0 + rng.standard_normal((3, 2))])
        kmeans(X, 2, seed=0)
        assert passes == [("full", 27)] * 2
        assert self.check(X, 2, seed=0) == 0  # no empty cluster, so no other full pass


class TestKmeans:
    def test_k1_labels_everything_zero(self, rng):
        X = rng.random((40, 3))
        labels, steps, converged = kmeans(X, 1, seed=0)
        assert np.all(labels == 0) and (steps, converged) == (0, True)

    def test_two_blob_partition_matches_sse_oracle(self):
        X = np.array([[0.0], [0.0], [0.0], [10.0], [10.0], [10.0]])
        labels = kmeans(X, 2, seed=42)[0]

        def sse(assignment):
            total = 0.0
            for m in (0, 1):
                members = X[assignment == m]
                if members.size:
                    total += ((members - members.mean(axis=0)) ** 2).sum()
            return total

        # exhaustive oracle over the two candidate equal-split partitions plus
        # every other binary assignment of 6 points
        best = min(
            sse(np.array([(i >> j) & 1 for j in range(6)])) for i in range(1, 63)
        )
        assert sse(labels) == best == 0.0
        assert set(np.unique(labels[:3])) != set(np.unique(labels[3:]))
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1

    def test_same_seed_identical(self, rng):
        X = rng.random((60, 4))
        l1 = kmeans(X.copy(), 3, seed=9)[0]
        l2 = kmeans(X.copy(), 3, seed=9)[0]
        np.testing.assert_array_equal(l1, l2)

    def test_different_seed_preserves_two_blob_partition(self):
        X = np.array([[0.0], [0.0], [0.0], [10.0], [10.0], [10.0]])
        partitions = set()
        for seed in range(5):
            labels = kmeans(X, 2, seed=seed)[0]
            partitions.add(tuple(labels == labels[0]))
        assert partitions == {(True, True, True, False, False, False)}

    def test_not_enough_distinct_spectra(self):
        X = np.full((6, 2), 3.0)
        with pytest.raises(DomainError, match="distinct"):
            kmeans(X, 2, seed=0)

    def test_ctmf_splits_two_materials(self, rng):
        n_bands = 6
        desc = make_descriptor(n_bands=n_bands)
        rel = np.linspace(-0.5, 0.5, n_bands)
        a = 10.0 * (1 + 0.3 * rel)
        b = 4.0 * (1 - 0.3 * rel)
        data = np.empty((n_bands, 4, 6))
        data[:, :, :3] = a[:, None, None]
        data[:, :, 3:] = b[:, None, None]
        cube = make_cube(data, descriptor=desc)
        config = MfConfig(variant="ctmf", cluster_count=2, seed=1)
        labels = compute_stats(cube, make_absorption(n_bands, rng=rng), config).segment_map
        assert len(np.unique(labels[:, :3])) == 1
        assert len(np.unique(labels[:, 3:])) == 1
        assert labels[0, 0] != labels[0, 5]

    def test_ctmf_flags_a_stop_at_the_iteration_cap(self, rng, monkeypatch):
        cube = random_cube(rng, n_bands=5, lines=12, samples=10)
        absorption = make_absorption(5, rng=rng)
        config = MfConfig(variant="ctmf", cluster_count=3, contamination_iterations=0)
        cap = "segment 0: k-means stopped at its max_iter cap before a fixpoint"
        assert cap not in apply_mf(cube, absorption, config).provenance
        run = matched_filter.kmeans
        monkeypatch.setattr(matched_filter, "kmeans", lambda X, k, seed: run(X, k, seed, max_iter=1))
        provenance = retrieve(cube, absorption, config)[0].provenance
        assert cap in provenance
        # benchmark counters count these words in the provenance
        assert "pooled" not in provenance and "decontamination skipped" not in provenance

    def test_ctmf_fewer_pixels_than_k(self, rng):
        cube = make_cube(np.random.default_rng(0).random((3, 1, 2)) + 1)
        config = MfConfig(variant="ctmf", cluster_count=5)
        with pytest.raises(DomainError, match="cannot form 5 clusters from 2 pixels"):
            compute_stats(cube, make_absorption(3, rng=rng), config)

    def test_normalization_is_brightness_invariant(self, rng):
        X = rng.random((20, 5)) + 0.5
        gains = rng.uniform(0.5, 2.0, size=(20, 1))
        np.testing.assert_allclose(
            normalized_features(X), normalized_features(X * gains), rtol=1e-12
        )

    def test_normalization_in_place_is_bit_identical(self, rng):
        X = rng.random((20, 5)) + 0.5
        X[3] = 0.0  # a zero-mean spectrum is kept as-is
        expected = normalized_features(X)
        assert normalized_features(X, out=X) is X
        assert X.tobytes() == expected.tobytes()


class TestWhiten:
    """The filter q = cov^-1 t and its normalization t'q, which score (x - mu)'q / t'q."""

    def test_pixel_at_mean_is_zero_and_opposite_pixels_opposite(self):
        # exact sums: the mean is the middle pixel, and x - mu is exactly +-d or +-e
        mu = np.array([10.0, 20.0, 30.0, 40.0])
        d, e = np.array([0.5, -0.25, 1.0, -2.0]), np.array([1.0, 0.5, -0.5, 0.25])
        pixels = np.stack([mu - d, mu - e, mu, mu + e, mu + d])
        cube, absorption = pixel_cube(pixels)
        delta = apply_mf(cube, absorption, MfConfig("cmf")).delta_x.ravel()
        assert delta[2] == 0.0
        assert delta[4] == -delta[0] != 0.0 and delta[3] == -delta[1] != 0.0

    def test_algebraic_identity_recovers_coefficient(self, rng):
        for c in (-1e3, 1.0, 1234.5, 1e4):
            p = 6
            cov = random_spd(rng, p)
            mu = rng.random(p) * 10
            t = -rng.random(p) * mu
            q, denom = _whiten(cov[None], t[None])
            assert (c * t) @ q[0] / denom[0] == pytest.approx(c, rel=1e-9)

    def test_hand_evaluated_identity_covariance(self):
        q, denom = _whiten(np.eye(2)[None], np.array([[1.0, -1.0]]))
        np.testing.assert_array_equal(q, [[1.0, -1.0]])
        np.testing.assert_array_equal(denom, [2.0])
        assert np.array([3.0, 1.0]) @ q[0] / denom[0] == 1.0

    def test_zero_target_rejected(self):
        with pytest.raises(DomainError, match="degenerate"):
            _whiten(np.eye(2)[None], np.zeros((1, 2)))

    def test_non_spd_covariance_is_numerical_error(self):
        with pytest.raises(NumericalError, match="positive definite"):
            _whiten(-np.eye(2)[None], np.ones((1, 2)))


class TestApplyMf:
    def test_matches_gls_oracle_random_scenes(self, rng):
        # oracle: explicit inverse-based GLS minimizer per pixel
        for trial in range(10):
            n_bands = int(rng.integers(4, 12))
            cube = random_cube(rng, n_bands=n_bands, lines=6, samples=7)
            absorption = make_absorption(n_bands, rng=rng)
            config = MfConfig(
                variant="cmf", shrinkage=float(rng.uniform(0, 0.3)), contamination_iterations=0
            )
            field = apply_mf(cube, absorption, config)
            stats = compute_stats(cube, absorption, config)
            inv = np.linalg.inv(stats.cov[0])
            t = stats.t[0]
            denom = t @ inv @ t
            X = cube.data.reshape(n_bands, -1).T
            oracle = (X - stats.mu[0]) @ (inv @ t) / denom
            np.testing.assert_allclose(field.delta_x.ravel(), oracle, rtol=1e-10, atol=1e-10)

    def test_injected_target_recovered_exactly(self, rng):
        n_bands = 5
        cube = random_cube(rng, n_bands=n_bands)
        absorption = make_absorption(n_bands, rng=rng)
        config = MfConfig(variant="cmf", contamination_iterations=0)
        stats = compute_stats(cube, absorption, config)
        c = 1234.5
        data = cube.data.copy()
        data[:, 0, 0] = stats.mu[0] + c * stats.t[0]
        cube2 = make_cube(data, descriptor=cube.descriptor)
        field = apply_mf(cube2, absorption, config, stats=stats)
        assert field.delta_x[0, 0] == pytest.approx(c, rel=1e-9)

    def test_zero_mean_over_segment_pixels(self, rng):
        for variant in ("cmf", "ctmf", "cwcmf"):
            cube = random_cube(rng, n_bands=4, lines=12, samples=9)
            absorption = make_absorption(4, rng=rng)
            config = MfConfig(variant=variant, cluster_count=3, contamination_iterations=0)
            field = apply_mf(cube, absorption, config)
            stats = compute_stats(cube, absorption, config)
            for s in range(stats.n_segments):
                seg_values = field.delta_x[stats.segment_map == s]
                scale = max(1.0, np.abs(field.delta_x).max())
                assert abs(seg_values.mean()) <= 1e-9 * scale

    def test_radiometric_gain_invariance(self, rng):
        n_bands = 5
        cube = random_cube(rng, n_bands=n_bands)
        absorption = make_absorption(n_bands, rng=rng)
        config = MfConfig(variant="cmf", shrinkage=0.0, delta_min=0.0, contamination_iterations=0)
        f1 = apply_mf(cube, absorption, config)
        cube2 = make_cube(cube.data * 37.5, descriptor=cube.descriptor)
        f2 = apply_mf(cube2, absorption, config)
        scale = np.abs(f1.delta_x).max()
        np.testing.assert_allclose(f2.delta_x, f1.delta_x, rtol=1e-9, atol=1e-9 * scale)

    def test_nodata_pixels_excluded(self, rng):
        cube = random_cube(rng, n_bands=4)
        mask = np.zeros(cube.nodata_mask.shape, dtype=bool)
        mask[0, :3] = True
        cube2 = make_cube(cube.data, descriptor=cube.descriptor, nodata_mask=mask)
        absorption = make_absorption(4, rng=rng)
        field = apply_mf(cube2, absorption, MfConfig(variant="cmf", contamination_iterations=0))
        assert np.all(field.delta_x[mask] == 0.0)
        assert np.array_equal(field.nodata_mask, mask)

        # every stage reads the window through a view of the cube that keeps
        # nodata pixels; NaN there must change no output against finite junk
        descriptor = make_descriptor(n_bands=4, noise_a=1e-3, noise_c=1e-4)
        junk, nan = cube.data.copy(), cube.data.copy()
        junk[:, mask] = 1e6
        nan[:, mask] = np.nan
        junk_cube = make_cube(junk, descriptor=descriptor, nodata_mask=mask)
        nan_cube = make_cube(nan, descriptor=descriptor, nodata_mask=mask)
        assert np.shares_memory(_window_slab(nan_cube, absorption.band_indices), nan_cube.data)
        for variant in ("cmf", "ctmf", "cwcmf"):
            config = MfConfig(variant=variant, cluster_count=3, contamination_iterations=1)
            f_junk, _ = retrieve(junk_cube, absorption, config)
            f_nan, _ = retrieve(nan_cube, absorption, config)
            np.testing.assert_array_equal(f_nan.delta_x, f_junk.delta_x)
            np.testing.assert_array_equal(f_nan.sigma_noise, f_junk.sigma_noise)
            assert np.all(f_nan.delta_x[mask] == 0.0) and np.all(f_nan.sigma_noise[mask] == 0.0)


class TestVariantDegeneracies:
    def test_ctmf_k1_equals_cmf(self, rng):
        cube = random_cube(rng, n_bands=5, lines=10, samples=8)
        absorption = make_absorption(5, rng=rng)
        f_cmf = apply_mf(cube, absorption, MfConfig(variant="cmf", contamination_iterations=0))
        f_ctmf = apply_mf(
            cube,
            absorption,
            MfConfig(variant="ctmf", cluster_count=1, contamination_iterations=0),
        )
        np.testing.assert_allclose(f_ctmf.delta_x, f_cmf.delta_x, rtol=1e-12, atol=0)

    def test_single_column_cwcmf_equals_cmf(self, rng):
        cube = random_cube(rng, n_bands=4, lines=30, samples=1)
        absorption = make_absorption(4, rng=rng)
        f_cmf = apply_mf(cube, absorption, MfConfig(variant="cmf", contamination_iterations=0))
        f_cw = apply_mf(cube, absorption, MfConfig(variant="cwcmf", contamination_iterations=0))
        np.testing.assert_allclose(f_cw.delta_x, f_cmf.delta_x, rtol=1e-12, atol=0)

    def test_short_columns_pool_neighbors(self, rng):
        # 3 lines < p+1 = 6 forces symmetric pooling; flags say so
        cube = random_cube(rng, n_bands=5, lines=3, samples=9)
        absorption = make_absorption(5, rng=rng)
        stats = compute_stats(cube, absorption, MfConfig(variant="cwcmf"))
        assert stats.n_segments == 9
        assert all(c >= 6 for c in stats.counts)
        assert any("pooled" in f for flags in stats.flags for f in flags)

    def test_small_cluster_pools_into_nearest(self, rng):
        # a two-endmember mixture plus 3 pixels of a distinct spectrum: k-means
        # gives those 3 their own cluster, too small for a 6-band covariance
        p, lines, samples = 6, 20, 20
        ends = rng.uniform(5.0, 15.0, size=(2, p))
        frac = rng.random(lines * samples)
        pixels = np.outer(frac, ends[0]) + np.outer(1.0 - frac, ends[1])
        pixels += 0.01 * rng.standard_normal(pixels.shape)
        odd = [7, 150, 333]
        pixels[odd] = np.linspace(20.0, 2.0, p)
        cube = make_cube(np.ascontiguousarray(pixels.T.reshape(p, lines, samples)))
        config = MfConfig(variant="ctmf", cluster_count=3)
        field, stats = retrieve(cube, make_absorption(p, rng=rng), config)
        assert "segment 0: cluster 2 pooled into 1 (fewer than 7 pixels)" in field.provenance
        seg = stats.segment_map.ravel()
        sizes = np.bincount(seg)
        assert sizes.size == stats.n_segments == 2 and np.all(sizes >= p + 1)
        # the 3 pixels take the segment of cluster 1, the one they were pooled into
        assert np.all(seg[odd] == 1) and sizes[1] > len(odd)

    def test_tiny_image_pooling_degenerates_to_scene(self, rng):
        cube = random_cube(rng, n_bands=6, lines=2, samples=2)
        absorption = make_absorption(6, rng=rng)
        f_cw = apply_mf(cube, absorption, MfConfig(variant="cwcmf", contamination_iterations=0))
        f_cmf = apply_mf(cube, absorption, MfConfig(variant="cmf", contamination_iterations=0))
        np.testing.assert_allclose(f_cw.delta_x, f_cmf.delta_x, rtol=1e-12, atol=0)


class TestDecontaminate:
    def test_threshold_above_every_score_leaves_stats_unchanged(self, rng):
        cube = random_cube(rng, n_bands=4)
        absorption = make_absorption(4, rng=rng)
        config = MfConfig(variant="cmf", contamination_iterations=1)
        stats = compute_stats(cube, absorption, config)
        out = decontaminate(cube, absorption, config, stats, n_sigma=1e9)
        np.testing.assert_array_equal(out.mu, stats.mu)
        np.testing.assert_array_equal(out.cov, stats.cov)

    def test_zero_iterations_is_identity(self, rng):
        cube = random_cube(rng, n_bands=4)
        absorption = make_absorption(4, rng=rng)
        config = MfConfig(variant="cmf", contamination_iterations=0)
        stats = compute_stats(cube, absorption, config)
        assert decontaminate(cube, absorption, config, stats) is stats

    def test_plume_exclusion_shrinks_covariance_trace(self):
        from plumeflux.simulator import SimParams, SyntheticPlumeSpec, simulate_scene

        params = SimParams(
            lines=48,
            samples=48,
            noise_a=4e-5,
            noise_c=1e-4,
            plume=SyntheticPlumeSpec(
                center=(24, 24), peak_delta_x=900.0, sigma_along_m=90.0, sigma_across_m=90.0
            ),
            seed=5,
        )
        cube, _ = simulate_scene(params)
        table = load_bundled_table()
        absorption = band_absorption(table, cube.descriptor, WINDOW)
        config = MfConfig(variant="cmf", shrinkage=0.0, contamination_iterations=1)
        stats0 = compute_stats(cube, absorption, config)
        stats1 = decontaminate(cube, absorption, config, stats0)
        assert np.trace(stats1.cov[0]) <= np.trace(stats0.cov[0])
        assert stats1.counts[0] < stats0.counts[0]


    def test_first_round_thresholds_the_retrieved_field(self, rng):
        # a round excludes the estimation rows whose enhancement, as a retrieval
        # without decontamination reports it, lies above each segment's threshold
        cube = engine_cube(rng, nodata=True)
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant="ctmf", cluster_count=3, contamination_iterations=1)
        field, stats = retrieve(cube, absorption, dataclasses.replace(config, contamination_iterations=0))
        delta = field.delta_x.ravel()
        kept = [np.count_nonzero(delta[r] <= robust_threshold(delta[r], 1.0)) for r in stats.estimation_rows]
        out = decontaminate(cube, absorption, config, stats, n_sigma=1.0)
        np.testing.assert_array_equal(out.counts, kept)
        assert np.all(out.counts < stats.counts)

    def test_two_rounds_equal_one_round_twice(self, rng):
        # each round starts again from the full moments and scores with the
        # previous round's filters, so rounds compose bit for bit
        cube = engine_cube(rng, nodata=True)
        absorption = make_absorption(8, rng=rng)
        one = MfConfig(variant="cwcmf", contamination_iterations=1)
        two = dataclasses.replace(one, contamination_iterations=2)
        stats = compute_stats(cube, absorption, one)
        first = decontaminate(cube, absorption, one, stats, n_sigma=1.0)
        once_more = decontaminate(cube, absorption, one, first, n_sigma=1.0)
        out = decontaminate(cube, absorption, two, stats, n_sigma=1.0)
        assert not np.array_equal(out.counts, first.counts)  # the second round moved
        for name in ("mu", "cov", "q", "denom"):
            assert getattr(out, name).tobytes() == getattr(once_more, name).tobytes(), name
        assert out.flags == once_more.flags

    def test_pooled_column_keeps_pooling(self, rng):
        # column 3 keeps 20 valid pixels, fewer than p+1 = 37: it is pooled
        # with its neighbours, and decontamination must refit over that pool
        cube = random_cube(rng, n_bands=36, lines=200, samples=8)
        nodata = np.zeros((200, 8), dtype=bool)
        nodata[20:, 3] = True
        cube = dataclasses.replace(cube, nodata_mask=nodata)
        absorption = make_absorption(36, rng=rng)
        config = MfConfig(variant="cwcmf", contamination_iterations=1)
        stats = compute_stats(cube, absorption, config)
        assert any("pooled" in f for f in stats.flags[3])
        out = decontaminate(cube, absorption, config, stats)
        assert out.counts[3] >= 37

    def test_one_scoring_pass_per_round(self, rng, monkeypatch):
        # each round scores the scene with the last round's filters, and retrieve
        # builds its one field from the final filters: one more scoring pass
        cube = random_cube(rng, n_bands=4)
        absorption = make_absorption(4, rng=rng)
        calls = []

        def counting(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(kernels, "mf_scores", counting(kernels.mf_scores))
        monkeypatch.setattr(matched_filter, "apply_mf", counting(matched_filter.apply_mf))
        for rounds in (0, 1, 2):
            calls.clear()
            retrieve(cube, absorption, MfConfig(variant="cmf", contamination_iterations=rounds))
            assert calls.count("mf_scores") == rounds + 1
            assert calls.count("apply_mf") == 1


class TestPropagateNoise:
    def test_hand_diagonal_case(self):
        # cov diag(4,1), t=(1,1): q=(0.25,1), denom=1.25, Cn=I -> var 0.68
        q = np.array([[0.25, 1.0]])
        var = kernels.noise_variance(
            np.array([[5.0], [5.0]]), np.zeros(1, dtype=np.int64), np.zeros(2), np.ones(2),
            q, np.array([1.25]),
        )
        assert var[0] == pytest.approx(0.68, rel=1e-12)

    def test_cn_equals_cov_collapses_to_aposteriori(self, rng):
        for _ in range(10):
            p = int(rng.integers(3, 10))
            cov = random_spd(rng, p)
            t = rng.standard_normal(p)
            q = np.linalg.solve(cov, t)
            denom = t @ q
            var = (q @ cov @ q) / denom**2
            assert var == pytest.approx(1.0 / denom, rel=1e-12)

    def test_identity_cov_unit_target_white_noise(self):
        t = np.array([0.6, 0.8])  # unit norm
        q = t.copy()
        denom = float(t @ t)
        sigma0 = 3.7
        var = kernels.noise_variance(
            np.array([[1.0], [1.0]]), np.zeros(1, dtype=np.int64), np.zeros(2),
            np.full(2, sigma0**2), q[None, :], np.array([denom]),
        )
        assert np.sqrt(var[0]) == pytest.approx(sigma0, rel=1e-12)

    def test_fallback_constant_per_segment(self, rng):
        cube = random_cube(rng, n_bands=4)  # descriptor has no noise model
        absorption = make_absorption(4, rng=rng)
        config = MfConfig(variant="cmf", contamination_iterations=0)
        stats = compute_stats(cube, absorption, config)
        sigma, flags = propagate_noise(stats, cube)
        assert any("a-posteriori" in f for f in flags)
        values = sigma[~cube.nodata_mask]
        assert np.all(values > 0)
        assert np.ptp(values) == 0.0
        assert values[0] == pytest.approx(np.sqrt(1.0 / stats.denom[0]), rel=1e-12)

    def test_full_model_positive_and_radiance_dependent(self, rng):
        desc = make_descriptor(n_bands=4, noise_a=1e-3, noise_c=1e-4)
        cube = random_cube(rng, n_bands=4)
        cube = make_cube(cube.data, descriptor=desc)
        absorption = make_absorption(4, rng=rng)
        config = MfConfig(variant="cmf", contamination_iterations=0)
        stats = compute_stats(cube, absorption, config)
        sigma, flags = propagate_noise(stats, cube)
        assert flags == []
        assert np.all(sigma[~cube.nodata_mask] > 0)
        assert np.ptp(sigma[~cube.nodata_mask]) > 0


class TestRetrieveDeterminism:
    def test_same_seed_bit_identical(self, rng):
        cube = random_cube(rng, n_bands=5, lines=12, samples=10)
        absorption = make_absorption(5, rng=rng)
        config = MfConfig(variant="ctmf", cluster_count=3, seed=11)
        f1, _ = retrieve(cube, absorption, config)
        f2, _ = retrieve(cube, absorption, config)
        assert np.array_equal(f1.delta_x, f2.delta_x)
        assert np.array_equal(f1.sigma_noise, f2.sigma_noise)


class TestDecontaminatedZeroMean:
    def test_mean_over_kept_pixels_vanishes(self):
        from plumeflux.segmentation import robust_threshold
        from plumeflux.simulator import SimParams, SyntheticPlumeSpec, simulate_scene

        params = SimParams(
            lines=48,
            samples=48,
            noise_a=4e-5,
            noise_c=1e-4,
            plume=SyntheticPlumeSpec(
                center=(24, 24), peak_delta_x=900.0, sigma_along_m=90.0, sigma_across_m=90.0
            ),
            seed=6,
        )
        cube, _ = simulate_scene(params)
        absorption = band_absorption(load_bundled_table(), cube.descriptor, WINDOW)
        config = MfConfig(variant="cmf", shrinkage=0.0, contamination_iterations=1)
        # the exclusion set comes from thresholding the initial field
        config0 = MfConfig(variant="cmf", shrinkage=0.0, contamination_iterations=0)
        field0 = apply_mf(cube, absorption, config0)
        field, stats = retrieve(cube, absorption, config)
        in_segment = stats.segment_map == 0
        tau0 = robust_threshold(field0.delta_x[in_segment], 3.0)
        kept_mask = in_segment & (field0.delta_x <= tau0)
        # the decontaminated mean was estimated from exactly these pixels
        assert int(kept_mask.sum()) == stats.counts[0]
        kept = field.delta_x[kept_mask]
        assert abs(kept.mean()) <= 1e-9 * max(1.0, np.abs(field.delta_x).max())


class TestColumnwiseAdaptation:
    def test_per_column_stats_absorb_column_gains(self, rng):
        from plumeflux.simulator import SimParams, simulate_scene

        params = SimParams(
            lines=48, samples=12, noise_a=4e-5, noise_c=1e-4,
            column_gain_amplitude=0.02, seed=8,
        )
        cube, _ = simulate_scene(params)
        absorption = band_absorption(load_bundled_table(), cube.descriptor, WINDOW)
        stats = compute_stats(cube, absorption, MfConfig(variant="cwcmf"))
        assert stats.n_segments == 12
        # column means differ far beyond the noise level
        spread = np.ptp(stats.mu, axis=0).max()
        assert spread > 10 * np.sqrt(4e-5 * 10 + 1e-4)
        # and the plain scene-wide model sees one inflated covariance instead
        scene = compute_stats(cube, absorption, MfConfig(variant="cmf"))
        assert np.trace(scene.cov[0]) > np.trace(stats.cov.mean(axis=0))


def reference_retrieve(cube, absorption, config, n_sigma=3.0):
    """Retrieval by gathering each segment's rows and fitting them in two passes.

    Takes the partition (segment map and estimation rows) from
    ``compute_stats`` and redoes everything after it one segment at a time:
    statistics, scores, decontamination refits over the kept rows, noise.
    """
    stats = compute_stats(cube, absorption, config)
    Y = cube.data.reshape(cube.shape[0], -1)[absorption.band_indices]
    seg = stats.segment_map.ravel()

    def fit(rows):
        mu, cov = two_pass_stats(Y[:, rows].T, config.shrinkage, config.delta_min)
        t = -absorption.k_band * mu
        q = np.linalg.solve(cov, t)
        return mu, cov, q, t @ q

    def score(fits):
        delta = np.zeros(seg.size)
        for s, (mu, _, q, denom) in enumerate(fits):
            delta[seg == s] = (Y[:, seg == s].T - mu) @ q / denom
        return delta

    fits = [fit(rows) for rows in stats.estimation_rows]
    delta = score(fits)
    for _ in range(config.contamination_iterations):
        kept = [rows[delta[rows] <= robust_threshold(delta[rows], n_sigma)]
                for rows in stats.estimation_rows]
        fits = [fit(k) if k.size >= 2 else f for k, f in zip(kept, fits)]
        delta = score(fits)
    a = cube.descriptor.noise_a[absorption.band_indices]
    c = cube.descriptor.noise_c[absorption.band_indices]
    var = np.zeros(seg.size)
    for s, (_, _, q, denom) in enumerate(fits):
        var[seg == s] = (np.maximum(Y[:, seg == s].T, 0) * a + c) @ (q * q) / denom**2
    mu, cov = (np.array([f[i] for f in fits]) for i in (0, 1))
    shape = stats.segment_map.shape
    return mu, cov, delta.reshape(shape), np.sqrt(var).reshape(shape)


def engine_cube(rng, nodata):
    """8-band 40x9 cube with a noise model; with nodata, a block and a short column 6."""
    cube = random_cube(rng, n_bands=8, lines=40, samples=9)
    mask = np.zeros((40, 9), dtype=bool)
    if nodata:
        mask[2:6, 1:4] = True
        mask[5:, 6] = True  # 5 valid pixels < p + 1: pooled with its neighbours
    desc = make_descriptor(n_bands=8, noise_a=1e-3, noise_c=1e-4)
    return make_cube(cube.data, descriptor=desc, nodata_mask=mask)


def layout(seg, n_seg):
    """The (rows, bounds) of a label vector: segment s is rows[bounds[s] : bounds[s + 1]]; -1 is dropped."""
    counts = np.bincount(seg + 1, minlength=n_seg + 1)
    return np.argsort(seg, kind="stable")[counts[0]:], np.cumsum(counts) - counts[0]


def close(actual, expected, rtol):
    scale = np.abs(expected).max()
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


def unpacked(m2, p):
    """Full symmetric matrices from M2 stored as packed lower triangles."""
    rows, cols = np.tril_indices(p)
    full = np.empty(m2.shape[:-1] + (p, p))
    full[..., rows, cols] = full[..., cols, rows] = m2
    return full


class TestMomentsEngine:
    @pytest.mark.parametrize("iterations", [0, 1, 2])
    @pytest.mark.parametrize("nodata", [False, True])
    @pytest.mark.parametrize("variant", ["cmf", "ctmf", "cwcmf"])
    def test_matches_per_segment_gather(self, variant, nodata, iterations):
        rng = np.random.default_rng(70 + iterations)
        cube = engine_cube(rng, nodata)
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant=variant, cluster_count=3, contamination_iterations=iterations)
        field, stats = retrieve(cube, absorption, config)
        if variant == "cwcmf" and nodata:
            assert any("pooled" in f for f in stats.flags[6])
        mu, cov, delta_x, sigma_noise = reference_retrieve(cube, absorption, config)
        close(stats.mu, mu, 1e-10)
        close(stats.cov, cov, 1e-10)
        close(field.delta_x, delta_x, 1e-10)
        close(field.sigma_noise, sigma_noise, 1e-10)

    def test_downdate_of_most_rows_matches_refit(self, rng):
        # a negative n_sigma puts tau below the median: the downdate removes
        # most of each segment's rows and must still match a refit of the rest
        cube = engine_cube(rng, nodata=True)
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant="cwcmf", contamination_iterations=1)
        stats = compute_stats(cube, absorption, config)
        out = decontaminate(cube, absorption, config, stats, n_sigma=-1.0)
        assert np.all(2 * out.counts < stats.counts)
        ref = reference_retrieve(cube, absorption, config, n_sigma=-1.0)
        close(out.mu, ref[0], 1e-10)
        close(out.cov, ref[1], 1e-10)
        # tau below every value empties each segment: all keep their statistics
        # from the round before, not those of the full moments
        before = decontaminate(cube, absorption, config, stats)
        out = decontaminate(cube, absorption, config, before, n_sigma=-1e9)
        assert all("decontamination skipped (segment emptied)" in f for f in out.flags)
        assert np.any(before.counts < stats.counts)
        for name in ("mu", "cov", "t", "q", "denom", "counts"):
            np.testing.assert_array_equal(getattr(out, name), getattr(before, name))

    @pytest.mark.parametrize("variant", ["cmf", "ctmf", "cwcmf"])
    def test_chunk_boundaries_do_not_matter(self, variant, monkeypatch):
        rng = np.random.default_rng(71)
        cube = engine_cube(rng, nodata=True)
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant=variant, cluster_count=3, contamination_iterations=2)
        field, stats = retrieve(cube, absorption, config)
        # 5 pixels per chunk: every segment straddles chunks
        monkeypatch.setattr(matched_filter, "_CHUNK_BYTES", 5 * 8 * 8)
        field_c, stats_c = retrieve(cube, absorption, config)
        close(stats_c.mu, stats.mu, 1e-12)
        close(stats_c.cov, stats.cov, 1e-12)
        close(field_c.delta_x, field.delta_x, 1e-12)
        close(field_c.sigma_noise, field.sigma_noise, 1e-12)

    def test_merge_groups_do_not_change_the_moments(self, rng, monkeypatch):
        # each segment's blocks merge in chunk order whatever the group size,
        # and the merge is elementwise, so the moments are bit-identical
        Y = 50.0 + rng.standard_normal((6, 3000))
        seg = rng.integers(-1, 70, size=3000)
        monkeypatch.setattr(matched_filter, "_CHUNK_BYTES", 400 * 6 * 8)
        moments = []
        for group in (1, 3, 32, 100):
            monkeypatch.setattr(matched_filter, "_MERGE_GROUP", group)
            moments.append(_segment_moments(Y, *layout(seg, 70)))
        for other in moments[1:]:
            for a, b in zip(moments[0], other):
                np.testing.assert_array_equal(a, b)

    def test_large_offset_small_spread(self, rng, monkeypatch):
        monkeypatch.setattr(matched_filter, "_CHUNK_BYTES", 97 * 8 * 6)
        X = 1e4 + 1e-2 * rng.standard_normal((2000, 6)) @ random_spd(rng, 6)
        seg = np.zeros(X.shape[0], dtype=np.int64)

        def two_pass(rows):
            Xc = rows - rows.mean(axis=0)
            return Xc.T @ Xc / rows.shape[0]

        full = _segment_moments(X.T, *layout(seg, 1))
        np.testing.assert_allclose(unpacked(full[2][0], 6) / full[0][0], two_pass(X), rtol=1e-8)
        # downdate by 5 % of the rows, against a two-pass estimate of the rest
        out = rng.permutation(X.shape[0])[:100]
        keep = np.setdiff1d(np.arange(X.shape[0]), out)
        part = _segment_moments(X[out].T, *layout(seg[:100], 1))
        n, mean, m2 = _merge(full, part, sign=-1.0)
        assert n[0] == keep.size
        np.testing.assert_allclose(mean[0], X[keep].mean(axis=0), rtol=1e-14)
        np.testing.assert_allclose(unpacked(m2[0], 6) / n[0], two_pass(X[keep]), rtol=1e-8)


class TestFloat32Slab:
    @pytest.mark.parametrize("iterations", [0, 2])
    @pytest.mark.parametrize("variant", ["cmf", "ctmf", "cwcmf"])
    def test_cube_read_from_disk_retrieves_bit_identically(
        self, tmp_path, monkeypatch, variant, iterations
    ):
        # small chunks, so every chunked loop widens several float32 blocks
        monkeypatch.setattr(matched_filter, "_CHUNK_BYTES", 97 * 8 * 8)
        monkeypatch.setattr(kernels, "_PIXEL_CHUNK", 37)
        rng = np.random.default_rng(90 + iterations)
        cube = engine_cube(rng, nodata=True)
        grid = cube.data.astype(np.float32).astype(np.float64)
        on_grid = make_cube(grid, descriptor=cube.descriptor, nodata_mask=cube.nodata_mask)
        write_cube(on_grid, tmp_path / "c")
        disk = read_cube(tmp_path / "c")
        assert disk.data.dtype == np.float32 and on_grid.data.dtype == np.float64
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant=variant, cluster_count=3, contamination_iterations=iterations)
        features, run = [], matched_filter.kmeans

        def kmeans(X, k, seed):
            features.append(X.tobytes())
            return run(X, k, seed)

        monkeypatch.setattr(matched_filter, "kmeans", kmeans)
        (field64, stats64), (field32, stats32) = (
            retrieve(c, absorption, config) for c in (on_grid, disk)
        )
        assert len(features) == (2 if variant == "ctmf" else 0) and len(set(features)) <= 1
        for name in ("delta_x", "sigma_noise"):
            assert getattr(field32, name).tobytes() == getattr(field64, name).tobytes()
        for name in ("segment_map", "mu", "cov", "q", "denom", "counts"):
            assert getattr(stats32, name).tobytes() == getattr(stats64, name).tobytes()
        assert field32.provenance == field64.provenance


def traced_peak(fn, *args, **kwargs):
    """Result of ``fn`` and its tracemalloc peak above the memory held at its entry."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMomentsOnlyStats:
    def test_memory_is_one_moments_stack_plus_chunks(self, monkeypatch):
        # 200 columns of 30 float32 pixels over 24 bands: the packed M2 stack,
        # (segments, p(p+1)/2), is 0.48 MB, far above the pixel-sized index arrays
        p, lines, samples = 24, 30, 200
        rng = np.random.default_rng(95)
        data = (10.0 + rng.standard_normal((p, lines, samples))).astype(np.float32)
        desc = make_descriptor(n_bands=p, noise_a=1e-3, noise_c=1e-4)
        cube = RadianceCube(descriptor=desc, data=data)
        absorption = make_absorption(p, rng=rng)
        config = MfConfig(variant="cwcmf", contamination_iterations=1)
        chunk = 256 * 2**10
        monkeypatch.setattr(matched_filter, "_CHUNK_BYTES", chunk)
        monkeypatch.setattr(matched_filter, "_MERGE_GROUP", 4)
        stack = samples * p * (p + 1) // 2 * 8
        stats, peak = traced_peak(compute_stats, cube, absorption, config)
        # the moments, then one float32 gather (half a chunk), widened one
        # segment's block at a time, and the pixel-sized index arrays
        assert peak <= stack + 1.75 * chunk
        assert stats.fit[2] is stats.moments[2]
        # one copy of the moments, downdated in place; the slack covers the
        # means, targets and per-pixel temporaries, not a second copy
        _, peak = traced_peak(decontaminate, cube, absorption, config, stats)
        assert peak <= stack + 3 * stack // 4

    def test_filter_groups_do_not_change_the_filters(self, monkeypatch):
        # shrinkage and whitening are per segment, so the group size is invisible
        rng = np.random.default_rng(97)
        cube = engine_cube(rng, nodata=True)
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant="cwcmf", contamination_iterations=1)
        runs = []
        for group in (1, 4, 32):
            monkeypatch.setattr(matched_filter, "_MERGE_GROUP", group)
            field, stats = retrieve(cube, absorption, config)
            runs.append([x.tobytes() for x in (field.delta_x, stats.cov, stats.q, stats.denom)])
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("n_sigma", [3.0, -1e9])
    @pytest.mark.parametrize("variant", ["ctmf", "cwcmf"])
    def test_decontaminate_leaves_its_input_unchanged(self, variant, n_sigma):
        # fit shares its arrays with moments: neither round may write to them,
        # whether it refits a segment or keeps it (n_sigma=-1e9 skips all)
        rng = np.random.default_rng(96)
        cube = engine_cube(rng, nodata=True)
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant=variant, cluster_count=3, contamination_iterations=2)
        stats = compute_stats(cube, absorption, config)
        snapshot = pickle.dumps(stats)
        out = decontaminate(cube, absorption, config, stats, n_sigma=n_sigma)
        assert pickle.dumps(stats) == snapshot
        assert out.moments is stats.moments
        with pytest.raises(ValueError):
            out.mu[0, 0] = 0.0

    def test_in_place_downdate_matches_merge_of_part(self, rng, monkeypatch):
        Y = 50.0 + rng.standard_normal((6, 3000))
        seg = rng.integers(-1, 40, size=3000)
        out = rng.permutation(3000)[:300]
        full = _segment_moments(Y, *layout(seg, 40))
        ref = _merge(tuple(x.copy() for x in full), _segment_moments(Y[:, out], *layout(seg[out], 40)), -1.0)

        def downdate():
            total = tuple(x.copy() for x in full)
            assert _segment_moments(Y[:, out], *layout(seg[out], 40), total=total, sign=-1.0) is total
            return total

        # the excluded rows fit one chunk: the same arithmetic, bit for bit
        for a, b in zip(downdate(), ref):
            np.testing.assert_array_equal(a, b)
        monkeypatch.setattr(matched_filter, "_CHUNK_BYTES", 37 * 6 * 8)
        for a, b in zip(downdate(), ref):
            close(a, b, 1e-12)

    def test_chunks_of_only_nodata(self, rng, monkeypatch):
        Y = (50.0 + rng.standard_normal((6, 900))).astype(np.float32)
        seg = rng.integers(0, 5, size=900)
        seg[:300] = -1  # three whole chunks of nodata, then valid ones
        seg[800:] = -1  # and a last one
        monkeypatch.setattr(matched_filter, "_CHUNK_BYTES", 100 * 6 * 8)
        # nodata never enters the layout, so the valid pixels alone fall into
        # the same 100-pixel chunks
        rows, bounds = layout(seg, 5)
        inner_rows, inner_bounds = layout(seg[300:800], 5)
        np.testing.assert_array_equal(rows, inner_rows + 300)
        np.testing.assert_array_equal(bounds, inner_bounds)
        for a, b in zip(_segment_moments(Y, rows, bounds),
                        _segment_moments(Y[:, 300:800], inner_rows, inner_bounds)):
            np.testing.assert_array_equal(a, b)
        rows, bounds = layout(seg[:300], 5)
        assert rows.size == 0 and not bounds.any()
        empty = _segment_moments(Y[:, :300], rows, bounds)
        assert not any(np.any(x) for x in empty)


class TestSegmentOrderPass:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", ["cmf", "ctmf", "cwcmf"])
    def test_one_chunk_equals_one_block_per_segment(self, variant, dtype):
        # every valid pixel fits one chunk, so each segment is one block
        # merged into zeros: its moments carry the one-block bits exactly
        rng = np.random.default_rng(98)
        cube = engine_cube(rng, nodata=True)
        cube = RadianceCube(descriptor=cube.descriptor, data=cube.data.astype(dtype),
                            nodata_mask=cube.nodata_mask)
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant=variant, cluster_count=3)
        Y = _window_slab(cube, absorption.band_indices)
        seg_map, members, _ = matched_filter._build_partition(cube, config, Y)
        seg = seg_map.ravel()
        stats = compute_stats(cube, absorption, config)
        for moments in (_segment_moments(Y, *layout(seg, len(members))), stats.moments):
            for s in range(len(members)):
                if len(members[s]) > 1:  # a pooled column merges its members
                    continue
                # a C-ordered block: the fancy index Y[:, rows] is laid out pixel-major
                B = np.ascontiguousarray(Y[:, np.flatnonzero(seg == s)], dtype=np.float64)
                c = B.shape[1]
                mean = np.add.reduce(B, axis=1) / c
                Bc = B - mean[:, None]
                assert moments[0][s] == c
                assert moments[1][s].tobytes() == mean.tobytes()
                assert moments[2][s].tobytes() == (Bc @ Bc.T)[np.tril_indices(B.shape[0])].tobytes()
        assert variant != "cwcmf" or any(len(m) > 1 for m in members)

    def test_filters_equal_per_segment_cho_solve(self, monkeypatch):
        # groups of 4 over 9 columns: a full group, and a short last one
        monkeypatch.setattr(matched_filter, "_MERGE_GROUP", 4)
        rng = np.random.default_rng(99)
        cube = engine_cube(rng, nodata=True)
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant="cwcmf")
        stats = compute_stats(cube, absorption, config)
        t, q, denom = matched_filter._filters(stats.moments, absorption, config)
        n, mu, m2 = stats.moments
        for s in range(n.size):
            one = slice(s, s + 1)
            cov = matched_filter._shrink(m2[one] / n[one, None], config.shrinkage, config.delta_min)[0]
            ts = target_spectrum(absorption.k_band, mu[s])
            qs = scipy.linalg.cho_solve((np.linalg.cholesky(cov), True), ts)
            assert t[s].tobytes() == ts.tobytes()
            assert q[s].tobytes() == qs.tobytes()
            assert denom[s] == float(ts @ qs)

    def test_filters_do_not_depend_on_the_worker_count(self, monkeypatch):
        # 3 groups of 4 columns: one run, or three (more runs than this host may have CPUs)
        monkeypatch.setattr(matched_filter, "_MERGE_GROUP", 4)
        rng = np.random.default_rng(99)
        cube = engine_cube(rng, nodata=True)
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant="cwcmf")
        moments = compute_stats(cube, absorption, config).moments
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "workers", lambda: workers)
            runs.append([x.tobytes() for x in matched_filter._filters(moments, absorption, config)])
            runs.append([x.tobytes() for x in matched_filter._filters(moments, absorption, config,
                                                                      np.array([8, 2, 5, 0, 7]))])
        assert runs[0] == runs[2] == runs[4] and runs[1] == runs[3] == runs[5]
        assert runs[1] == [b"".join(x[i * len(x) // 9 : (i + 1) * len(x) // 9] for i in (8, 2, 5, 0, 7))
                           for x in runs[0]]

    def test_filters_keep_every_error(self, monkeypatch):
        monkeypatch.setattr(matched_filter, "_MERGE_GROUP", 4)
        rng = np.random.default_rng(100)
        cube = engine_cube(rng, nodata=False)
        data = cube.data.copy()
        data[:, :, 7] = data[:, :1, 7]  # column 7, in the second group, is constant
        cube = make_cube(data, descriptor=cube.descriptor)
        absorption = make_absorption(8, rng=rng)
        # no shrinkage and a zero floor leave its zero covariance unregularized
        singular = MfConfig(variant="cwcmf", shrinkage=0.0, delta_min=0.0)
        with pytest.raises(NumericalError, match="positive definite"):
            compute_stats(cube, absorption, singular)
        stats = compute_stats(cube, absorption, MfConfig(variant="cwcmf"))
        zero = make_absorption(8, k_values=np.zeros(8))
        with pytest.raises(DomainError, match="degenerate target"):
            matched_filter._filters(stats.moments, zero, MfConfig(variant="cwcmf"))
        n, mu, m2 = (x.copy() for x in stats.moments)
        mu[5, 2] = np.nan
        with pytest.raises(DataError, match="background mean must be finite"):
            matched_filter._filters((n, mu, m2), absorption, MfConfig(variant="cwcmf"))


def recorded_refits(monkeypatch):
    """The segments each ``_filters`` call fits, as a list; None stands for every segment."""
    calls = []
    original = matched_filter._filters

    def recording(moments, absorption, config, segments=None):
        calls.append(None if segments is None else segments.tolist())
        return original(moments, absorption, config, segments)

    monkeypatch.setattr(matched_filter, "_filters", recording)
    return calls


def assert_fully_refit(out, absorption, config):
    """The oracle: a full ``_filters`` of the round's moments gives every segment's filter, byte for byte."""
    for name, full in zip(("t", "q", "denom"), matched_filter._filters(out.fit, absorption, config)):
        assert getattr(out, name).tobytes() == full.tobytes(), name


def moved_segments(out, last):
    """The segments whose fit moments differ between two statistics."""
    return np.flatnonzero([any(x[s].tobytes() != y[s].tobytes() for x, y in zip(out.fit, last.fit))
                           for s in range(out.n_segments)])


def state_bytes(stats):
    """What a decontamination round hands on: the fit moments, the filters and the flags."""
    return [x.tobytes() for x in stats.fit + (stats.t, stats.q, stats.denom)], stats.flags


class TestRefitChangedSegments:
    # engine_cube scenes where each n_sigma leaves a mix of segments that lose
    # rows and segments that keep them all (or, below zero, are skipped)
    @staticmethod
    def scene(seed):
        rng = np.random.default_rng(seed)
        return engine_cube(rng, nodata=True), make_absorption(8, rng=rng)

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_a_round_refits_exactly_the_segments_whose_fit_moved(self, monkeypatch, rounds):
        # scene 92 at n_sigma 2 refits 8, 3 and 1 of its 9 columns in rounds 1-3
        cube, absorption = self.scene(92)
        config = MfConfig(variant="cwcmf", contamination_iterations=rounds)
        stats = compute_stats(cube, absorption, config)
        last = decontaminate(cube, absorption, dataclasses.replace(config, contamination_iterations=rounds - 1),
                             stats, n_sigma=2.0)
        calls = recorded_refits(monkeypatch)
        out = decontaminate(cube, absorption, config, stats, n_sigma=2.0)
        moved = moved_segments(out, last)
        assert 0 < moved.size < stats.n_segments and len(calls) == rounds
        assert calls[-1] == moved.tolist()
        if rounds == 1:  # from compute_stats, a fit moves where its segment lost a row
            assert moved.tolist() == np.flatnonzero(out.counts < stats.counts).tolist()
        assert_fully_refit(out, absorption, config)
        kept = np.setdiff1d(np.arange(stats.n_segments), moved)
        for name in ("t", "q", "denom"):
            assert getattr(out, name)[kept].tobytes() == getattr(last, name)[kept].tobytes()

    def test_a_segment_that_loses_no_row_in_round_two_gets_the_filter_of_stats(self):
        cube, absorption = self.scene(94)
        one = MfConfig(variant="cwcmf", contamination_iterations=1)
        two = dataclasses.replace(one, contamination_iterations=2)
        stats = compute_stats(cube, absorption, one)
        first = decontaminate(cube, absorption, one, stats, n_sigma=3.0)
        out = decontaminate(cube, absorption, two, stats, n_sigma=3.0)
        # segment 4 lost rows in round 1 only
        assert first.counts[4] < stats.counts[4] and out.counts[4] == stats.counts[4]
        for name in ("t", "q", "denom"):
            assert getattr(out, name)[4].tobytes() == getattr(stats, name)[4].tobytes()
            assert getattr(out, name)[4].tobytes() != getattr(first, name)[4].tobytes()
        assert_fully_refit(out, absorption, two)

    def test_decontaminated_stats_are_refit_only_where_their_fit_moves(self, monkeypatch):
        cube, absorption = self.scene(92)
        one = MfConfig(variant="cwcmf", contamination_iterations=1)
        stats = compute_stats(cube, absorption, one)
        first = decontaminate(cube, absorption, one, stats, n_sigma=2.0)
        assert first.fit is not first.moments
        calls = recorded_refits(monkeypatch)
        out = decontaminate(cube, absorption, one, first, n_sigma=2.0)
        moved = moved_segments(out, first)
        assert calls == [moved.tolist()] and 0 < moved.size < first.n_segments
        assert_fully_refit(out, absorption, one)
        # the same bytes as the second of two rounds from compute_stats
        two = decontaminate(cube, absorption, dataclasses.replace(one, contamination_iterations=2), stats, n_sigma=2.0)
        assert state_bytes(out) == state_bytes(two)

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_a_skipped_segment_keeps_the_last_fit_and_filter_and_is_never_refit(self, monkeypatch, rounds):
        cube, absorption = self.scene(92)
        config = MfConfig(variant="cwcmf", contamination_iterations=rounds)
        stats = compute_stats(cube, absorption, config)
        last = decontaminate(cube, absorption, dataclasses.replace(config, contamination_iterations=rounds - 1),
                             stats, n_sigma=-1.5)
        calls = recorded_refits(monkeypatch)
        out = decontaminate(cube, absorption, config, stats, n_sigma=-1.5)
        # the segments this round skips: last's scores above the threshold leave fewer than 2 rows
        delta = apply_mf(cube, absorption, config, last).delta_x.ravel()
        skipped = [s for s, rows in enumerate(stats.estimation_rows)
                   if np.count_nonzero(delta[rows] <= robust_threshold(delta[rows], -1.5)) < 2]
        assert skipped and len(calls) == rounds and not set(skipped) & set(calls[-1])
        assert all("decontamination skipped (segment emptied)" in out.flags[s] for s in skipped)
        for x, y in zip(out.fit + (out.t, out.q, out.denom), last.fit + (last.t, last.q, last.denom)):
            assert x[skipped].tobytes() == y[skipped].tobytes()
        assert_fully_refit(out, absorption, config)

    # (scene, n_sigma, the round that repeats an earlier one's fits, its period): a
    # round that refits nothing, a cycle of two rounds found at round 4 (the fits of
    # the checkpoint at round 2), and one found at round 10 (checkpoint 8)
    REPEATS = [(92, 2.0, 4, 1), (94, 3.0, 4, 2), (91, -1.5, 10, 2)]

    @pytest.mark.parametrize("seed,n_sigma,repeat,period", REPEATS)
    def test_rounds_past_a_repeat_give_the_bytes_of_running_every_round(self, monkeypatch, seed, n_sigma, repeat,
                                                                        period):
        # one round at a time runs every round; a run of n rounds stops at the
        # repeat and runs only what is left of its last period
        cube, absorption = self.scene(seed)
        one = MfConfig(variant="cwcmf", contamination_iterations=1)
        every = [compute_stats(cube, absorption, one)]
        for _ in range(repeat + 4):
            every.append(decontaminate(cube, absorption, one, every[-1], n_sigma=n_sigma))
        for n in range(1, repeat + 5):
            calls = recorded_refits(monkeypatch)
            out = decontaminate(cube, absorption, dataclasses.replace(one, contamination_iterations=n), every[0],
                                n_sigma=n_sigma)
            assert state_bytes(out) == state_bytes(every[n]), n
            assert len(calls) == (n if n <= repeat else repeat + (n - repeat) % period), n
        assert state_bytes(every[repeat]) == state_bytes(every[repeat - period])

    @pytest.mark.parametrize("seed,n_sigma,repeat,period", REPEATS)
    def test_a_cap_of_10_12_rounds_returns_within_seconds(self, seed, n_sigma, repeat, period):
        cube, absorption = self.scene(seed)
        config = MfConfig(variant="cwcmf", contamination_iterations=10**12)
        stats = compute_stats(cube, absorption, config)
        with deadline(20):
            out = decontaminate(cube, absorption, config, stats, n_sigma=n_sigma)
        # 10**12 - repeat is a whole number of periods: the bytes of the repeat's round
        at_repeat = decontaminate(cube, absorption, dataclasses.replace(config, contamination_iterations=repeat),
                                  stats, n_sigma=n_sigma)
        assert state_bytes(out) == state_bytes(at_repeat)

    @pytest.mark.parametrize("n_sigma", [2.0, -1.2])
    def test_downdate_equals_a_per_segment_merge(self, n_sigma):
        # round 2 of a cwcmf run with a pooled column 6: each segment's fit is
        # its full moments minus the moments of its excluded estimation rows,
        # merged out one segment at a time; every excluded row fits one chunk
        cube, absorption = self.scene(92)
        config = MfConfig(variant="cwcmf", contamination_iterations=2)
        stats = compute_stats(cube, absorption, config)
        assert stats.estimation_rows[6].size > np.count_nonzero(stats.segment_map == 6)
        last = decontaminate(cube, absorption, dataclasses.replace(config, contamination_iterations=1),
                             stats, n_sigma=n_sigma)
        out = decontaminate(cube, absorption, config, stats, n_sigma=n_sigma)
        Y = _window_slab(cube, absorption.band_indices)
        delta = apply_mf(cube, absorption, config, last).delta_x.ravel()
        skipped = []
        for s, rows in enumerate(stats.estimation_rows):
            d = delta[rows]
            excluded = rows[~(d <= robust_threshold(d, n_sigma))]
            if rows.size - excluded.size < 2:
                skipped.append(s)
                expected = tuple(x[s] for x in last.fit)
            else:
                full = tuple(x[s : s + 1].copy() for x in stats.moments)
                own = _segment_moments(Y, excluded, np.array([0, excluded.size]))
                expected = tuple(x[0] for x in _merge(full, own, sign=-1.0))
            for x, e in zip(out.fit, expected):
                assert x[s].tobytes() == e.tobytes(), s
        assert (len(skipped) > 0) == (n_sigma < 0) and 6 not in skipped
        assert_fully_refit(out, absorption, config)


class TestEstimationRows:
    @pytest.mark.parametrize("variant,nodata", [("cwcmf", False), ("cwcmf", True), ("ctmf", True)])
    def test_rows_equal_the_sorted_concatenation_of_the_members(self, variant, nodata):
        rng = np.random.default_rng(101)
        cube = engine_cube(rng, nodata=nodata)
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant=variant, cluster_count=3)
        stats = compute_stats(cube, absorption, config)
        Y = _window_slab(cube, absorption.band_indices)
        _, members, _ = matched_filter._build_partition(cube, config, Y)
        assert any(len(m) > 1 for m in members) == (variant == "cwcmf" and nodata)
        seg = stats.segment_map.ravel()
        own = [np.flatnonzero(seg == s) for s in range(len(members))]
        for rows, m in zip(stats.estimation_rows, members):
            expected = np.sort(np.concatenate([own[i] for i in m]))
            assert rows.dtype == expected.dtype and rows.tobytes() == expected.tobytes()


def full_merge(a, b, sign):
    """The merge on full (segments, p, p) M2 stacks, as it was before packing."""
    (na, ma, m2a), (nb, mb, m2b) = a, b
    nb = sign * nb
    d = mb - ma
    coef = na * nb
    na += nb
    n = np.maximum(na, 1.0)
    ma += d * (nb / n)[:, None]
    (np.add if sign > 0 else np.subtract)(m2a, m2b, out=m2a)
    m2a += np.einsum("ki,kj->kij", d * (coef / n)[:, None], d)
    return a


class TestPackedMoments:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_merge_is_the_full_merge_lower_triangle(self, rng, sign):
        # 70 segments: two full merge groups and a short one
        k, p = 70, 7
        rows, cols = np.tril_indices(p)

        def moments(n):
            X = rng.standard_normal((k, p, p))
            return n, 50.0 + rng.standard_normal((k, p)), X @ X.transpose(0, 2, 1)

        a = moments(rng.integers(40, 90, size=k).astype(np.float64))
        b = moments(rng.integers(1, 30, size=k).astype(np.float64))
        full = full_merge(tuple(x.copy() for x in a), b, sign)
        packed = _merge((a[0].copy(), a[1].copy(), a[2][:, rows, cols]), (*b[:2], b[2][:, rows, cols]), sign)
        for x, y in zip(packed[:2], full[:2]):
            assert x.tobytes() == y.tobytes()
        assert packed[2].tobytes() == full[2][:, rows, cols].tobytes()

    @pytest.mark.parametrize("variant", ["cmf", "ctmf", "cwcmf"])
    def test_cov_is_symmetric(self, variant):
        rng = np.random.default_rng(101)
        cube = engine_cube(rng, nodata=True)
        absorption = make_absorption(8, rng=rng)
        config = MfConfig(variant=variant, cluster_count=3, contamination_iterations=1)
        _, stats = retrieve(cube, absorption, config)
        assert stats.moments[2].shape == (stats.n_segments, 8 * 9 // 2)
        cov = stats.cov
        assert cov.shape == (stats.n_segments, 8, 8)
        np.testing.assert_array_equal(cov, cov.transpose(0, 2, 1))
        n, _, m2 = stats.fit
        shrunk = unpacked(m2, 8) / n[:, None, None] * (1.0 - config.shrinkage)
        off = ~np.eye(8, dtype=bool)
        np.testing.assert_array_equal(cov[:, off], shrunk[:, off])
