import numpy as np
import pytest
import scipy.ndimage

from plumeflux import kernels
from plumeflux.background import (
    clutter_sigma,
    continuum_bands,
    match_background,
    spectral_angle,
    total_sigma,
)
from plumeflux.errors import DomainError
from plumeflux.matched_filter import normalized_features
from plumeflux.scene_io import EnhancementField, RadianceCube
from plumeflux.segmentation import disk, radius_to_pixels
from plumeflux.signature import BandAbsorption

from conftest import make_cube


def make_absorption(n_bands, k_values):
    return BandAbsorption(
        k_band=np.asarray(k_values, dtype=float),
        band_indices=np.arange(n_bands),
    )


def field_from(values, gsd=30.0, **kwargs):
    return EnhancementField(delta_x=np.asarray(values, dtype=float), gsd=gsd, **kwargs)


class TestContinuumBands:
    def test_threshold_at_ten_percent_of_max(self):
        absorption = make_absorption(5, [1e-6, 2e-5, 1.9e-6, 3e-5, 2.9e-6])
        bands = continuum_bands(absorption)
        np.testing.assert_array_equal(bands, [0, 2, 4])

    def test_flat_absorption_falls_back_to_all(self):
        absorption = make_absorption(3, [1e-5, 1e-5, 1e-5])
        np.testing.assert_array_equal(continuum_bands(absorption), [0, 1, 2])


class TestMatchBackground:
    def test_homogeneous_scene_takes_lexicographic_order(self):
        n_bands = 4
        data = np.full((n_bands, 6, 6), 9.0)
        cube = make_cube(data, n_bands=n_bands)
        absorption = make_absorption(n_bands, [1e-5, 2e-5, 1e-6, 1e-6])
        mask = np.zeros((6, 6), dtype=bool)
        mask[5, 5] = True
        sel = match_background(cube, absorption, mask, n_select=5, buffer_m=0.0)
        assert np.all(sel.similarity_scores == 0.0)
        expected = [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
        assert [tuple(ix) for ix in sel.pixel_indices] == expected

    def test_two_material_scene_selects_matching_material(self):
        n_bands = 6
        rel = np.linspace(-0.5, 0.5, n_bands)
        mat_a = 10.0 * (1 + 0.4 * rel)
        mat_b = 10.0 * (1 - 0.4 * rel)
        data = np.empty((n_bands, 10, 10))
        data[:, :, :5] = mat_a[:, None, None]
        data[:, :, 5:] = mat_b[:, None, None]
        cube = make_cube(data, n_bands=n_bands)
        absorption = make_absorption(n_bands, np.full(n_bands, 1e-9))
        mask = np.zeros((10, 10), dtype=bool)
        mask[4:6, 1:3] = True  # plume sits on material A
        sel = match_background(cube, absorption, mask, n_select=20, buffer_m=30.0)
        assert sel.count == 20
        assert np.all(sel.pixel_indices[:, 1] < 5)  # every pick from material A
        # exhaustive check: every candidate in A scores strictly below any in B
        a_angle = spectral_angle(
            (mat_a / mat_a.mean())[None, :], mat_a / mat_a.mean()
        )[0]
        b_angle = spectral_angle(
            (mat_b / mat_b.mean())[None, :], mat_a / mat_a.mean()
        )[0]
        assert a_angle < b_angle

    def test_buffer_excludes_near_pixels(self):
        n_bands = 3
        data = np.full((n_bands, 9, 9), 5.0)
        cube = make_cube(data, n_bands=n_bands)
        absorption = make_absorption(n_bands, [1e-5, 1e-5, 1e-5])
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        sel = match_background(cube, absorption, mask, n_select=200, buffer_m=90.0)
        d = np.linalg.norm(sel.pixel_indices - np.array([4, 4]), axis=1)
        assert d.min() > 3.0  # 90 m at 30 m GSD = 3 px exclusion radius
        inside = (np.arange(9)[:, None] - 4) ** 2 + (np.arange(9)[None, :] - 4) ** 2 <= 9
        assert sel.count == 81 - inside.sum()
        assert sel.insufficient  # fewer candidates than requested

    def test_empty_candidate_pool_raises(self):
        data = np.full((3, 3, 3), 5.0)
        cube = make_cube(data, n_bands=3)
        absorption = make_absorption(3, [1e-5, 1e-5, 1e-5])
        mask = np.ones((3, 3), dtype=bool)
        with pytest.raises(DomainError, match="candidate"):
            match_background(cube, absorption, mask, n_select=5, buffer_m=0.0)

    @pytest.mark.parametrize("n_select", [0, -5])
    def test_n_select_below_one_raises(self, n_select):
        # a negative slice of the ranked candidates would keep all but the worst
        cube = make_cube(np.full((3, 6, 6), 5.0), n_bands=3)
        absorption = make_absorption(3, [1e-5, 1e-5, 1e-5])
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(DomainError, match="n_select"):
            match_background(cube, absorption, mask, n_select=n_select, buffer_m=0.0)

    def test_empty_plume_mask_raises(self):
        cube = make_cube(np.full((3, 3, 3), 5.0), n_bands=3)
        absorption = make_absorption(3, [1e-5, 1e-5, 1e-5])
        with pytest.raises(DomainError, match="empty"):
            match_background(cube, absorption, np.zeros((3, 3), dtype=bool))

    def test_scores_invariant_to_pixel_brightness(self, rng):
        n_bands = 5
        base = rng.uniform(5, 15, size=n_bands)
        data = np.empty((n_bands, 4, 8))
        gains = rng.uniform(0.5, 2.0, size=(4, 8))
        data[:] = base[:, None, None] * gains[None, :, :]
        cube = make_cube(data, n_bands=n_bands)
        absorption = make_absorption(n_bands, np.full(n_bands, 1e-9))
        mask = np.zeros((4, 8), dtype=bool)
        mask[0, 0] = True
        sel = match_background(cube, absorption, mask, n_select=31, buffer_m=0.0)
        assert np.all(sel.similarity_scores < 1e-7)  # same shape everywhere

    def test_default_n_select_scales_with_plume(self):
        data = np.full((3, 40, 40), 5.0)
        cube = make_cube(data, n_bands=3)
        absorption = make_absorption(3, [1e-5, 1e-5, 1e-5])
        mask = np.zeros((40, 40), dtype=bool)
        mask[:5, :5] = True
        sel = match_background(cube, absorption, mask, buffer_m=0.0)
        assert sel.count == 500  # max(500, 5 * 25)


def norm_form_angle(spectra, reference):
    """The angle by ``np.linalg.norm``, a copy of every valid row and a chord temporary."""
    ref_norm = float(np.linalg.norm(reference))
    norms = np.linalg.norm(spectra, axis=-1)
    out = np.full(spectra.shape[0], np.pi)
    ok = (norms > 0) & (ref_norm > 0)
    with np.errstate(invalid="ignore", divide="ignore"):  # a zero reference divides by 0
        unit = spectra[ok] / norms[ok, None]
        chord = np.linalg.norm(unit - reference / ref_norm, axis=-1)
    out[ok] = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    return out


class TestSpectralAngleArithmetic:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_linalg_norm_form(self, rng, dtype):
        spectra = (rng.random((500, 25)) * 10 + 0.1).astype(dtype)
        reference = spectra[3].copy()
        cases = [(spectra, reference), (spectra, 2.5 * spectra[7] + 1.0)]
        with_zeros = spectra.copy()
        with_zeros[[0, 17, 499]] = 0.0  # zero-norm rows score pi
        cases += [(with_zeros, reference), (spectra, np.zeros(25, dtype=dtype))]
        for rows, ref in cases:
            angles = spectral_angle(rows, ref)
            assert angles.tobytes() == norm_form_angle(rows, ref).tobytes()
        assert np.all(spectral_angle(with_zeros, reference)[[0, 17, 499]] == np.pi)
        assert np.all(spectral_angle(spectra, np.zeros(25)) == np.pi)


class TestClutterSigma:
    def test_three_point_hand_case(self):
        field = field_from([[-1.0, 0.0, 1.0]])
        sel_indices = np.array([[0, 0], [0, 1], [0, 2]])
        from plumeflux.background import BackgroundSelection

        sel = BackgroundSelection(sel_indices, np.zeros(3), False)
        assert clutter_sigma(field, sel) == pytest.approx(1.4826, rel=1e-12)

    def test_all_equal_gives_zero(self):
        field = field_from(np.full((2, 5), 3.25))
        from plumeflux.background import BackgroundSelection

        idx = np.argwhere(np.ones((2, 5), dtype=bool))
        sel = BackgroundSelection(idx, np.zeros(10), False)
        assert clutter_sigma(field, sel) == 0.0

    def test_mad_scale_factor_consistent_on_normal_samples(self):
        rng = np.random.default_rng(2024)
        values = rng.standard_normal(100_000).reshape(250, 400)
        field = field_from(values)
        from plumeflux.background import BackgroundSelection

        idx = np.argwhere(np.ones((250, 400), dtype=bool))
        sel = BackgroundSelection(idx, np.zeros(idx.shape[0]), False)
        assert clutter_sigma(field, sel) == pytest.approx(1.0, abs=0.02)


def assembled(noise, clutter):
    """A field of the noise layer with sigma_total assembled as the pipeline does."""
    field = field_from(np.zeros(np.shape(noise)), sigma_noise=noise)
    return field.replace(sigma_total=total_sigma(field.sigma_noise, clutter))


class TestTotalSigma:
    def test_three_four_five(self):
        out = assembled(np.full((2, 2), 3.0), 4.0)
        np.testing.assert_array_equal(out.sigma_total, np.full((2, 2), 5.0))

    def test_zero_clutter_keeps_noise(self):
        noise = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = assembled(noise, 0.0)
        np.testing.assert_array_equal(out.sigma_total, noise)

    def test_elementwise_frozen_values(self):
        noise = np.array([[30.0, 40.0]])
        f0 = assembled(noise, 0.0)
        f30 = assembled(noise, 30.0)
        np.testing.assert_allclose(f0.sigma_total, [[30.0, 40.0]], rtol=1e-12)
        np.testing.assert_allclose(
            f30.sigma_total, [[42.42640687119285, 50.0]], rtol=1e-12
        )

    def test_total_bounds_components(self, rng):
        noise = rng.random((6, 6)) * 10
        clutter = 3.3
        out = assembled(noise, clutter)
        assert np.all(out.sigma_total >= noise)
        assert np.all(out.sigma_total >= clutter)
        eq_noise = np.isclose(out.sigma_total, noise)
        assert not np.any(eq_noise)  # clutter nonzero everywhere

    def test_clutter_map_rejected(self):
        # clutter is one number per scene; a map must not be broadcast silently
        with pytest.raises(TypeError):
            total_sigma(np.ones((2, 2)), np.full((2, 2), 4.0))

    def test_frozen_noise_layer_left_unchanged(self):
        # the pipeline passes a field's read-only layer: total_sigma writes a new array
        field = field_from(np.zeros((2, 2)), sigma_noise=np.full((2, 2), 3.0))
        out = total_sigma(field.sigma_noise, 4.0)
        np.testing.assert_array_equal(field.sigma_noise, np.full((2, 2), 3.0))
        assert not np.shares_memory(out, field.sigma_noise)


class TestSelectionDeterminism:
    def test_identical_inputs_identical_selection(self, rng):
        n_bands = 5
        data = rng.random((n_bands, 12, 12)) * 10 + 1
        cube = make_cube(data, n_bands=n_bands)
        absorption = make_absorption(n_bands, rng.random(n_bands) * 1e-5)
        mask = np.zeros((12, 12), dtype=bool)
        mask[5:7, 5:7] = True
        s1 = match_background(cube, absorption, mask, n_select=30, buffer_m=30.0)
        s2 = match_background(cube, absorption, mask, n_select=30, buffer_m=30.0)
        np.testing.assert_array_equal(s1.pixel_indices, s2.pixel_indices)
        np.testing.assert_array_equal(s1.similarity_scores, s2.similarity_scores)


class TestTotalSigmaEqualityCases:
    def test_equal_to_noise_iff_clutter_zero(self, rng):
        noise = rng.random((5, 5)) * 10 + 0.1
        with_zero = assembled(noise, 0.0)
        np.testing.assert_array_equal(with_zero.sigma_total, noise)
        with_clutter = assembled(noise, 1.0)
        assert np.all(with_clutter.sigma_total > noise)


def scored_scene(rng, n_bands=40, lines=30, samples=40, dtype=np.float32):
    """Random ``dtype``-grid scene with nodata pixels, a plume blob and mixed continuum bands."""
    data = (rng.random((n_bands, lines, samples)) * 10 + 1).astype(dtype)
    nodata = rng.random((lines, samples)) < 0.05
    cube = make_cube(data.astype(np.float64), n_bands=n_bands, nodata_mask=nodata)
    k = np.where(np.arange(n_bands) % 3 == 0, 1e-5, 1e-8)  # every third band absorbs
    mask = np.zeros((lines, samples), dtype=bool)
    mask[10:14, 15:21] = True
    return cube, make_absorption(n_bands, k), mask


def selection_bytes(sel):
    return sel.pixel_indices.tobytes(), sel.similarity_scores.tobytes(), sel.insufficient


class TestChunkedScoring:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_whole_scene_formula(self, rng, dtype):
        # float32-grid sums are exact in any order; float64 data shows the summation order
        cube, absorption, mask = scored_scene(rng, dtype=dtype)
        sel = match_background(cube, absorption, mask, n_select=300, buffer_m=30.0)
        # the unchunked formula, on a copy of every continuum band
        bands = continuum_bands(absorption)
        spectra = cube.data[bands]
        valid = ~cube.nodata_mask
        excluded = np.zeros_like(mask)
        for dy, dx in [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]:
            excluded |= np.roll(np.roll(mask, dy, axis=0), dx, axis=1)
        lines, samples = np.nonzero(valid & ~excluded)
        reference = normalized_features(spectra[:, mask & valid].mean(axis=1))
        angles = spectral_angle(normalized_features(spectra[:, lines, samples].T), reference)
        take = np.lexsort((samples, lines, angles))[:300]
        assert np.array_equal(sel.pixel_indices, np.column_stack([lines[take], samples[take]]))
        assert sel.similarity_scores.tobytes() == angles[take].tobytes()

    @pytest.mark.parametrize("chunk", [1, 13, 10**6])
    def test_selection_does_not_depend_on_chunk_size(self, rng, monkeypatch, chunk):
        cube, absorption, mask = scored_scene(rng)
        expected = selection_bytes(match_background(cube, absorption, mask, n_select=300))
        monkeypatch.setattr(kernels, "_PIXEL_CHUNK", chunk)
        assert selection_bytes(match_background(cube, absorption, mask, n_select=300)) == expected
        # a float32 cube of the same values selects the same pixels
        data32 = cube.data.astype(np.float32)
        cube32 = RadianceCube(cube.descriptor, data32, nodata_mask=cube.nodata_mask)
        assert selection_bytes(match_background(cube32, absorption, mask, n_select=300)) == expected

    def test_peak_memory_is_a_few_chunks(self, rng, monkeypatch):
        import tracemalloc

        chunk, n_bands, lines, samples = 2048, 60, 160, 256
        monkeypatch.setattr(kernels, "_PIXEL_CHUNK", chunk)
        data = (rng.random((n_bands, lines, samples)) + 1).astype(np.float32)
        desc = make_cube(np.ones((n_bands, 1, 1)), n_bands=n_bands).descriptor
        cube = RadianceCube(desc, data)
        absorption = make_absorption(n_bands, np.full(n_bands, 1e-9))  # all continuum
        mask = np.zeros((lines, samples), dtype=bool)
        mask[70:90, 100:130] = True
        tracemalloc.start()
        try:
            sel = match_background(cube, absorption, mask, n_select=500, buffer_m=30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sel.count == 500
        chunk_bytes = chunk * n_bands * 8  # one widened chunk of candidate spectra
        # a float64 copy of the continuum bands alone would be 20 chunks
        assert peak <= 8 * chunk_bytes < data.nbytes


def full_sort_selection(cube, absorption, mask, n_select, buffer_m):
    """The selection by one pixel-major gather of every candidate and a full lexsort."""
    bands = continuum_bands(absorption)
    pixels = cube.data.reshape(cube.data.shape[0], -1).T
    se = disk(radius_to_pixels(buffer_m, cube.gsd))
    excluded = scipy.ndimage.binary_dilation(mask, structure=se)
    cand = np.flatnonzero(~cube.nodata_mask & ~excluded)
    plume = pixels[np.ix_((mask & ~cube.nodata_mask).ravel(), bands)].astype(np.float64)
    reference = normalized_features(plume.mean(axis=0))
    spectra = normalized_features(pixels[np.ix_(cand, bands)].astype(np.float64))
    angles = spectral_angle(spectra, reference)
    take = np.lexsort((cand, angles))[:n_select]
    return np.column_stack(np.divmod(cand[take], mask.shape[1])), angles[take]


class TestSelectionOrder:
    def tied_scene(self, rng, nodata_frac):
        """Every pixel holds one of four spectra, so most angles tie exactly."""
        n_bands, lines, samples = 12, 24, 31
        prototypes = rng.random((4, n_bands)) * 10 + 1
        data = prototypes[rng.integers(0, 4, lines * samples)].T.reshape(n_bands, lines, samples)
        nodata = rng.random((lines, samples)) < nodata_frac
        cube = make_cube(data, n_bands=n_bands, nodata_mask=nodata)
        mask = np.zeros((lines, samples), dtype=bool)
        mask[8:12, 10:15] = True
        return cube, make_absorption(n_bands, np.full(n_bands, 1e-9)), mask

    @pytest.mark.parametrize("nodata_frac", [0.0, 0.2])
    @pytest.mark.parametrize("chunk", [7, 10**6])
    def test_ties_nodata_and_short_pools_equal_the_full_sort(
        self, rng, monkeypatch, nodata_frac, chunk
    ):
        monkeypatch.setattr(kernels, "_PIXEL_CHUNK", chunk)
        cube, absorption, mask = self.tied_scene(rng, nodata_frac)
        n_cand = len(full_sort_selection(cube, absorption, mask, None, 30.0)[0])
        for n_select in (1, 50, 173, n_cand - 1, n_cand, n_cand + 1, 10 * n_cand):
            sel = match_background(cube, absorption, mask, n_select=n_select, buffer_m=30.0)
            idx, angles = full_sort_selection(cube, absorption, mask, n_select, 30.0)
            assert np.array_equal(sel.pixel_indices, idx)
            assert sel.similarity_scores.tobytes() == angles.tobytes()
            assert sel.insufficient == (n_select > n_cand or n_select < 100)
        # the tie groups are large: the k-th angle is shared by many candidates
        assert np.unique(angles).size <= 4 < n_cand

    @pytest.mark.parametrize("n_select", [5, 300, 10**4])
    def test_nan_angles_sort_last_as_in_the_full_sort(self, rng, n_select):
        cube, absorption, mask = self.tied_scene(rng, 0.1)
        data = np.array(cube.data)
        # spectra whose unit-mean scaling overflows score NaN
        data[:, 0, :6] = np.resize([1e308, -1e308, 1e-300], data.shape[0])[:, None]
        cube = make_cube(data, n_bands=data.shape[0], nodata_mask=cube.nodata_mask)
        with np.errstate(all="ignore"):
            sel = match_background(cube, absorption, mask, n_select=n_select, buffer_m=30.0)
            idx, angles = full_sort_selection(cube, absorption, mask, n_select, 30.0)
        assert np.isnan(angles).any() == (n_select == 10**4)
        assert np.array_equal(sel.pixel_indices, idx)
        assert sel.similarity_scores.tobytes() == angles.tobytes()
