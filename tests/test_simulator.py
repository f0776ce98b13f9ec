import numpy as np
import pytest
import yaml

from plumeflux.config import load_config
from plumeflux.errors import DataError, DomainError
from plumeflux.quantification import GasConstants, integrate_ime, ppmm_to_kg_per_m2
from plumeflux.scene_io import EnhancementField
from plumeflux.signature import BandAbsorption
from plumeflux.simulator import (
    SimParams,
    SyntheticPlumeSpec,
    add_noise,
    apply_column_gains,
    inject_plume,
    plume_truth_map,
    simulate_scene,
    synth_background,
)

from conftest import make_cube, make_descriptor


def flat_absorption(n_bands, k=0.002):
    return BandAbsorption(k_band=np.full(n_bands, k), band_indices=np.arange(n_bands))


class TestSynthBackground:
    def test_single_endmember_homogeneous(self):
        desc = make_descriptor(n_bands=4)
        spectrum = np.array([5.0, 6.0, 7.0, 8.0])
        cube = synth_background(10, 12, desc, [spectrum], seed=0)
        for b in range(4):
            assert np.ptp(cube.data[b]) == 0.0
            assert cube.data[b, 0, 0] == spectrum[b]

    def test_infinite_smoothness_gives_constant_mixture(self):
        desc = make_descriptor(n_bands=3)
        ends = [np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])]
        cube = synth_background(8, 8, desc, ends, mixing_smoothness=100, seed=1)
        for b in range(3):
            assert np.ptp(cube.data[b]) < 1e-12

    def test_seed_determinism(self):
        desc = make_descriptor(n_bands=3)
        ends = [np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])]
        c1 = synth_background(6, 6, desc, ends, mixing_smoothness=2, seed=7)
        c2 = synth_background(6, 6, desc, ends, mixing_smoothness=2, seed=7)
        c3 = synth_background(6, 6, desc, ends, mixing_smoothness=2, seed=8)
        assert np.array_equal(c1.data, c2.data)
        assert not np.array_equal(c1.data, c3.data)

    def test_weights_convex(self):
        # mixture of two constant spectra stays within their envelope
        desc = make_descriptor(n_bands=2)
        ends = [np.array([1.0, 1.0]), np.array([3.0, 3.0])]
        cube = synth_background(12, 12, desc, ends, mixing_smoothness=1, seed=3)
        assert np.all(cube.data >= 1.0 - 1e-12)
        assert np.all(cube.data <= 3.0 + 1e-12)

    def test_zero_smoothness_weights_are_the_normalized_draw(self, tmp_path):
        # the surface of every benchmark level-1 scene: no blur, so each weight is its own draw
        doc = {"seed": 4, "input": {}, "simulate": {"lines": 5, "samples": 7, "n_bands": 3,
                                                    "endmember_levels": [1.0, 0.0], "mixing_smoothness_px": 0}}
        (tmp_path / "sim.yaml").write_text(yaml.safe_dump(doc))
        cube = simulate_scene(load_config(tmp_path / "sim.yaml").simulate)[0]
        raw = np.random.default_rng(4).random((2, 5, 7))
        weights = raw / raw.sum(axis=0)
        assert all(np.array_equal(band, weights[0]) for band in cube.data)  # the level-0 endmember adds 0

    def test_band_mismatch_rejected(self):
        desc = make_descriptor(n_bands=3)
        with pytest.raises(DataError, match="bands"):
            synth_background(4, 4, desc, [np.ones(5)], seed=0)


class TestInjectPlume:
    def test_zero_peak_identity(self):
        desc = make_descriptor(n_bands=3)
        cube = synth_background(6, 6, desc, [np.full(3, 10.0)], seed=0)
        spec = SyntheticPlumeSpec(center=(3, 3), peak_delta_x=0.0, sigma_along_m=60, sigma_across_m=60)
        out, truth = inject_plume(cube, flat_absorption(3), spec)
        assert np.array_equal(out.data, cube.data)
        assert truth.ime_true_kg == 0.0
        assert not truth.mask.any()

    def test_single_pixel_e_folding(self):
        # k=0.002, delta_x=500 at one pixel: radiance multiplied by exp(-1)
        desc = make_descriptor(n_bands=3)
        cube = synth_background(9, 9, desc, [np.full(3, 10.0)], seed=0)
        spec = SyntheticPlumeSpec(
            center=(4, 4), peak_delta_x=500.0, sigma_along_m=1.0, sigma_across_m=1.0
        )
        out, truth = inject_plume(cube, flat_absorption(3, k=0.002), spec)
        np.testing.assert_allclose(out.data[:, 4, 4], 10.0 * np.exp(-1.0), rtol=1e-12)
        np.testing.assert_allclose(out.data[:, 0, 0], 10.0, rtol=0, atol=1e-12)

    def test_ime_true_matches_discrete_sum_oracle(self):
        desc = make_descriptor(n_bands=3, gsd=30.0)
        cube = synth_background(40, 40, desc, [np.full(3, 10.0)], seed=0)
        spec = SyntheticPlumeSpec(
            center=(20, 20), peak_delta_x=2000.0, sigma_along_m=60.0, sigma_across_m=60.0
        )
        _, truth = inject_plume(cube, flat_absorption(3, k=1e-5), spec)
        f = ppmm_to_kg_per_m2(GasConstants())
        oracle = f * 900.0 * truth.delta_x_true[truth.mask].sum()
        assert truth.ime_true_kg == oracle

    def test_truth_map_rotation(self):
        spec = SyntheticPlumeSpec(
            center=(10, 10),
            peak_delta_x=100.0,
            sigma_along_m=120.0,
            sigma_across_m=30.0,
            orientation_rad=0.0,
        )
        truth = plume_truth_map(spec, (21, 21), 30.0)
        # elongated along samples: falls off slower in x than in y
        assert truth[10, 14] > truth[14, 10]
        rotated = SyntheticPlumeSpec(
            center=(10, 10),
            peak_delta_x=100.0,
            sigma_along_m=120.0,
            sigma_across_m=30.0,
            orientation_rad=np.pi / 2,
        )
        truth_rot = plume_truth_map(rotated, (21, 21), 30.0)
        assert truth_rot[14, 10] == pytest.approx(truth[10, 14], rel=1e-12)

    def test_center_outside_scene_rejected(self):
        desc = make_descriptor(n_bands=3)
        cube = synth_background(5, 5, desc, [np.full(3, 10.0)], seed=0)
        spec = SyntheticPlumeSpec(center=(9, 2), peak_delta_x=10.0, sigma_along_m=30, sigma_across_m=30)
        with pytest.raises(DomainError, match="outside"):
            inject_plume(cube, flat_absorption(3), spec)


class TestAddNoise:
    def test_zero_coefficients_identity(self):
        desc = make_descriptor(n_bands=3, noise_a=0.0, noise_c=0.0)
        cube = make_cube(np.full((3, 5, 5), 10.0), descriptor=desc)
        out = add_noise(cube, seed=0)
        assert np.array_equal(out.data, cube.data)

    def test_additive_variance_monte_carlo(self):
        desc = make_descriptor(n_bands=2, noise_a=0.0, noise_c=4.0)
        cube = make_cube(np.full((2, 250, 200), 10.0), descriptor=desc)
        out = add_noise(cube, seed=42)
        residual = out.data - cube.data
        assert residual.var() == pytest.approx(4.0, abs=0.1)
        assert abs(residual.mean()) < 0.02

    def test_variance_scales_with_radiance(self):
        # var = a * L when c = 0: regression over radiance levels
        a = 0.01
        desc = make_descriptor(n_bands=3, noise_a=a, noise_c=0.0)
        levels = np.array([10.0, 20.0, 40.0])
        variances = []
        for i, level in enumerate(levels):
            cube = make_cube(np.full((3, 300, 200), level), descriptor=desc)
            out = add_noise(cube, seed=100 + i)
            variances.append((out.data - cube.data).var())
        slope = np.polyfit(levels, variances, 1)[0]
        assert slope == pytest.approx(a, rel=0.05)

    def test_missing_coefficients_rejected(self):
        cube = make_cube(np.full((3, 4, 4), 10.0))
        with pytest.raises(DomainError, match="noise"):
            add_noise(cube, seed=0)

    def test_determinism(self):
        desc = make_descriptor(n_bands=2, noise_a=1e-3, noise_c=1e-3)
        cube = make_cube(np.full((2, 6, 6), 10.0), descriptor=desc)
        assert np.array_equal(add_noise(cube, seed=3).data, add_noise(cube, seed=3).data)


class TestColumnGains:
    def test_zero_amplitude_identity(self):
        cube = make_cube(np.full((2, 4, 4), 10.0))
        assert apply_column_gains(cube, 0.0, seed=0) is cube

    def test_gains_constant_along_track(self):
        cube = make_cube(np.full((2, 6, 5), 10.0))
        out = apply_column_gains(cube, 0.05, seed=1)
        for b in range(2):
            for j in range(5):
                assert np.ptp(out.data[b, :, j]) == 0.0  # fixed per band and column
        assert np.ptp(out.data[0, 0, :]) > 0.0  # varies across columns
        assert np.ptp(out.data[:, 0, 0]) > 0.0  # varies across bands


class TestSimulateScene:
    def test_full_scene_determinism(self):
        spec = SyntheticPlumeSpec(center=(20, 20), peak_delta_x=500.0, sigma_along_m=60, sigma_across_m=60)
        params = SimParams(lines=40, samples=40, noise_a=1e-4, noise_c=1e-4, plume=spec, seed=9)
        c1, t1 = simulate_scene(params)
        c2, t2 = simulate_scene(params)
        assert np.array_equal(c1.data, c2.data)
        assert t1.ime_true_kg == t2.ime_true_kg

    def test_truth_field_integrates_through_shared_path(self):
        spec = SyntheticPlumeSpec(center=(20, 20), peak_delta_x=800.0, sigma_along_m=90, sigma_across_m=60)
        params = SimParams(lines=40, samples=40, plume=spec, seed=2)
        cube, truth = simulate_scene(params)
        field = EnhancementField(delta_x=truth.delta_x_true, gsd=cube.gsd)
        ime, _ = integrate_ime(field, truth.mask)
        assert ime == truth.ime_true_kg


class TestWideCube:
    SPEC = SyntheticPlumeSpec(center=(20, 20), peak_delta_x=800.0, sigma_along_m=90, sigma_across_m=60)

    def test_plume_attenuates_only_the_bands_the_table_covers(self):
        # 1600-2600 nm in 10 nm steps; the bundled table covers 2000-2600 nm,
        # so with a 3 * 12 nm margin only 2040-2560 nm can carry the plume
        wide = dict(lines=40, samples=40, band_start_nm=1600.0, band_stop_nm=2600.0,
                    n_bands=101, noise_a=1e-4, noise_c=1e-4, column_gain_amplitude=0.01, seed=4)
        cube, truth = simulate_scene(SimParams(plume=self.SPEC, **wide))
        clean, _ = simulate_scene(SimParams(**wide))
        centers = cube.descriptor.band_centers
        covered = (centers >= 2036.0) & (centers <= 2564.0)
        assert np.count_nonzero(covered) == 53 and centers[~covered].size == 48
        np.testing.assert_array_equal(cube.data[~covered], clean.data[~covered])
        assert np.all(np.any(cube.data[covered] < clean.data[covered], axis=(1, 2)))
        default = simulate_scene(SimParams(lines=40, samples=40, plume=self.SPEC, seed=4))[1]
        assert truth.ime_true_kg == default.ime_true_kg

    def test_margin_rounding_keeps_every_covered_band(self):
        # 2000 + 3 * 16.06 - 3 * 16.06 rounds below 2000 in float64: the
        # covered range must come from the band centres, not from that sum
        params = SimParams(lines=40, samples=40, band_start_nm=1900.0, band_stop_nm=2700.0,
                           n_bands=81, fwhm_nm=16.06, plume=self.SPEC)
        _, truth = simulate_scene(params)
        assert truth.ime_true_kg > 0.0

    def test_plume_without_a_covered_band_rejected(self):
        params = dict(band_start_nm=1000.0, band_stop_nm=1900.0)
        simulate_scene(SimParams(**params))  # no plume: no absorption needed
        with pytest.raises(DataError, match="absorption table"):
            simulate_scene(SimParams(plume=self.SPEC, **params))
