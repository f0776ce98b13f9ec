import numpy as np
import pytest

from plumeflux.errors import DataError
from plumeflux.signature import (
    AbsorptionTable,
    band_absorption,
    load_bundled_table,
    read_absorption_table,
    target_spectrum,
    transmittance,
)

from conftest import make_descriptor

WINDOW = (2100.0, 2450.0)


def gaussian_weight_oracle(kappa_fn, center, fwhm, step=0.01, span=8.0):
    """Independent fine-grid trapezoid of the SRF-weighted absorption."""
    sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    wl = np.arange(center - span * sigma, center + span * sigma + step / 2, step)
    g = np.exp(-0.5 * ((wl - center) / sigma) ** 2)
    return np.trapezoid(g * kappa_fn(wl), wl) / np.trapezoid(g, wl)


def table_from_fn(kappa_fn, lo=2000.0, hi=2600.0, step=0.01):
    wl = np.arange(lo, hi + step / 2, step)
    return AbsorptionTable(wavelengths=wl, kappa=kappa_fn(wl))


class TestTableIO:
    def test_reader_skips_comments(self, tmp_path):
        path = tmp_path / "tab.txt"
        path.write_text("# header\n2000.0 1e-5\n2001.0 2e-5  # trailing\n\n2002.0 3e-5\n")
        table = read_absorption_table(path)
        assert table.wavelengths.size == 3
        assert table.kappa[1] == 2e-5

    def test_reader_rejects_bad_columns(self, tmp_path):
        path = tmp_path / "tab.txt"
        path.write_text("2000.0 1e-5 7\n")
        with pytest.raises(DataError, match="line 1: .*two columns"):
            read_absorption_table(path)

    @pytest.mark.parametrize("bad", ["2100.5 abc", "2100.5 nan", "inf 1e-5", "2100.5 -inf"])
    def test_reader_rejects_non_numeric_and_non_finite_values(self, tmp_path, bad):
        path = tmp_path / "tab.txt"
        path.write_text(f"# header\n2100.0 1e-5\n{bad}\n2101.0 2e-5\n")
        with pytest.raises(DataError) as err:
            read_absorption_table(path)
        assert str(path) in str(err.value) and "line 3" in str(err.value)

    def test_reader_names_the_first_non_finite_line(self, tmp_path):
        # finiteness is checked once per table; the line is looked up after
        path = tmp_path / "tab.txt"
        path.write_text("2100.0 1e-5\n# note\n\n2101.0 inf  # x\n2102.0 nan\n2103.0 1e-5\n")
        with pytest.raises(DataError) as err:
            read_absorption_table(path)
        assert str(err.value) == f"{path} line 4: values must be finite numbers, got '2101.0 inf  # x'"

    @pytest.mark.parametrize("column", ["wavelengths", "kappa"])
    def test_non_finite_arrays_rejected(self, column):
        arrays = {"wavelengths": np.array([1.0, 2.0, 3.0]), "kappa": np.ones(3)}
        arrays[column][2] = np.nan
        with pytest.raises(DataError, match="finite"):
            AbsorptionTable(**arrays)

    def test_negative_kappa_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            AbsorptionTable(wavelengths=np.array([1.0, 2.0]), kappa=np.array([1.0, -1.0]))

    def test_bundled_table_loads(self):
        table = load_bundled_table()
        assert table.wavelengths[0] <= 2050.0 and table.wavelengths[-1] >= 2500.0
        assert np.all(table.kappa >= 0)

    def test_bundled_table_is_parsed_once_and_read_only(self):
        table = load_bundled_table()
        assert load_bundled_table() is table
        assert not (table.wavelengths.flags.writeable or table.kappa.flags.writeable)


class TestBandAbsorption:
    def test_constant_kappa_passes_through(self):
        table = table_from_fn(lambda wl: np.full_like(wl, 0.003), step=0.05)
        desc = make_descriptor(n_bands=8)
        result = band_absorption(table, desc, WINDOW)
        np.testing.assert_allclose(result.k_band, 0.003, rtol=1e-12)
        assert result.band_indices.size == 8

    def test_delta_function_limit(self):
        # FWHM -> 0: band value approaches kappa at the band center
        kappa_fn = lambda wl: 1e-5 * (1.5 + np.sin(wl / 40.0))
        desc = make_descriptor(n_bands=4, start=2200.0, stop=2300.0, fwhm=0.01)
        table = table_from_fn(kappa_fn, 2190.0, 2310.0, step=0.001)
        result = band_absorption(table, desc, (2200.0, 2300.0))
        expected = kappa_fn(desc.band_centers)
        np.testing.assert_allclose(result.k_band, expected, rtol=1e-6)

    def test_linear_ramp_recovers_center_value(self):
        # Gaussian symmetry: convolution of a linear ramp is its center value
        kappa_fn = lambda wl: 1e-5 + 3e-8 * (wl - 2000.0)
        desc = make_descriptor(n_bands=5, fwhm=10.0)
        table = table_from_fn(kappa_fn)
        result = band_absorption(table, desc, WINDOW)
        expected = kappa_fn(desc.band_centers)
        np.testing.assert_allclose(result.k_band, expected, rtol=1e-6)

    def test_agrees_with_fine_grid_oracle(self):
        kappa_fn = lambda wl: 2e-5 * (1.0 + 0.8 * np.sin((wl - 2100.0) / 55.0)) + 1e-7
        desc = make_descriptor(n_bands=7, fwhm=11.0)
        table = table_from_fn(kappa_fn)
        result = band_absorption(table, desc, WINDOW)
        for k, b in zip(result.k_band, result.band_indices):
            oracle = gaussian_weight_oracle(kappa_fn, desc.band_centers[b], 11.0)
            assert k == pytest.approx(oracle, rel=1e-6)

    def test_insufficient_coverage_names_range(self):
        table = table_from_fn(lambda wl: np.full_like(wl, 1e-5), 2150.0, 2400.0, step=0.5)
        desc = make_descriptor(n_bands=5, fwhm=10.0)
        with pytest.raises(DataError, match=r"2150.*2400"):
            band_absorption(table, desc, WINDOW)

    def test_window_excludes_outside_bands(self):
        desc = make_descriptor(n_bands=10, start=2000.0, stop=2600.0)
        table = table_from_fn(lambda wl: np.full_like(wl, 1e-5), 1900.0, 2700.0, step=0.5)
        result = band_absorption(table, desc, WINDOW)
        centers = desc.band_centers[result.band_indices]
        assert np.all((centers >= 2100.0) & (centers <= 2450.0))
        assert result.band_indices.size == np.count_nonzero(
            (desc.band_centers >= 2100.0) & (desc.band_centers <= 2450.0)
        )


class TestTargetSpectrum:
    def test_hand_example(self):
        ts = target_spectrum(np.array([0.001, 0.002]), np.array([10.0, 20.0]))
        np.testing.assert_allclose(ts, [-0.01, -0.04], rtol=0, atol=0)

    def test_one_mean_per_row(self, rng):
        k = rng.random(5) * 1e-5
        mu = rng.random((3, 5)) * 30
        t = target_spectrum(k, mu)
        for row, m in zip(t, mu):
            assert row.tobytes() == target_spectrum(k, m).tobytes()
        with pytest.raises(DataError, match="does not match"):
            target_spectrum(k, mu[:, :4])

    def test_zero_kappa_gives_zero_target(self):
        ts = target_spectrum(np.zeros(4), np.full(4, 11.0))
        assert np.all(ts == 0.0)

    def test_brightness_scaling_linearity(self, rng):
        k = rng.random(6) * 1e-5
        mu = rng.random(6) * 50
        t1 = target_spectrum(k, mu)
        t2 = target_spectrum(k, 3.5 * mu)
        np.testing.assert_allclose(t2, 3.5 * t1, rtol=1e-15)

    def test_sign_convention(self, rng):
        k = rng.random(5) * 1e-5
        mu = rng.random(5) * 30
        ts = target_spectrum(k, mu)
        assert np.all(ts <= 0)
        np.testing.assert_array_equal(ts, -k * mu)


class TestTransmittance:
    def test_zero_delta_is_unity(self):
        np.testing.assert_array_equal(transmittance(np.array([1e-5, 2e-5]), 0.0), np.ones(2))

    def test_e_folding(self):
        t = transmittance(np.array([0.002]), 500.0)
        assert t[0] == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_monotone_in_delta(self, rng):
        k = rng.random(6) * 1e-4
        t1 = transmittance(k, 100.0)
        t2 = transmittance(k, 400.0)
        assert np.all(t1 >= t2)

    def test_negative_delta_rejected(self):
        with pytest.raises(DataError):
            transmittance(np.array([1e-5]), -1.0)


class TestLinearization:
    def test_second_order_bound(self, rng):
        # |mu*exp(-k dx) - (mu + t dx)| / (mu k dx) <= 0.006 for k dx <= 0.01
        for _ in range(50):
            k = rng.uniform(1e-6, 5e-5, size=8)
            mu = rng.uniform(1.0, 100.0, size=8)
            dx = 0.01 / k.max() * rng.uniform(0.1, 1.0)
            ts = target_spectrum(k, mu)
            exact = mu * np.exp(-k * dx)
            linear = mu + ts * dx
            rel = np.abs(exact - linear) / (mu * k * dx)
            assert np.all(rel <= 0.006)

    def test_gain_equivariance(self, rng):
        kappa_fn = lambda wl: 1e-5 * (1 + 0.5 * np.cos(wl / 70.0))
        desc = make_descriptor(n_bands=6)
        table = table_from_fn(kappa_fn, step=0.05)
        result = band_absorption(table, desc, WINDOW)
        mu = rng.random(6) * 20
        t1 = target_spectrum(result.k_band, mu)
        t2 = target_spectrum(result.k_band, 7.0 * mu)
        np.testing.assert_allclose(t2, 7.0 * t1, rtol=1e-15)
