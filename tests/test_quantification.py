import math

import numpy as np
import pytest

from plumeflux.errors import ConfigError, DomainError
from plumeflux.quantification import (
    GasConstants,
    WindConfig,
    effective_wind,
    flux,
    flux_uncertainty,
    integrate_ime,
    plume_length,
    ppmm_to_kg_per_m2,
    quantify,
)
from plumeflux.scene_io import EnhancementField


def field_of(values, gsd=30.0, sigma_total=None, nodata=None):
    return EnhancementField(
        delta_x=np.asarray(values, float),
        gsd=gsd,
        sigma_total=sigma_total,
        nodata_mask=nodata,
    )


class TestConversionFactor:
    def test_against_ideal_gas_oracle(self):
        # 1 ppm*m = 1e-6 m^3 of gas per m^2; molar volume RT/P at STP
        f = ppmm_to_kg_per_m2(GasConstants())
        molar_volume = 8.314462618 * 273.15 / 101_325.0
        oracle = 1e-6 / molar_volume * 0.016043
        assert f == pytest.approx(oracle, rel=1e-12)
        assert f == pytest.approx(7.1577e-7, rel=5e-5)  # 4 significant digits

    def test_pressure_and_temperature_proportionality(self):
        base = ppmm_to_kg_per_m2(GasConstants())
        assert ppmm_to_kg_per_m2(GasConstants(pressure=2 * 101_325.0)) == 2 * base
        assert ppmm_to_kg_per_m2(GasConstants(temperature=2 * 273.15)) == pytest.approx(
            base / 2, rel=1e-15
        )

    def test_zero_molar_mass(self):
        assert ppmm_to_kg_per_m2(GasConstants(molar_mass=0.0)) == 0.0


class TestIntegrateIme:
    def test_uniform_enhancement_calculator_case(self):
        values = np.zeros((20, 20))
        mask = np.zeros((20, 20), dtype=bool)
        mask[:10, :10] = True
        values[mask] = 1000.0
        ime, sigma = integrate_ime(field_of(values), mask)
        f = ppmm_to_kg_per_m2(GasConstants())
        assert ime == pytest.approx(f * 900.0 * 100 * 1000.0, rel=1e-12)
        assert ime == pytest.approx(64.42, abs=0.01)
        assert sigma is None

    def test_sigma_aggregates_in_quadrature(self):
        values = np.full((10, 10), 1000.0)
        sigma_total = np.full((10, 10), 50.0)
        mask = np.ones((10, 10), dtype=bool)
        ime, sigma = integrate_ime(field_of(values, sigma_total=sigma_total), mask)
        f = ppmm_to_kg_per_m2(GasConstants())
        assert sigma == pytest.approx(f * 900.0 * math.sqrt(100 * 2500.0), rel=1e-12)
        assert sigma == pytest.approx(0.3221, abs=0.0005)

    def test_linearity_in_enhancement(self, rng):
        values = rng.standard_normal((8, 8)) * 300
        mask = rng.random((8, 8)) > 0.4
        ime1, _ = integrate_ime(field_of(values), mask)
        ime2, _ = integrate_ime(field_of(2.0 * values), mask)
        assert ime2 == pytest.approx(2.0 * ime1, rel=1e-12)

    def test_negative_enhancements_included(self):
        values = np.array([[100.0, -40.0]])
        mask = np.ones((1, 2), dtype=bool)
        ime, _ = integrate_ime(field_of(values), mask)
        f = ppmm_to_kg_per_m2(GasConstants())
        assert ime == pytest.approx(f * 900.0 * 60.0, rel=1e-12)

    def test_halving_pressure_halves_ime_exactly(self, rng):
        values = rng.random((6, 6)) * 500
        mask = np.ones((6, 6), dtype=bool)
        ime1, _ = integrate_ime(field_of(values), mask, GasConstants())
        ime2, _ = integrate_ime(field_of(values), mask, GasConstants(pressure=101_325.0 / 2))
        assert ime2 == ime1 / 2

    def test_empty_mask_raises(self):
        with pytest.raises(DomainError):
            integrate_ime(field_of(np.ones((3, 3))), np.zeros((3, 3), dtype=bool))

    def test_nodata_excluded_from_mask(self):
        values = np.full((2, 2), 100.0)
        nodata = np.array([[False, True], [False, False]])
        mask = np.ones((2, 2), dtype=bool)
        ime, _ = integrate_ime(field_of(values, nodata=nodata), mask)
        f = ppmm_to_kg_per_m2(GasConstants())
        assert ime == pytest.approx(f * 900.0 * 300.0, rel=1e-12)


class TestPlumeCrop:
    def test_crop_views_give_the_validated_crops_ime_bit_for_bit(self, rng):
        delta = rng.standard_normal((30, 40)) * 50 + 200
        sigma = np.abs(rng.standard_normal((30, 40))) * 20
        nodata = np.zeros((30, 40), dtype=bool)
        nodata[12, 15:18] = True  # inside the window and the plume mask
        delta[nodata], sigma[nodata] = np.nan, np.nan
        window = (slice(8, 20), slice(10, 25))
        mask = rng.random((12, 15)) > 0.4
        mask[4, 5:8] = True
        for sigma_total in (sigma, None):
            field = EnhancementField(
                delta_x=delta,
                gsd=30.0,
                origin=(355000.0, 4100000.0),
                sigma_noise=np.full((30, 40), 3.0),
                sigma_total=sigma_total,
                nodata_mask=nodata,
            )
            crop = field.crop(window)
            maps = {}
            for name in ("delta_x", "nodata_mask", "sigma_noise", "sigma_total"):
                full, layer = getattr(field, name), getattr(crop, name)
                if full is None:
                    assert layer is None
                    continue
                assert layer.base is full and not layer.flags.writeable
                np.testing.assert_array_equal(layer, full[window])
                maps[name] = full[window]
            # the same crop built through the checks, with copied layers
            checked = field.replace(origin=crop.origin, **maps)
            assert crop.origin == checked.origin == (355300.0, 4099760.0)
            assert crop.gsd == checked.gsd
            assert integrate_ime(crop, mask) == integrate_ime(checked, mask)
            assert (integrate_ime(crop, mask)[1] is None) is (sigma_total is None)


class TestPlumeLength:
    @pytest.mark.parametrize(
        "area,expected",
        [(2_569_892.0, 1603.09), (65_378_710.51, 8085.71), (1.0, 1.0)],
    )
    def test_reported_scene_lengths(self, area, expected):
        assert plume_length(area) == pytest.approx(expected, abs=0.01)

    def test_nonpositive_area(self):
        with pytest.raises(DomainError):
            plume_length(0.0)


class TestEffectiveWind:
    def test_log_of_one(self):
        u, _, flags = effective_wind(WindConfig(u10=1.0))
        assert u == pytest.approx(0.6, rel=1e-15)
        assert flags == ()

    @pytest.mark.parametrize(
        "u10,expected",
        [(3.0, 1.8084734), (2.68, 1.6843995), (2.5, 1.6079198)],
    )
    def test_calibration_values(self, u10, expected):
        u, _, _ = effective_wind(WindConfig(u10=u10))
        assert u == pytest.approx(expected, abs=1e-4)

    def test_analytic_sigma(self):
        _, s, _ = effective_wind(WindConfig(u10=3.0, sigma_u10=1.0, sigma_method="analytic"))
        assert s == pytest.approx(1.1 / 3.0, rel=1e-12)

    def test_forward_difference_sigma(self):
        _, s, _ = effective_wind(
            WindConfig(u10=2.5, sigma_u10=1.0, sigma_method="forward_difference")
        )
        assert s == pytest.approx(1.1 * math.log(1.4), rel=1e-12)
        assert s == pytest.approx(0.3701, abs=1e-4)

    def test_clamping_flags_low_wind(self):
        u, _, flags = effective_wind(WindConfig(u10=0.2))
        assert u == pytest.approx(0.6 + 1.1 * math.log(0.5), rel=1e-12)
        assert any("clamp" in f for f in flags)

    def test_monotone_in_u10(self):
        grid = np.linspace(0.6, 12.0, 40)
        values = [effective_wind(WindConfig(u10=float(u)))[0] for u in grid]
        assert np.all(np.diff(values) > 0)

    def test_analytic_dominates_forward_difference(self):
        # concavity of log: derivative bound exceeds the finite step
        for u10 in np.linspace(0.6, 10.0, 25):
            for s_u in (0.2, 1.0, 2.5):
                _, s_a, _ = effective_wind(WindConfig(u10=float(u10), sigma_u10=s_u))
                _, s_f, _ = effective_wind(
                    WindConfig(u10=float(u10), sigma_u10=s_u, sigma_method="forward_difference")
                )
                assert s_a >= s_f

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            WindConfig(u10=-1.0)
        with pytest.raises(ConfigError):
            WindConfig(u10=1.0, sigma_method="bogus")


class TestFlux:
    def test_prisma_main_reconstruction(self):
        u, _, _ = effective_wind(WindConfig(u10=3.0))
        q = flux(820.91, plume_length(2_569_892.0), u)
        assert q == pytest.approx(3.34, rel=0.015)

    def test_enmap_reconstruction(self):
        u, _, _ = effective_wind(WindConfig(u10=2.68))
        q = flux(98_858.52, plume_length(65_378_710.51), u)
        assert q == pytest.approx(74.02, rel=0.01)

    def test_tanager_reconstruction(self):
        u, _, _ = effective_wind(WindConfig(u10=2.5))
        q = flux(6_601.64, plume_length(18_862_057.0), u)
        assert q == pytest.approx(8.89, rel=0.02)

    def test_unit_factor(self):
        # 1 kg/s = 3.6 t/h
        assert flux(100.0, 100.0, 1.0) == pytest.approx(3.6, rel=1e-15)

    def test_homogeneous_degree_one(self, rng):
        ime, length, u = 500.0, 1000.0, 1.7
        assert flux(2 * ime, length, u) == pytest.approx(2 * flux(ime, length, u), rel=1e-15)
        assert flux(ime, length, 2 * u) == pytest.approx(2 * flux(ime, length, u), rel=1e-15)


class TestFluxUncertainty:
    def test_prisma_budget(self):
        u, s_u, _ = effective_wind(WindConfig(u10=3.0, sigma_u10=1.0))
        length = plume_length(2_569_892.0)
        total, wind_term, ime_term = flux_uncertainty(820.91, 19.82, length, u, s_u)
        assert wind_term == pytest.approx(0.676, abs=0.005)
        assert ime_term == pytest.approx(0.0805, abs=0.001)
        assert total == pytest.approx(0.69, rel=0.03)

    def test_tanager_wind_term(self):
        u, s_u, _ = effective_wind(
            WindConfig(u10=2.5, sigma_u10=1.0, sigma_method="forward_difference")
        )
        length = plume_length(18_862_057.0)
        total, wind_term, _ = flux_uncertainty(6_601.64, 38.81, length, u, s_u)
        assert wind_term == pytest.approx(2.02, rel=0.005)
        assert total == pytest.approx(2.03, rel=0.02)

    def test_zero_sigma_ime_collapses_to_wind(self):
        total, wind_term, ime_term = flux_uncertainty(100.0, 0.0, 50.0, 1.5, 0.3)
        assert total == wind_term
        assert ime_term == 0.0

    def test_unavailable_sigma_ime(self):
        total, wind_term, ime_term = flux_uncertainty(100.0, None, 50.0, 1.5, 0.3)
        assert total is None and ime_term is None
        assert wind_term > 0

    def test_quadrature_identity_randomized(self, rng):
        for _ in range(100):
            ime = float(rng.uniform(10, 1e5))
            s_ime = float(rng.uniform(0, 1e3))
            length = float(rng.uniform(100, 1e4))
            u = float(rng.uniform(0.5, 5.0))
            s_u = float(rng.uniform(0, 2.0))
            total, wind_term, ime_term = flux_uncertainty(ime, s_ime, length, u, s_u)
            assert total**2 == pytest.approx(wind_term**2 + ime_term**2, rel=1e-12)
            assert total >= max(wind_term, ime_term)

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-307, 1e-310])
    def test_terms_whose_squares_underflow(self, scale):
        # below about 1e-154 a term's square underflows: the total once read 0.0
        # beside a wind term of 5.8e-307 (constants.pressure: 1e-300)
        total, wind_term, ime_term = flux_uncertainty(100.0 * scale, 3.0 * scale, 50.0, 1.5, 0.3)
        assert wind_term > 0 and ime_term > 0
        assert total == math.hypot(wind_term, ime_term) >= max(wind_term, ime_term)


class TestQuantifyRecord:
    def test_report_identities(self):
        record = quantify(820.91, 19.82, 2_569_892.0, WindConfig(u10=3.0))
        assert record.flux_t_per_h == pytest.approx(
            3.6 * record.u_eff_m_per_s * record.ime_kg / record.length_m, rel=1e-15
        )
        assert record.flux_kg_per_s == pytest.approx(record.flux_t_per_h / 3.6, rel=1e-15)
        assert record.sigma_flux_t_per_h**2 == pytest.approx(
            record.sigma_flux_wind_t_per_h**2 + record.sigma_flux_ime_t_per_h**2, rel=1e-12
        )
        assert any("independence" in a for a in record.assumptions)

    @pytest.mark.parametrize("wind", [WindConfig(u10=0.5), WindConfig(u10=0.2), WindConfig(u10=3.0, beta1=-1.0),
                                      WindConfig(u10=1.0, beta0=0.0)])
    def test_non_positive_effective_wind_is_a_config_error(self, wind):
        # effective_wind still returns the value; quantify refuses the flux it would give
        assert not effective_wind(wind)[0] > 0
        with pytest.raises(ConfigError, match=r"wind.u10, wind.beta0 and wind.beta1 give U_eff"):
            quantify(700.0, 2.0, 90_000.0, wind)

    @pytest.mark.parametrize("ime,sigma_ime", [(1e306, 1.0), (700.0, 1e306), (math.inf, None)])
    def test_a_quantity_past_the_float_range_is_a_domain_error(self, ime, sigma_ime):
        # the squares of the flux uncertainty overflow, or the IME itself is infinite
        with pytest.raises(DomainError, match="not finite .*constants"):
            quantify(ime, sigma_ime, 90_000.0, WindConfig(u10=3.0))

    def test_missing_sigma_ime_flagged(self):
        record = quantify(100.0, None, 10_000.0, WindConfig(u10=2.0))
        assert record.sigma_flux_t_per_h is None
        assert any("unavailable" in a for a in record.assumptions)

    def test_gsd_doubling_property(self):
        # doubled GSD with the same pixel count: area x4, L x2, IME x4, Q x2
        f = ppmm_to_kg_per_m2(GasConstants())
        n_px, dx_sum = 100, 1000.0 * 100
        for gsd, factor in ((30.0, 1.0), (60.0, 2.0)):
            ime = f * gsd * gsd * dx_sum
            area = n_px * gsd * gsd
            record = quantify(ime, None, area, WindConfig(u10=3.0))
            if gsd == 30.0:
                base = record.flux_t_per_h
            else:
                assert record.flux_t_per_h == pytest.approx(2.0 * base, rel=1e-12)

    def test_halving_pressure_halves_flux_exactly(self):
        f1 = ppmm_to_kg_per_m2(GasConstants())
        f2 = ppmm_to_kg_per_m2(GasConstants(pressure=101_325.0 / 2))
        assert f2 == f1 / 2
        r1 = quantify(f1 * 900 * 1e5, None, 90_000.0, WindConfig(u10=3.0))
        r2 = quantify(f2 * 900 * 1e5, None, 90_000.0, WindConfig(u10=3.0))
        assert r2.flux_t_per_h == r1.flux_t_per_h / 2
