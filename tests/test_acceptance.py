"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json

import numpy as np
import pytest
import scipy.ndimage
import yaml

import plumeflux as pf
from plumeflux.background import total_sigma
from plumeflux.config import load_config
from plumeflux.matched_filter import MfConfig, apply_mf, compute_stats
from plumeflux.pipeline import quantify_only, run_pipeline
from plumeflux.scene_io import write_cube
from plumeflux.segmentation import (
    SegmentationParams,
    connected_components,
    morphology,
    radius_to_pixels,
    segment_field,
)

from conftest import make_cube, random_spd
from test_matched_filter import make_absorption, random_cube

WINDOW = (2100.0, 2450.0)


def passed(num: int, desc: str) -> None:
    print(f"[criterion {num:02d}] PASS  {desc}")


def closed_loop_scene(seed, lines=96, samples=96, noise=False, peak=900.0, center=None):
    center = center if center is not None else (lines // 2, samples // 2)
    spec = pf.SyntheticPlumeSpec(
        center=center, peak_delta_x=peak, sigma_along_m=60.0, sigma_across_m=60.0
    )
    params = pf.SimParams(
        lines=lines,
        samples=samples,
        noise_a=4e-5 if noise else None,
        noise_c=1e-4 if noise else None,
        plume=spec,
        seed=seed,
    )
    return pf.simulate_scene(params)


def test_criterion_01_prisma_main_plume():
    out = quantify_only(820.91, 19.82, 2_569_892.0, pf.WindConfig(u10=3.0, sigma_u10=1.0))
    assert out["flux_t_per_h"] == pytest.approx(3.34, rel=0.015)
    assert out["sigma_flux_t_per_h"] == pytest.approx(0.69, rel=0.03)
    passed(1, f"main plume reproduction: {out['flux_t_per_h']:.3f} +/- {out['sigma_flux_t_per_h']:.3f} t/h")


def test_criterion_02_prisma_secondary_plume():
    out = quantify_only(504.53, 15.00, 2_040_000.0, pf.WindConfig(u10=3.0, sigma_u10=1.0))
    assert out["flux_t_per_h"] == pytest.approx(2.30, rel=0.015)
    assert out["sigma_flux_t_per_h"] == pytest.approx(0.48, rel=0.03)
    passed(2, f"secondary plume reproduction: {out['flux_t_per_h']:.3f} +/- {out['sigma_flux_t_per_h']:.3f} t/h")


def test_criterion_03_enmap_reproduction():
    wind = dict(u10=2.68, sigma_u10=1.0)
    analytic = quantify_only(
        98_858.52, 481.67, 65_378_710.51, pf.WindConfig(**wind, sigma_method="analytic")
    )
    fd = quantify_only(
        98_858.52, 481.67, 65_378_710.51, pf.WindConfig(**wind, sigma_method="forward_difference")
    )
    assert analytic["flux_t_per_h"] == pytest.approx(74.02, rel=0.01)
    for out in (analytic, fd):
        assert 15.3 <= out["sigma_flux_t_per_h"] <= 18.2
    passed(
        3,
        "flux {:.2f} t/h; sigma {:.2f} (analytic) / {:.2f} (forward-difference) t/h".format(
            analytic["flux_t_per_h"], analytic["sigma_flux_t_per_h"], fd["sigma_flux_t_per_h"]
        ),
    )


def test_criterion_04_tanager_reproduction():
    out = quantify_only(
        6_601.64,
        38.81,
        18_862_057.0,
        pf.WindConfig(u10=2.5, sigma_u10=1.0, sigma_method="forward_difference"),
    )
    assert out["flux_t_per_h"] == pytest.approx(8.89, rel=0.02)
    assert out["sigma_flux_wind_t_per_h"] == pytest.approx(2.02, rel=0.02)
    assert out["sigma_flux_t_per_h"] == pytest.approx(2.03, rel=0.02)
    passed(4, f"flux {out['flux_t_per_h']:.3f} +/- {out['sigma_flux_t_per_h']:.3f} t/h (wind {out['sigma_flux_wind_t_per_h']:.3f})")


def test_criterion_05_effective_gsd_backouts():
    cases = [
        (18_862_057.0, 17_520, 32.81),
        (65_378_710.51, 65_308, 31.64),
        (2_569_892.0, 2_855, 30.00),
    ]
    values = []
    for area, pixels, expected in cases:
        got = pf.effective_gsd(area, pixels)
        assert got == pytest.approx(expected, abs=0.01)
        values.append(got)
    passed(5, "effective GSD back-outs: " + ", ".join(f"{v:.2f} m" for v in values))


def test_criterion_06_mf_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(5, 41))
        lines = 6
        samples = (p + 2) // lines + 2
        cov_true = random_spd(rng, p, scale=0.01)
        mean = rng.uniform(5.0, 20.0, size=p)
        chol = np.linalg.cholesky(cov_true)
        pixels = np.abs(mean + rng.standard_normal((lines * samples, p)) @ chol.T) + 0.1
        cube = make_cube(np.ascontiguousarray(pixels.T.reshape(p, lines, samples)))
        absorption = make_absorption(p, rng=rng)
        config = MfConfig(
            variant="cmf", shrinkage=float(rng.uniform(0, 0.3)), contamination_iterations=0
        )
        stats = compute_stats(cube, absorption, config)
        field = apply_mf(cube, absorption, config, stats=stats)
        # independent GLS oracle: explicit inverse, scalar minimizer per pixel
        inv = np.linalg.inv(stats.cov[0])
        t = stats.t[0]
        denom = t @ inv @ t
        oracle = (pixels - stats.mu[0]) @ (inv @ t) / denom
        rel = np.abs(field.delta_x.ravel() - oracle) / np.maximum(np.abs(oracle), 1e-30)
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-10
        # exact recovery: a pixel placed at mu + c*t comes back as exactly c
        for c in (-1e3, 1.0, 1e4):
            data = cube.data.copy()
            data[:, 0, 0] = stats.mu[0] + c * t
            probe = make_cube(data, descriptor=cube.descriptor)
            probed = apply_mf(probe, absorption, config, stats=stats)
            assert probed.delta_x[0, 0] == pytest.approx(c, rel=1e-9)
    passed(6, f"apply_mf equals the GLS oracle over 50 scenes (worst rel dev {worst:.2e}); exact recovery at c in {{-1e3, 1, 1e4}}")


def test_criterion_07_variant_degeneracies():
    rng = np.random.default_rng(707)
    for _ in range(5):
        cube = random_cube(rng, n_bands=6, lines=14, samples=9)
        absorption = make_absorption(6, rng=rng)
        f_cmf = apply_mf(cube, absorption, MfConfig(variant="cmf", contamination_iterations=0))
        f_ctmf = apply_mf(
            cube, absorption, MfConfig(variant="ctmf", cluster_count=1, contamination_iterations=0)
        )
        np.testing.assert_allclose(f_ctmf.delta_x, f_cmf.delta_x, rtol=1e-12, atol=0)
        column = random_cube(rng, n_bands=5, lines=25, samples=1)
        absorption1 = make_absorption(5, rng=rng)
        f1 = apply_mf(column, absorption1, MfConfig(variant="cmf", contamination_iterations=0))
        f2 = apply_mf(column, absorption1, MfConfig(variant="cwcmf", contamination_iterations=0))
        np.testing.assert_allclose(f2.delta_x, f1.delta_x, rtol=1e-12, atol=0)
    passed(7, "CTMF(K=1) == CMF and single-column CWCMF == CMF to 1e-12 on random scenes")


def test_criterion_08_noise_propagation_identities():
    rng = np.random.default_rng(808)
    for _ in range(20):
        p = int(rng.integers(3, 12))
        cov = random_spd(rng, p)
        t = rng.standard_normal(p)
        q = np.linalg.solve(cov, t)
        denom = t @ q
        var = (q @ cov @ q) / denom**2
        assert var == pytest.approx(1.0 / denom, rel=1e-12)
    from plumeflux import kernels

    q = np.array([[0.25, 1.0]])
    var = kernels.noise_variance(
        np.array([[5.0], [5.0]]), np.zeros(1, dtype=np.int64), np.zeros(2), np.ones(2),
        q, np.array([1.25]),
    )
    assert var[0] == pytest.approx(0.68, rel=1e-12)
    passed(8, "Cn == Sigma collapses to a-posteriori precision; diagonal hand case = 0.68")


def test_criterion_09_closed_loop_zero_noise(tmp_path):
    cube, truth = closed_loop_scene(seed=3, lines=160, samples=160, center=(80, 80))
    table = pf.load_bundled_table()
    absorption = pf.band_absorption(table, cube.descriptor, WINDOW)
    assert absorption.k_band.max() * 900.0 <= 0.02  # thin-plume regime
    config = MfConfig(variant="cmf", shrinkage=0.0, contamination_iterations=1)
    field, _ = pf.retrieve(cube, absorption, config)
    pointwise = np.abs(field.delta_x - truth.delta_x_true)[truth.mask] / 900.0
    assert pointwise.max() <= 0.02
    ime_ret, _ = pf.integrate_ime(field, truth.mask)
    assert ime_ret == pytest.approx(truth.ime_true_kg, rel=0.03)

    write_cube(cube, tmp_path / "cube")
    (tmp_path / "run.yaml").write_text(
        yaml.safe_dump(
            {
                "seed": 3,
                "input": {"cube": str(tmp_path / "cube")},
                "mf": {"variant": "cmf", "shrinkage": 0.0},
                "wind": {"u10": 3.0, "sigma_u10": 1.0},
            }
        )
    )
    report = run_pipeline(load_config(tmp_path / "run.yaml"), tmp_path / "out")
    assert report["plume_count"] == 1
    plume = report["plumes"][0]
    flux_implied = 3.6 * plume["u_eff_m_per_s"] * truth.ime_true_kg / plume["length_m"]
    assert plume["flux_t_per_h"] == pytest.approx(flux_implied, rel=0.10)
    passed(
        9,
        "zero-noise closed loop: pointwise {:.2%} of peak, IME {:.2%}, flux {:.2%} from implied".format(
            pointwise.max(),
            abs(ime_ret / truth.ime_true_kg - 1),
            abs(plume["flux_t_per_h"] / flux_implied - 1),
        ),
    )


def test_criterion_10_closed_loop_with_noise():
    table = pf.load_bundled_table()
    config = MfConfig(variant="cmf", shrinkage=0.0, contamination_iterations=1)
    hits = 0
    std_ratios = []
    for seed in range(20):
        cube, truth = closed_loop_scene(seed=100 + seed, noise=True)
        absorption = pf.band_absorption(table, cube.descriptor, WINDOW)
        field, _ = pf.retrieve(cube, absorption, config)
        field = field.replace(sigma_total=total_sigma(field.sigma_noise, 0.0))
        ime_ret, sigma_ime = pf.integrate_ime(field, truth.mask)
        if abs(ime_ret - truth.ime_true_kg) <= 2.0 * sigma_ime:
            hits += 1
        plume_free = ~scipy.ndimage.binary_dilation(truth.mask, iterations=6)
        std_bg = float(field.delta_x[plume_free].std())
        rms_prop = float(np.sqrt((field.sigma_noise[plume_free] ** 2).mean()))
        std_ratios.append(std_bg / rms_prop)
    assert hits >= 17
    assert all(abs(r - 1.0) <= 0.10 for r in std_ratios)
    passed(
        10,
        "noisy closed loop: truth IME within 2 sigma in {}/20 runs; "
        "background std / propagated sigma in [{:.3f}, {:.3f}]".format(
            hits, min(std_ratios), max(std_ratios)
        ),
    )


def test_criterion_11_segmentation_invariants():
    rng = np.random.default_rng(1111)
    # affine invariance of masks
    values = rng.standard_normal((30, 30)) * 50
    values[8:14, 8:14] += 600.0
    field1 = pf.EnhancementField(delta_x=values, gsd=30.0)
    field2 = pf.EnhancementField(delta_x=2.5 * values + 11.0, gsd=30.0)
    params = SegmentationParams(min_area_m2=0.0)
    p1, _ = segment_field(field1, params)
    p2, _ = segment_field(field2, params)
    assert p1 and [(p.label_id, p.window, p.mask.tobytes()) for p in p1] == [
        (p.label_id, p.window, p.mask.tobytes()) for p in p2
    ]
    # exact shoelace identity on random masks
    for _ in range(20):
        mask = rng.random((15, 15)) > 0.5
        for plume in connected_components(mask, 30.0):
            assert plume.shoelace_area_m2() == plume.pixel_count * 900.0
    # morphology idempotence
    for _ in range(10):
        mask = rng.random((20, 20)) > 0.55
        for p in (
            SegmentationParams(close_radius_m=60.0, open_radius_m=0.0),
            SegmentationParams(close_radius_m=0.0, open_radius_m=60.0),
        ):
            once = morphology(mask, p, 30.0)
            np.testing.assert_array_equal(morphology(once, p, 30.0), once)
    # metric -> pixel rescale examples
    assert radius_to_pixels(60.0, 30.0) == 2
    assert radius_to_pixels(60.0, 31.64) == 2
    passed(11, "affine-invariant masks, exact shoelace areas, idempotent morphology, metric rescale")


def test_criterion_12_determinism(tmp_path):
    cube, _ = closed_loop_scene(seed=12, noise=True)
    write_cube(cube, tmp_path / "cube")
    (tmp_path / "run.yaml").write_text(
        yaml.safe_dump(
            {
                "seed": 12,
                "input": {"cube": str(tmp_path / "cube")},
                "mf": {"variant": "ctmf", "cluster_count": 3},
                "wind": {"u10": 3.0},
            }
        )
    )
    cfg = load_config(tmp_path / "run.yaml")
    r1 = run_pipeline(cfg, tmp_path / "a")
    r2 = run_pipeline(cfg, tmp_path / "b")
    for stem in ("enhancement", "sigma_noise", "sigma_total", "plume_mask"):
        assert (tmp_path / "a" / f"{stem}.bin").read_bytes() == (
            tmp_path / "b" / f"{stem}.bin"
        ).read_bytes()
    d1, d2 = dict(r1), dict(r2)
    d1.pop("timings_s"), d2.pop("timings_s")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    passed(12, "identical config + seed: bit-identical rasters, identical report minus timings")


def test_criterion_13_quadrature_and_units():
    rng = np.random.default_rng(1313)
    for _ in range(200):
        total, wind_term, ime_term = pf.flux_uncertainty(
            float(rng.uniform(10, 1e5)),
            float(rng.uniform(0, 1e3)),
            float(rng.uniform(100, 1e4)),
            float(rng.uniform(0.5, 5.0)),
            float(rng.uniform(0, 2.0)),
        )
        assert total**2 == pytest.approx(wind_term**2 + ime_term**2, rel=1e-12)
    # halving pressure halves IME and flux exactly
    f_full = pf.ppmm_to_kg_per_m2(pf.GasConstants())
    f_half = pf.ppmm_to_kg_per_m2(pf.GasConstants(pressure=101_325.0 / 2))
    assert f_half == f_full / 2
    values = np.full((10, 10), 777.0)
    mask = np.ones((10, 10), dtype=bool)
    ime_full, _ = pf.integrate_ime(pf.EnhancementField(delta_x=values, gsd=30.0), mask)
    ime_half, _ = pf.integrate_ime(
        pf.EnhancementField(delta_x=values, gsd=30.0), mask, pf.GasConstants(pressure=101_325.0 / 2)
    )
    assert ime_half == ime_full / 2
    assert pf.flux(ime_half, 300.0, 1.7) == pf.flux(ime_full, 300.0, 1.7) / 2
    # conversion factor vs ideal-gas oracle, 4 significant digits
    molar_volume = 8.314462618 * 273.15 / 101_325.0
    oracle = 1e-6 / molar_volume * 0.016043
    assert f_full == pytest.approx(oracle, rel=1e-12)
    assert f_full == pytest.approx(7.1577e-7, rel=5e-5)
    passed(13, f"quadrature exact on 200 random budgets; pressure halving exact; f = {f_full:.5g} kg/m^2/ppm*m")
