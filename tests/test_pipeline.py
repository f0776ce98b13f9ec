import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml

import plumeflux as pf
from plumeflux import pipeline
from plumeflux.cli import main
from plumeflux.config import BackgroundParams, RunConfig, default_config_yaml, load_config
from plumeflux.errors import ConfigError
from plumeflux.pipeline import (
    StageResult,
    match_plumes_across_runs,
    run_multi,
    run_pipeline,
    write_plumes,
)
from plumeflux.scene_io import NODATA, EnhancementField, read_raster, write_cube, write_raster
from plumeflux.segmentation import connected_components

from conftest import deadline


def stage_of(mask):
    """A stage result holding ``mask``'s plumes and their label raster."""
    plumes = connected_components(mask, 30.0)
    labels = np.zeros(mask.shape)
    for p in plumes:
        labels[p.window][p.mask] = p.label_id
    return StageResult(report={}, plumes=plumes, labels=labels)


def write_scene(tmp_path, seed=5, noise=True, gains=0.0, peak=900.0):
    spec = pf.SyntheticPlumeSpec(
        center=(48, 48), peak_delta_x=peak, sigma_along_m=60.0, sigma_across_m=60.0
    )
    params = pf.SimParams(
        lines=96,
        samples=96,
        noise_a=4e-5 if noise else None,
        noise_c=1e-4 if noise else None,
        plume=spec,
        column_gain_amplitude=gains,
        seed=seed,
    )
    cube, truth = pf.simulate_scene(params)
    write_cube(cube, tmp_path / "cube")
    return cube, truth


def write_config(tmp_path, name="run.yaml", **overrides):
    doc = {
        "seed": 5,
        "input": {"cube": str(tmp_path / "cube")},
        "mf": {"variant": "cmf", "shrinkage": 0.0},
        "wind": {"u10": 3.0, "sigma_u10": 1.0},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def strip_timings(report):
    out = json.loads(json.dumps(report))
    out.pop("timings_s", None)
    for sub in out.get("runs", []):
        sub.pop("timings_s", None)
    return out


def schema_float_keys(cls=RunConfig, section=None):
    """(section, key, type hint) of each float, ``Optional[float]`` or float-tuple key, read from the schema."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        inner = hints[f.name]
        while args := [a for a in typing.get_args(inner) if a not in (type(None), Ellipsis)]:
            inner = args[0]  # Optional[X] and tuple[X, ...] hold X
        name = f.name if section is None else f"{section}.{f.name}"
        if dataclasses.is_dataclass(inner):
            yield from schema_float_keys(inner, name)
        elif inner is float and section is not None:
            yield section, f.name, hints[f.name]


# input.gsd is exempt: it overrides the raster header's GSD, so a bad value is a
# data error (exit 3) raised where the raster is read, as TestPipelineLevel2 pins
FLOAT_KEYS = [k for k in schema_float_keys() if k[:2] != ("input", "gsd")]
# keys with no default, which a section must set to be built at all
REQUIRED_KEYS = {"wind": {"u10": 3.0}, "simulate.plume": {"peak_delta_x": 900.0}}


class TestConfig:
    def test_dotted_input_name_keeps_its_suffix(self, tmp_path):
        cfg = load_config(write_config(tmp_path, input={"enhancement": str(tmp_path / "scene.v1")}))
        assert cfg.input.enhancement == tmp_path / "scene.v1"

    def test_dump_defaults_parses_and_lists_all_knobs(self):
        doc = yaml.safe_load(default_config_yaml())
        assert doc["segmentation"] == {
            "n_sigma": 3.0,
            "close_radius_m": 60.0,
            "open_radius_m": 30.0,
            "min_area_m2": 10_000.0,
            "connectivity": 8,
        }
        assert doc["mf"][0]["shrinkage"] == 0.05
        assert doc["mf"][0]["contamination_iterations"] == 1
        assert doc["background"] == {"n_select": None, "buffer_m": 90.0, "min_sample": 100}
        assert doc["wind"]["beta0"] == 0.6 and doc["wind"]["beta1"] == 1.1
        assert doc["constants"]["molar_mass"] == 0.016043
        assert doc["absorption_table"] == "builtin"

    def test_dump_defaults_are_what_omitted_keys_get(self, tmp_path):
        # drop one key at a time from the dump: the loaded value must equal the
        # dumped one, or the key must be one the header names as an example
        text = default_config_yaml()
        dump = yaml.safe_load(text)
        header = "".join(line for line in text.splitlines(True) if line.startswith("#"))
        examples = {("wind", "u10"), ("simulate", "plume", "peak_delta_x")}

        def leaves(node, key=()):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield from leaves(v, key + (k,))
            elif key == ("mf",):
                yield from leaves(node[0], key + (0,))
            else:
                yield key, node

        def lookup(obj, key):
            for part in key:
                obj = obj[part] if isinstance(part, int) else getattr(obj, part)
            return list(obj) if isinstance(obj, tuple) else obj

        keys = list(leaves(dump))
        assert len(keys) == 49
        for key, dumped in keys:
            doc = copy.deepcopy(dump)
            parent = doc
            for part in key[:-1]:
                parent = parent[part]
            del parent[key[-1]]
            path = tmp_path / "run.yaml"
            path.write_text(yaml.safe_dump(doc))
            if key in examples:
                with pytest.raises(ConfigError, match=f"'{key[-1]}' is required"):
                    load_config(path)
            else:
                assert lookup(load_config(path), key) == dumped, key
        assert all(".".join(key) in header for key in examples)

    def test_plume_without_peak_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"simulate": {"plume": {"center": [10, 10]}}}))
        with pytest.raises(ConfigError, match="simulate.plume: 'peak_delta_x' is required"):
            load_config(path)

    def test_three_value_window_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"mf": {"window": [2100, 2300, 2450]}}))
        with pytest.raises(ConfigError, match="mf.window: expected 2 values, got 3"):
            load_config(path)

    @pytest.mark.parametrize(
        "text,key",
        [
            ("segmentation: {n_sigma: abc}", "segmentation.n_sigma"),
            ("mf: [{window: 2100}]", "mf.window"),
            ("wind: {u10: [1, 2]}", "wind.u10"),
            ("simulate: {plume: 5}", "simulate.plume"),
            ("segmentation: [1]", "segmentation"),
            ("seed: abc", "seed"),
            ("segmentation: {connectivity: 8.9}", "segmentation.connectivity"),
            ("segmentation: {connectivity: true}", "segmentation.connectivity"),
            ("wind: {u10: true}", "wind.u10"),
            ("segmentation: {n_sigma: false}", "segmentation.n_sigma"),
            ("mf: [{delta_min: true}]", "mf.delta_min"),
            ("mf: [{cluster_count: .inf}]", "mf.cluster_count"),
            ("seed: 1.5", "seed"),
        ],
    )
    def test_wrong_value_type_is_a_config_error(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.yaml"
        path.write_text(text + "\n")
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        assert f"error: {key}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n_select", 0),
            ("n_select", -5),
            ("buffer_m", -10.0),
            ("buffer_m", float("nan")),
            ("buffer_m", float("inf")),
            ("min_sample", -3),
        ],
    )
    def test_out_of_range_background_value_is_a_config_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"background": {key: value}}))
        assert main(["pipeline", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        assert f"error: background.{key} must be" in capsys.readouterr().err

    @staticmethod
    def rejects(tmp_path, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("section,key,hint", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k, _ in FLOAT_KEYS])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_every_float_key_must_be_finite(self, tmp_path, section, key, hint, value):
        # a fixed-length tuple gets the value in every place, any other tuple one item
        args = typing.get_args(hint)
        if typing.get_origin(hint) is tuple:
            value = [value] * (1 if args[-1] is Ellipsis else len(args))
        doc = {}
        node = doc
        for part in section.split("."):
            node = node.setdefault(part, {})
        node.update(REQUIRED_KEYS.get(section, {}), **{key: value})
        self.rejects(tmp_path, yaml.safe_dump(doc), f"{section}.{key} must be finite")

    @pytest.mark.parametrize("value", [".nan", ".inf", "-1"])
    def test_delta_min_is_unset_or_finite_and_non_negative(self, tmp_path, value):
        message = "mf.delta_min must be non-negative" if value == "-1" else "mf.delta_min must be finite"
        self.rejects(tmp_path, f"mf: {{delta_min: {value}}}", message)
        path = tmp_path / "run.yaml"
        for text, expected in (("mf: {delta_min: 0}", 0.0), ("mf: {delta_min: null}", None)):
            path.write_text(text + "\n")
            assert load_config(path).mf[0].delta_min == expected

    @pytest.mark.parametrize("text", ["segmentation: {n_sigma: .nan}", "constants: {temperature: .nan}",
                                      "mf: {delta_min: .nan}"])
    def test_cli_rejects_a_yaml_nan(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text + "\n")
        assert main(["pipeline", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {text.split(':')[0]}." in err and "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["center", "peak_delta_x", "sigma_along_m", "sigma_across_m",
                                     "orientation_rad"])
    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_plume_value_is_a_config_error(self, tmp_path, key, value):
        # peak_delta_x has no default; center takes one non-finite entry
        plume = {"peak_delta_x": "900.0", key: f"[48, {value}]" if key == "center" else value}
        text = ", ".join(f"{k}: {v}" for k, v in plume.items())
        self.rejects(tmp_path, f"simulate: {{plume: {{{text}}}}}", f"simulate.plume.{key} must be finite")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("simulate: {plume: {peak_delta_x: -1.0}}",
             "simulate.plume.peak_delta_x must be non-negative"),
            ("simulate: {plume: {peak_delta_x: 900.0, sigma_along_m: 0.0}}",
             "simulate.plume.sigma_along_m must be positive"),
            ("simulate: {plume: {peak_delta_x: 900.0, sigma_across_m: -5.0}}",
             "simulate.plume.sigma_across_m must be positive"),
            ("simulate: {plume: {peak_delta_x: 900.0, truth_mask_fraction: .nan}}",
             "simulate.plume.truth_mask_fraction must be finite"),
            ("simulate: {plume: {peak_delta_x: 900.0, truth_mask_fraction: 1.0}}",
             "simulate.plume.truth_mask_fraction must be in (0, 1)"),
            ("simulate: {plume: {peak_delta_x: 900.0, center: [500, 48]}}",
             "simulate.plume.center (500.0, 48.0) is outside the 96x96 scene"),
            ("simulate: {samples: 40, plume: {peak_delta_x: 900.0, center: [48, 40]}}",
             "simulate.plume.center (48.0, 40.0) is outside the 96x40 scene"),
            ("simulate: {lines: 0}", "simulate.lines must be >= 1"),
            ("simulate: {samples: 0}", "simulate.samples must be >= 1"),
            ("simulate: {n_bands: 1}", "simulate.n_bands must be >= 2"),
            ("simulate: {band_start_nm: 2500.0}",
             "simulate.band_start_nm must be below simulate.band_stop_nm"),
            ("simulate: {band_stop_nm: 2100.0}",
             "simulate.band_start_nm must be below simulate.band_stop_nm"),
            ("simulate: {fwhm_nm: -1.0}", "simulate.fwhm_nm must be positive"),
            ("simulate: {gsd_m: 0.0}", "simulate.gsd_m must be positive"),
            ("simulate: {noise_a: -1.0}", "simulate.noise_a must be non-negative"),
            ("simulate: {noise_c: -1.0}", "simulate.noise_c must be non-negative"),
            ("mf: {window: [2100, .inf]}", "mf.window must be finite"),
            ("mf: {window: [-.inf, 2450]}", "mf.window must be finite"),
            ("mf: {window: [.nan, 2450]}", "mf.window must be finite"),
            ("mf: {window: [2450, 2100]}", "mf.window must be (low, high) with low < high"),
            ("mf: {cluster_count: 0}", "mf.cluster_count must be >= 1"),
            ("mf: {shrinkage: 1.0}", "mf.shrinkage must be in [0, 1)"),
            ("mf: {contamination_iterations: -1}", "mf.contamination_iterations must be >= 0"),
            ("mf: {variant: foo}", "mf.variant must be one of cmf, ctmf, cwcmf; got 'foo'"),
            ("segmentation: {n_sigma: 0.0}", "segmentation.n_sigma must be positive"),
            ("segmentation: {close_radius_m: -1.0}", "segmentation.close_radius_m must be non-negative"),
            ("segmentation: {open_radius_m: -1.0}", "segmentation.open_radius_m must be non-negative"),
            ("segmentation: {min_area_m2: -1.0}", "segmentation.min_area_m2 must be non-negative"),
            ("segmentation: {connectivity: 6}", "segmentation.connectivity must be 4 or 8"),
            ("wind: {u10: 0.0}", "wind.u10 must be positive"),
            ("wind: {u10: .nan}", "wind.u10 must be finite"),
            ("wind: {u10: 3.0, sigma_u10: .inf}", "wind.sigma_u10 must be finite"),
            ("wind: {u10: 3.0, beta0: .nan}", "wind.beta0 must be finite"),
            ("wind: {u10: 3.0, beta1: -.inf}", "wind.beta1 must be finite"),
            ("wind: {u10: 3.0, sigma_u10: -1.0}", "wind.sigma_u10 must be non-negative"),
            ("wind: {u10: 3.0, sigma_method: foo}",
             "wind.sigma_method must be one of analytic, forward_difference"),
            ("constants: {molar_mass: -1.0}", "constants.molar_mass must be non-negative"),
            ("constants: {temperature: 0.0}", "constants.temperature must be positive"),
            ("constants: {pressure: -1.0}", "constants.pressure must be positive"),
            ("constants: {gas_constant: 0.0}", "constants.gas_constant must be positive"),
        ],
    )
    def test_out_of_range_value_is_a_config_error(self, tmp_path, text, message):
        self.rejects(tmp_path, text, message)

    def test_negative_mixing_smoothness_loads(self, tmp_path):
        # a negative blur radius blurs as 0 does
        path = tmp_path / "run.yaml"
        path.write_text("simulate: {mixing_smoothness_px: -1}\n")
        assert load_config(path).simulate.mixing_smoothness_px == -1

    @pytest.mark.parametrize("key", ["endmember_levels", "endmember_tilts"])
    def test_non_finite_endmember_value_is_a_config_error(self, tmp_path, key):
        self.rejects(tmp_path, f"simulate: {{{key}: [1.0, -.inf]}}", f"simulate.{key} must be finite")

    def test_cli_simulate_rejects_a_yaml_nan_and_writes_no_cube(self, tmp_path, capsys):
        # a nan band start used to give a cube of nan wavelengths, which pipeline refused
        path = tmp_path / "bad.yaml"
        path.write_text("simulate: {band_start_nm: .nan}\n")
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: simulate.band_start_nm must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scene", [
        f"lines: {'9' * 400}",  # these two ended in numpy's "Maximum allowed dimension exceeded"
        f"n_bands: {'9' * 400}",
        "lines: 1000000000, samples: 500000000, n_bands: 2, endmember_levels: [1.0, 2.0, 3.0]",  # "array is too big"
    ])
    def test_a_scene_no_array_can_hold_is_a_config_error(self, tmp_path, capsys, scene):
        path = tmp_path / "big.yaml"
        path.write_text(f"simulate: {{{scene}}}\n")
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: simulate: lines x samples x max(n_bands, endmembers) ")

    def test_a_scene_too_large_for_memory_exits_3(self, tmp_path, capsys):
        # 36 x 1e8 x 1e8 float64 values are 2.9e18 bytes, whose allocation fails at once
        path = tmp_path / "big.yaml"
        path.write_text("simulate: {lines: 100000000, samples: 100000000}\n")
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()  # the writers make it, and none ran

    def test_background_range_ends_load(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"background": {"n_select": 1, "buffer_m": 0, "min_sample": 0}}))
        assert load_config(path).background == BackgroundParams(n_select=1, buffer_m=0.0, min_sample=0)

    def test_integral_float_loads_as_int(self, tmp_path):
        path = tmp_path / "run.yaml"
        for value in ("8", "8.0"):
            path.write_text(f"segmentation: {{connectivity: {value}}}\n")
            connectivity = load_config(path).segmentation.connectivity
            assert connectivity == 8 and type(connectivity) is int

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("inputt:\n  cube: x\n")
        with pytest.raises(ConfigError, match="inputt"):
            load_config(path)

    def test_both_input_modes_rejected(self, tmp_path):
        (tmp_path / "cube.hdr").write_text("")
        (tmp_path / "enh.hdr").write_text("")
        path = tmp_path / "bad.yaml"
        path.write_text(
            yaml.safe_dump({"input": {"cube": "cube", "enhancement": "enh"}})
        )
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_missing_file_names_the_key(self, tmp_path):
        cfg = load_config(write_config(tmp_path))  # cube file never written; the config loads
        with pytest.raises(ConfigError, match="input.cube"):
            pipeline.run_inputs(cfg, tmp_path / "out", cfg.mf)

    @pytest.mark.parametrize("key", ["input.enhancement", "input.sigma", "absorption_table"])
    def test_each_missing_input_names_its_key(self, tmp_path, capsys, key):
        write_raster(np.zeros((4, 4)), tmp_path / "enh", 30.0)
        doc = {"input": {"enhancement": str(tmp_path / "enh"), "sigma": str(tmp_path / "enh")}}
        section, _, name = key.rpartition(".")
        (doc[section] if section else doc)[name] = "missing"
        cfg_path = write_config(tmp_path, **doc)
        assert main(["pipeline", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 2
        assert f"config key '{key}' references a missing file" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        write_scene(tmp_path, seed=5)
        cfg = load_config(write_config(tmp_path), seed_override=99)
        assert cfg.seed == 99
        assert all(m.seed == 99 for m in cfg.mf)

    def test_relative_paths_resolve_against_config(self, tmp_path):
        write_scene(tmp_path, seed=5)
        path = write_config(tmp_path, input={"cube": "cube"})
        cfg = load_config(path)
        assert cfg.input.cube == tmp_path / "cube"


class TestPipelineLevel1:
    def test_closed_loop_single_plume(self, tmp_path):
        cube, truth = write_scene(tmp_path, seed=5)
        cfg = load_config(write_config(tmp_path))
        report = run_pipeline(cfg, tmp_path / "out")
        assert report["plume_count"] == 1
        plume = report["plumes"][0]
        assert plume["label_id"] == 1
        assert plume["sigma_ime_kg"] > 0
        # flux identity and quadrature identity hold on the printed values
        assert plume["flux_t_per_h"] == pytest.approx(
            3.6 * plume["u_eff_m_per_s"] * plume["ime_kg"] / plume["length_m"], rel=1e-12
        )
        assert plume["sigma_flux_t_per_h"] ** 2 == pytest.approx(
            plume["sigma_flux_wind_t_per_h"] ** 2 + plume["sigma_flux_ime_t_per_h"] ** 2,
            rel=1e-12,
        )
        assert plume["area_m2"] == plume["pixel_count"] * 900.0
        assert report["background"]["source"] == "matched"
        assert report["background"]["selected_count"] >= 100

    def test_no_background_candidate_falls_back_to_all_valid_pixels(self, tmp_path):
        # a buffer wider than the scene leaves no pixel to match
        write_scene(tmp_path, seed=5)
        rc = main(["pipeline", "--config", str(write_config(tmp_path, background={"buffer_m": 1.0e6})),
                   "--output", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rc == 0 and report["background"]["source"] == "all_valid"
        assert report["background"]["selected_count"] == 0
        assert "background matching failed (no candidates); using all valid pixels" in report["assumption_flags"]

    def test_plume_entry_keys_are_the_record_fields(self, tmp_path):
        write_scene(tmp_path, seed=5)
        run_pipeline(load_config(write_config(tmp_path)), tmp_path / "out")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        fields = {f.name for f in dataclasses.fields(pf.PlumeRecord)}
        assert report["plumes"] and all(set(p) == fields for p in report["plumes"])

    def test_outputs_written_and_consistent(self, tmp_path):
        write_scene(tmp_path, seed=5)
        cfg = load_config(write_config(tmp_path))
        report = run_pipeline(cfg, tmp_path / "out")
        for stem in ("enhancement", "sigma_noise", "sigma_total", "plume_mask"):
            assert (tmp_path / "out" / f"{stem}.hdr").exists()
            assert (tmp_path / "out" / f"{stem}.bin").exists()
        assert (tmp_path / "out" / "plumes.geojson").exists()
        # report numbers recomputable from the emitted rasters
        enh, enh_nodata, gsd, _ = read_raster(tmp_path / "out" / "enhancement")
        sig, _, _, _ = read_raster(tmp_path / "out" / "sigma_total")
        labels, _, _, _ = read_raster(tmp_path / "out" / "plume_mask")
        mask = labels == 1
        f = pf.ppmm_to_kg_per_m2(pf.GasConstants())
        ime = f * gsd * gsd * enh[mask].sum()
        sigma_ime = f * gsd * gsd * math.sqrt((sig[mask] ** 2).sum())
        plume = report["plumes"][0]
        assert ime == pytest.approx(plume["ime_kg"], rel=1e-12)
        assert sigma_ime == pytest.approx(plume["sigma_ime_kg"], rel=1e-12)
        geo = json.loads((tmp_path / "out" / "plumes.geojson").read_text())
        assert geo["features"][0]["properties"]["pixel_count"] == int(mask.sum())

    def test_determinism_bit_identical(self, tmp_path):
        write_scene(tmp_path, seed=5)
        cfg = load_config(write_config(tmp_path))
        r1 = run_pipeline(cfg, tmp_path / "out1")
        r2 = run_pipeline(cfg, tmp_path / "out2")
        assert strip_timings(r1) == strip_timings(r2)
        for stem in ("enhancement", "sigma_noise", "sigma_total", "plume_mask"):
            b1 = (tmp_path / "out1" / f"{stem}.bin").read_bytes()
            b2 = (tmp_path / "out2" / f"{stem}.bin").read_bytes()
            assert b1 == b2, stem

    def test_flat_scene_zero_plumes_exit_zero(self, tmp_path):
        params = pf.SimParams(lines=32, samples=32, seed=1)  # no plume, no noise
        cube, _ = pf.simulate_scene(params)
        write_cube(cube, tmp_path / "cube")
        cfg_path = write_config(tmp_path)
        rc = main(["pipeline", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["plume_count"] == 0
        assert report["plumes"] == []

    def test_a_cap_of_10_12_decontamination_rounds_ends_within_seconds(self, tmp_path):
        # the rounds stop once their fits repeat, with the outputs of a run that goes on
        spec = pf.SyntheticPlumeSpec(center=(24, 24), peak_delta_x=900.0, sigma_along_m=60.0, sigma_across_m=60.0)
        params = pf.SimParams(lines=48, samples=48, n_bands=24, noise_a=4e-5, noise_c=1e-4, plume=spec, seed=3)
        write_cube(pf.simulate_scene(params)[0], tmp_path / "cube")
        outputs = []
        for rounds in (10**12, 20):
            cfg = write_config(tmp_path, mf={"variant": "cwcmf", "contamination_iterations": rounds})
            with deadline(30):
                assert main(["pipeline", "--config", str(cfg), "--output", str(tmp_path / f"out_{rounds}")]) == 0
            out = tmp_path / f"out_{rounds}"
            report = strip_timings(json.loads((out / "report.json").read_text()))
            assert f"decon={rounds}" in report["provenance"]
            report["provenance"] = report["provenance"].replace(f"decon={rounds}", "decon=N")
            report["mf_label"] = report["mf_label"].replace(f"decon={rounds}", "decon=N")
            report["config"]["mf"][0]["contamination_iterations"] = None
            outputs.append([report] + [(out / name).read_bytes() for name in sorted(os.listdir(out))
                                       if name != "report.json"])
        assert outputs[0] == outputs[1]


class TestWindowOnlyRead:
    def wide_and_narrow(self, tmp_path):
        """A 2040-2560 nm scene, and the same scene cut to its 2100-2450 nm bands."""
        spec = pf.SyntheticPlumeSpec(
            center=(32, 32), peak_delta_x=900.0, sigma_along_m=60.0, sigma_across_m=60.0
        )
        params = pf.SimParams(
            lines=64,
            samples=64,
            band_start_nm=2040.0,
            band_stop_nm=2560.0,
            n_bands=53,
            noise_a=4e-5,
            noise_c=1e-4,
            plume=spec,
            column_gain_amplitude=0.02,
            seed=3,
        )
        cube, _ = pf.simulate_scene(params)
        d = cube.descriptor
        run = (d.band_centers >= 2100.0) & (d.band_centers <= 2450.0)
        names = ("band_centers", "band_fwhm", "noise_a", "noise_c")
        narrow = dataclasses.replace(d, **{n: getattr(d, n)[run] for n in names})
        for name, c in (("wide", cube), ("narrow", pf.RadianceCube(narrow, cube.data[run]))):
            (tmp_path / name).mkdir()
            write_cube(c, tmp_path / name / "cube")
        return run

    def test_wide_cube_gives_the_outputs_of_its_window_bands(self, tmp_path):
        self.wide_and_narrow(tmp_path)
        mf = [{"variant": "cwcmf"}, {"variant": "ctmf", "cluster_count": 4}]
        reports = {}
        for name in ("wide", "narrow"):
            cube = {"cube": str(tmp_path / name / "cube")}
            path = write_config(tmp_path / name, input=cube, mf=mf)
            report = strip_timings(run_multi(load_config(path), tmp_path / name / "out"))
            report.pop("config")
            reports[name] = report
        assert reports["wide"] == reports["narrow"]
        assert reports["wide"]["runs"][0]["plume_count"] >= 1
        out = tmp_path / "wide" / "out"
        files = sorted(p.relative_to(out) for p in out.rglob("*.*") if p.suffix != ".json")
        assert len(files) == 18
        for rel in files:
            assert (out / rel).read_bytes() == (tmp_path / "narrow" / "out" / rel).read_bytes(), rel

    def test_cube_holds_the_smallest_run_covering_every_window(self, tmp_path):
        run = self.wide_and_narrow(tmp_path)
        windows = [{"window": [2150.0, 2300.0]}, {"window": [2200.0, 2420.0]}]
        cfg = load_config(
            write_config(tmp_path, input={"cube": str(tmp_path / "wide" / "cube")}, mf=windows)
        )
        for mfs, (low, high) in ((cfg.mf, (2150.0, 2420.0)), (cfg.mf[:1], (2150.0, 2300.0))):
            cube = pipeline.run_inputs(cfg, tmp_path / "out", mfs)[1]
            centers = cube.descriptor.band_centers
            assert low <= centers[0] and centers[-1] <= high
            assert centers[0] - 10.0 < low and high < centers[-1] + 10.0  # 10 nm band spacing
            assert cube.data.dtype == np.float32
        assert run.sum() == 36


class TestPipelineLevel2:
    def test_non_finite_raster_exits_3(self, tmp_path, capsys):
        values = np.zeros((64, 64))
        values[10, 20] = np.nan
        write_raster(values, tmp_path / "enh", 30.0)
        cfg_path = write_config(tmp_path, input={"enhancement": str(tmp_path / "enh")})
        rc = main(["pipeline", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("gsd", ["inf", "nan"])
    def test_non_finite_gsd_exits_3(self, tmp_path, capsys, gsd):
        write_raster(np.zeros((20, 20)), tmp_path / "enh", 30.0)
        enh, l2 = str(tmp_path / "enh"), str(tmp_path / "l2")
        rc = main(["ingest-l2", "--enhancement", enh, "--gsd", gsd, "--output", l2])
        assert rc == 3 and "gsd" in capsys.readouterr().err
        assert not (tmp_path / "l2" / "ingest.json").exists()
        cfg_path = write_config(tmp_path, input={"enhancement": enh, "gsd": float(gsd)})
        assert f"gsd: .{gsd}" in cfg_path.read_text()
        rc = main(["pipeline", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
        assert rc == 3 and "gsd" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_overflowing_gsd_exits_3(self, tmp_path, capsys):
        # 20 x 20 pixels at 1e160 m cover 4e322 m², more than a float holds
        write_raster(np.zeros((20, 20)), tmp_path / "enh", 30.0)
        enh, l2 = str(tmp_path / "enh"), str(tmp_path / "l2")
        rc = main(["ingest-l2", "--enhancement", enh, "--gsd", "1e160", "--output", l2])
        assert rc == 3 and "gsd" in capsys.readouterr().err
        assert not (tmp_path / "l2" / "ingest.json").exists()
        assert main(["ingest-l2", "--enhancement", enh, "--gsd", "1e150", "--output", l2]) == 0

    def test_tiny_gsd_exits_3(self, tmp_path, capsys):
        # at 1e-200 m the minimum plume area is more pixels than a float holds
        write_raster(np.zeros((20, 20)), tmp_path / "enh", 30.0)
        cfg_path = write_config(tmp_path, input={"enhancement": str(tmp_path / "enh"), "gsd": 1e-200})
        rc = main(["pipeline", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
        assert rc == 3 and "finite number of pixels" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_all_zero_enhancement_empty_result(self, tmp_path):
        write_raster(np.zeros((20, 20)), tmp_path / "enh", 30.0)
        cfg_path = write_config(tmp_path, input={"enhancement": str(tmp_path / "enh")})
        rc = main(["pipeline", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["plume_count"] == 0
        assert report["input_mode"] == "level2"

    def test_external_sigma_flows_to_sigma_ime(self, tmp_path, rng):
        values = rng.standard_normal((40, 40)).astype(np.float32).astype(float) * 20
        values[15:25, 15:25] += 800.0
        sigma = np.full((40, 40), 25.0)
        write_raster(values, tmp_path / "enh", 30.0)
        write_raster(sigma, tmp_path / "sig", 30.0)
        cfg_path = write_config(
            tmp_path,
            input={"enhancement": str(tmp_path / "enh"), "sigma": str(tmp_path / "sig")},
            segmentation={"min_area_m2": 0.0},
        )
        report = run_pipeline(load_config(cfg_path), tmp_path / "out")
        assert report["plume_count"] >= 1
        plume = report["plumes"][0]
        f = pf.ppmm_to_kg_per_m2(pf.GasConstants())
        expected_sigma = f * 900.0 * 25.0 * math.sqrt(plume["pixel_count"])
        assert plume["sigma_ime_kg"] == pytest.approx(expected_sigma, rel=1e-6)
        assert any("verbatim" in f_ for f_ in report["assumption_flags"])

    def test_without_sigma_uncertainty_unavailable_not_zero(self, tmp_path, rng):
        values = rng.standard_normal((40, 40)) * 20
        values[15:25, 15:25] += 800.0
        write_raster(values, tmp_path / "enh", 30.0)
        cfg_path = write_config(
            tmp_path,
            input={"enhancement": str(tmp_path / "enh")},
            segmentation={"min_area_m2": 0.0},
        )
        report = run_pipeline(load_config(cfg_path), tmp_path / "out")
        plume = report["plumes"][0]
        assert plume["sigma_ime_kg"] is None
        assert plume["sigma_flux_ime_t_per_h"] is None
        assert plume["sigma_flux_t_per_h"] is None
        assert plume["sigma_flux_wind_t_per_h"] > 0
        assert any("unavailable" in a for a in plume["assumptions"])

    def test_config_and_level2_run_leave_unused_scipy_modules_unloaded(self, tmp_path, rng):
        # scipy.linalg serves the retrieval and scipy.ndimage the labelling only
        values = rng.standard_normal((40, 40)) * 20
        values[15:25, 15:25] += 800.0
        write_raster(values, tmp_path / "enh", 30.0)
        cfg_path = write_config(tmp_path, input={"enhancement": str(tmp_path / "enh")})
        script = "\n".join([
            "import sys",
            "from pathlib import Path",
            "import plumeflux",
            "from plumeflux.config import load_config",
            "from plumeflux.pipeline import run_pipeline",
            f"cfg = load_config({str(cfg_path)!r})",
            "loaded = lambda: [m for m in ('scipy.linalg', 'scipy.ndimage') if m in sys.modules]",
            # the pool's concurrent.futures (and its logging) load on first use only
            "print(loaded(), [m for m in ('concurrent.futures', 'logging') if m in sys.modules])",
            f"report = run_pipeline(cfg, Path({str(tmp_path / 'out')!r}))",
            "print(loaded(), report['plume_count'])",
        ])
        src = str(Path(pf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["[] []", "['scipy.ndimage'] 1"]

    def test_write_plumes_returns_the_written_raster(self, tmp_path, rng):
        values = rng.standard_normal((40, 50)) * 20
        values[5:15, 5:20] += 800.0
        values[25:35, 30:45] += 600.0
        nodata = np.zeros(values.shape, dtype=bool)
        nodata[0, :] = nodata[10, 10] = True
        field = EnhancementField(delta_x=values, gsd=30.0, nodata_mask=nodata)
        plumes, _ = pf.segment_field(field, pf.SegmentationParams(min_area_m2=0.0))
        labels = write_plumes(tmp_path, field, plumes)
        back, back_nodata, _, _ = read_raster(tmp_path / "plume_mask")
        assert labels.dtype == np.float32 and len(plumes) == 2
        assert (tmp_path / "plume_mask.bin").read_bytes() == labels.astype("<f4").tobytes()
        assert np.array_equal(np.where(nodata, 0.0, labels), back)
        assert np.array_equal(back_nodata, nodata) and np.all(labels[nodata] == NODATA)
        assert [np.count_nonzero(labels == p.label_id) for p in plumes] == [
            p.pixel_count for p in plumes
        ]

    def test_downstream_chain_idempotent_on_emitted_rasters(self, tmp_path):
        # level-1 run, then re-enter the downstream from its own rasters
        write_scene(tmp_path, seed=5)
        cfg = load_config(write_config(tmp_path))
        report1 = run_pipeline(cfg, tmp_path / "out1")
        field2 = pf.ingest_level2(
            tmp_path / "out1" / "enhancement", tmp_path / "out1" / "sigma_total"
        )
        # raster round-trip is bit-exact on the float32 grid
        enh1, _, _, _ = read_raster(tmp_path / "out1" / "enhancement")
        assert np.array_equal(field2.delta_x, enh1)
        plumes2, tau2 = pf.segment_field(field2, cfg.segmentation)
        # same plume geometry regardless of entry path when given the same
        # background sample (all-valid here; the level-1 run used matching)
        labels1, _, _, _ = read_raster(tmp_path / "out1" / "plume_mask")
        record2 = pf.quantify_plume(field2, plumes2[0], cfg.wind, cfg.constants)
        ime1 = report1["plumes"][0]["ime_kg"]
        # IME over the same mask must agree exactly
        ime_roundtrip, _ = pf.integrate_ime(field2, labels1 == 1, cfg.constants)
        assert ime_roundtrip == pytest.approx(ime1, rel=1e-12)
        assert record2.ime_kg > 0


class TestMulti:
    def make_multi_config(self, tmp_path, mf_list):
        return write_config(tmp_path, name="multi.yaml", mf=mf_list)

    def test_identical_configs_zero_spread(self, tmp_path):
        write_scene(tmp_path, seed=5)
        cfg_path = self.make_multi_config(
            tmp_path,
            [{"variant": "cmf", "shrinkage": 0.0}, {"variant": "cmf", "shrinkage": 0.0}],
        )
        report = run_multi(load_config(cfg_path), tmp_path / "out")
        assert len(report["spreads"]) == 1
        spread = report["spreads"][0]
        assert spread["matched_runs"] == 2
        assert spread["flux_std_t_per_h"] == 0.0

    def test_variant_degeneracy_zero_spread(self, tmp_path):
        write_scene(tmp_path, seed=5)
        cfg_path = self.make_multi_config(
            tmp_path, [{"variant": "cmf"}, {"variant": "ctmf", "cluster_count": 1}]
        )
        report = run_multi(load_config(cfg_path), tmp_path / "out")
        assert report["spreads"][0]["matched_runs"] == 2
        assert report["spreads"][0]["flux_std_t_per_h"] == 0.0

    def test_differing_configs_positive_spread(self, tmp_path):
        write_scene(tmp_path, seed=5)
        cfg_path = self.make_multi_config(
            tmp_path,
            [{"variant": "cmf", "shrinkage": 0.0}, {"variant": "cmf", "shrinkage": 0.3}],
        )
        report = run_multi(load_config(cfg_path), tmp_path / "out")
        assert report["spreads"][0]["matched_runs"] == 2
        assert report["spreads"][0]["flux_std_t_per_h"] > 0.0
        assert (
            report["spreads"][0]["flux_min_t_per_h"]
            <= report["spreads"][0]["flux_mean_t_per_h"]
            <= report["spreads"][0]["flux_max_t_per_h"]
        )

    def test_column_artifacts_favor_columnwise_variant(self, tmp_path):
        # per-column spectral gains break the scene-wide background model:
        # its robust threshold inflates while the column-wise variant stays
        # clean and lands nearer the true flux
        cube, truth = write_scene(tmp_path, seed=22, noise=True, gains=0.02)
        u_eff, _, _ = pf.effective_wind(pf.WindConfig(u10=3.0))
        length_true = math.sqrt(truth.mask.sum() * 900.0)
        q_true = pf.flux(truth.ime_true_kg, length_true, u_eff)
        cfg_path = self.make_multi_config(
            tmp_path,
            [{"variant": "cwcmf", "shrinkage": 0.0}, {"variant": "cmf", "shrinkage": 0.0}],
        )
        report = run_multi(load_config(cfg_path), tmp_path / "out")
        cw_run, cmf_run = report["runs"]
        assert cw_run["plume_count"] == 1
        q_cw = cw_run["plumes"][0]["flux_t_per_h"]
        err_cw = abs(q_cw / q_true - 1.0)
        assert err_cw < 0.25
        if cmf_run["plume_count"]:
            q_cmf = cmf_run["plumes"][0]["flux_t_per_h"]
            assert abs(q_cmf / q_true - 1.0) > err_cw
            assert report["spreads"][0]["flux_std_t_per_h"] > 0.0
        assert cmf_run["threshold_ppmm"] > 2.0 * cw_run["threshold_ppmm"]

    def test_plume_matching_on_crops_equals_full_scene_masks(self):
        shape = (30, 40)

        def run(*boxes):
            m = np.zeros(shape, dtype=bool)
            for box in boxes:
                m[box] = True
            return stage_of(m)

        def full(p):
            out = np.zeros(shape, dtype=bool)
            out[p.window] = p.mask
            return out

        runs = [
            # a block, an L, a block, a small block
            run(np.s_[2:7, 2:8], np.s_[12:24, 2:5], np.s_[21:24, 5:14], np.s_[14:20, 24:30],
                np.s_[2:4, 32:36]),
            # identical, window nested in the L's, partially overlapping window, disjoint window
            run(np.s_[2:7, 2:8], np.s_[15:24, 2:10], np.s_[15:21, 26:32], np.s_[27:29, 34:38]),
            # a window that overlaps the L's without sharing a pixel, and an identical block
            run(np.s_[12:18, 7:12], np.s_[14:20, 24:30]),
        ]
        expected = {p.label_id: [(0, p.label_id)] for p in runs[0].plumes}
        for run_idx in (1, 2):
            for a in runs[0].plumes:
                for b in runs[run_idx].plumes:
                    fa, fb = full(a), full(b)
                    iou = np.count_nonzero(fa & fb) / np.count_nonzero(fa | fb)
                    if iou >= 0.3:
                        expected[a.label_id].append((run_idx, b.label_id))
        groups, unmatched = match_plumes_across_runs(runs)
        assert {g["anchor_label"]: g["members"] for g in groups} == expected
        assert sorted(len(members) for members in expected.values()) == [1, 2, 2, 3]
        matched = {m for g in groups for m in g["members"]}
        assert unmatched == [
            {"config_index": r, "label_id": p.label_id}
            for r in (1, 2)
            for p in runs[r].plumes
            if (r, p.label_id) not in matched
        ]
        assert len(unmatched) == 2

    def test_disjoint_plumes_do_not_match(self):
        def run(*boxes):
            m = np.zeros((40, 60), dtype=bool)
            for box in boxes:
                m[box] = True
            return stage_of(m)

        runs = [
            run(np.s_[2:6, 2:6], np.s_[2:6, 20:26], np.s_[30:36, 40:50]),
            run(np.s_[3:7, 3:7], np.s_[20:24, 50:58]),
        ]

        def label(run, top_left):
            (p,) = [p for p in run.plumes if (p.window[0].start, p.window[1].start) == top_left]
            return p.label_id

        a0, a1, a2 = (label(runs[0], corner) for corner in ((2, 2), (2, 20), (30, 40)))
        b0, b1 = (label(runs[1], corner) for corner in ((3, 3), (20, 50)))
        groups, unmatched = match_plumes_across_runs(runs)
        members = {g["anchor_label"]: g["members"] for g in groups}
        assert members == {a0: [(0, a0), (1, b0)], a1: [(0, a1)], a2: [(0, a2)]}
        assert unmatched == [{"config_index": 1, "label_id": b1}]

    def test_matching_equals_a_full_mask_oracle(self):
        rng = np.random.default_rng(41)
        shape = (48, 64)

        def full(p):
            out = np.zeros(shape, dtype=bool)
            out[p.window] = p.mask
            return out

        sizes, unmatched_count = set(), 0
        for trial in range(16):
            base = np.kron(rng.random((12, 16)) > 0.6, np.ones((4, 4), dtype=bool))
            masks = [base, base ^ (rng.random(shape) > 0.9), base ^ (rng.random(shape) > 0.7)]
            if trial % 4 < 3:  # one run, the anchor included, finds no plume
                masks[trial % 4] = np.zeros(shape, dtype=bool)
            runs = [stage_of(m) for m in masks]
            expected = [[(0, a.label_id)] for a in runs[0].plumes]
            expected_unmatched = []
            for r in (1, 2):
                pairs = []
                for g, a in enumerate(runs[0].plumes):
                    for b in runs[r].plumes:
                        fa, fb = full(a), full(b)
                        iou = np.count_nonzero(fa & fb) / np.count_nonzero(fa | fb)
                        if iou >= 0.3:
                            pairs.append((-iou, g, b.label_id))
                taken_g, taken_b = set(), set()
                for _, g, label in sorted(pairs):
                    if g not in taken_g and label not in taken_b:
                        expected[g].append((r, label))
                        taken_g.add(g)
                        taken_b.add(label)
                expected_unmatched += [
                    {"config_index": r, "label_id": b.label_id}
                    for b in runs[r].plumes
                    if b.label_id not in taken_b
                ]
            groups, unmatched = match_plumes_across_runs(runs)
            assert [g["anchor_label"] for g in groups] == [p.label_id for p in runs[0].plumes]
            assert [g["members"] for g in groups] == expected
            assert unmatched == expected_unmatched
            sizes.update(len(m) for m in expected)
            unmatched_count += len(unmatched)
        assert {2, 3} <= sizes and unmatched_count > 0

    def test_matching_memory_is_bounded_by_the_anchor_pixels(self):
        # 2 000 and 4 000 single-pixel plumes: one count per (anchor, plume) pair would
        # take 2 001 x 4 001 x 8 bytes, 64 MB, four times the bound
        spots = np.zeros((160, 200), dtype=bool)
        spots[::2, ::2] = True
        at = np.flatnonzero(spots)
        masks = [np.zeros(spots.shape, dtype=bool) for _ in range(2)]
        masks[0].flat[at[::4]] = True
        masks[1].flat[at[::2]] = True
        runs = [stage_of(m) for m in masks]
        assert [len(r.plumes) for r in runs] == [2000, 4000]
        tracemalloc.start()
        try:
            groups, unmatched = match_plumes_across_runs(runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        pixels = np.flatnonzero(runs[0].labels)
        expected = zip(runs[0].labels.flat[pixels].tolist(), runs[1].labels.flat[pixels].tolist())
        assert sorted((g["anchor_label"], g["members"][1][1]) for g in groups) == sorted(
            (int(a), int(b)) for a, b in expected
        )
        assert all(len(g["members"]) == 2 for g in groups)
        assert len(unmatched) == 2000

    def test_level2_product_is_ingested_once_per_run(self, tmp_path, rng, monkeypatch):
        values = rng.standard_normal((40, 40)) * 20
        values[15:25, 15:25] += 800.0
        write_raster(values, tmp_path / "enh", 30.0)
        write_raster(np.full((40, 40), 25.0), tmp_path / "sig", 30.0)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return pf.ingest_level2(*args, **kwargs)

        monkeypatch.setattr(pipeline, "ingest_level2", counted)
        cfg_path = write_config(
            tmp_path,
            input={"enhancement": str(tmp_path / "enh"), "sigma": str(tmp_path / "sig")},
            mf=[{"variant": "cmf"}, {"variant": "cwcmf"}],
            segmentation={"min_area_m2": 0.0},
        )
        report = run_multi(load_config(cfg_path), tmp_path / "out")
        assert len(calls) == 1
        assert report["runs"][0]["plume_count"] >= 1
        assert report["spreads"][0]["flux_std_t_per_h"] == 0.0
        out = tmp_path / "out"
        for name in ("enhancement.bin", "sigma_total.bin", "plume_mask.bin", "plumes.geojson"):
            assert (out / "config_00" / name).read_bytes() == (out / "config_01" / name).read_bytes()

    def test_multi_requires_two_configs(self, tmp_path):
        write_scene(tmp_path, seed=5)
        cfg_path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="at least 2"):
            run_multi(load_config(cfg_path), tmp_path / "out")


class TestCli:
    def test_simulate_then_pipeline(self, tmp_path):
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text(
            yaml.safe_dump(
                {
                    "seed": 5,
                    "input": {},
                    "simulate": {
                        "lines": 64,
                        "samples": 64,
                        "noise_a": 4e-5,
                        "noise_c": 1e-4,
                        "plume": {
                            "center": [32, 32],
                            "peak_delta_x": 900.0,
                            "sigma_along_m": 60.0,
                            "sigma_across_m": 60.0,
                        },
                    },
                }
            )
        )
        assert main(["simulate", "--config", str(sim_cfg), "--output", str(tmp_path / "scene")]) == 0
        truth = json.loads((tmp_path / "scene" / "truth.json").read_text())
        assert truth["plume"]["ime_true_kg"] > 0
        # the plume block is the spec, its peak under the unit-suffixed name
        spec = {f.name for f in dataclasses.fields(pf.SyntheticPlumeSpec)} - {"peak_delta_x"}
        assert set(truth["plume"]) == spec | {"peak_delta_x_ppmm", "truth_mask_pixels", "ime_true_kg"}
        assert truth["plume"]["peak_delta_x_ppmm"] == 900.0 and truth["plume"]["center"] == [32, 32]
        run_cfg = write_config(tmp_path, input={"cube": str(tmp_path / "scene" / "cube")})
        assert main(["pipeline", "--config", str(run_cfg), "--output", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["plume_count"] == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)  # cube never created
        rc = main(["pipeline", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
        assert rc == 2
        assert "input.cube" in capsys.readouterr().err

    def test_an_existing_file_as_output_exits_3(self, tmp_path, capsys):
        write_scene(tmp_path, seed=5)
        (tmp_path / "taken").write_text("kept\n")
        rc = main(["pipeline", "--config", str(write_config(tmp_path)), "--output", str(tmp_path / "taken")])
        err = capsys.readouterr().err
        assert rc == 3 and err == f"error: output path is not a directory: {tmp_path / 'taken'}\n"
        assert (tmp_path / "taken").read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["pipeline", "multi", "ingest-l2"])
    def test_an_output_under_a_file_exits_3_before_any_input_is_read(self, tmp_path, capsys, monkeypatch,
                                                                     command):
        write_scene(tmp_path, seed=5)
        write_raster(np.ones((8, 8)), tmp_path / "enh", 30.0)
        (tmp_path / "taken").write_text("kept\n")

        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(pipeline, "read_cube", unread)
        monkeypatch.setattr(pipeline, "ingest_level2", unread)
        monkeypatch.setattr("plumeflux.cli.ingest_level2", unread)
        mf = [{"variant": "cmf"}, {"variant": "cwcmf"}]
        argv = {
            "pipeline": ["pipeline", "--config", str(write_config(tmp_path))],
            "multi": ["multi", "--config", str(write_config(tmp_path, mf=mf))],
            "ingest-l2": ["ingest-l2", "--enhancement", str(tmp_path / "enh")],
        }[command]
        assert main(argv + ["--output", str(tmp_path / "taken" / "sub")]) == 3
        assert capsys.readouterr().err == f"error: output path is not a directory: {tmp_path / 'taken'}\n"
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_a_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
        assert main(["pipeline", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ") and err.count("\n") == 1

    def test_an_absorption_table_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        write_scene(tmp_path, seed=5)
        table = tmp_path / "table.txt"
        table.write_bytes(b"# caf\xe9\n2000.0 1e-5\n2600.0 1e-5\n")
        cfg_path = write_config(tmp_path, absorption_table=str(table))
        assert main(["pipeline", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read absorption table {table}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_segment_reads_no_input_of_its_config(self, tmp_path):
        write_raster(np.zeros((20, 20)), tmp_path / "enh", 30.0)
        cfg_path = write_config(tmp_path, input={"cube": "missing/cube"})
        argv = ["segment", "--config", str(cfg_path), "--enhancement", str(tmp_path / "enh")]
        assert main([*argv, "--output", str(tmp_path / "seg")]) == 0
        assert json.loads((tmp_path / "seg" / "segmentation.json").read_text())["plume_count"] == 0

    @pytest.mark.parametrize("bad", ["2300.0 abc", "2300.0 nan"])
    def test_bad_absorption_table_exits_3(self, tmp_path, capsys, bad):
        write_scene(tmp_path, seed=5)
        table = tmp_path / "table.txt"
        table.write_text(f"2000.0 1e-5\n{bad}\n2600.0 1e-5\n")
        cfg_path = write_config(tmp_path, absorption_table=str(table))
        rc = main(["pipeline", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    def test_truncated_payload_exits_3(self, tmp_path):
        write_scene(tmp_path, seed=5)
        payload = (tmp_path / "cube.bin").read_bytes()
        (tmp_path / "cube.bin").write_bytes(payload[:-8])
        cfg_path = write_config(tmp_path)
        rc = main(["pipeline", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
        assert rc == 3

    def test_quantify_reproduces_reported_values(self, capsys):
        rc = main(
            [
                "quantify",
                "--ime-kg",
                "820.91",
                "--sigma-ime-kg",
                "19.82",
                "--area-m2",
                "2569892",
                "--u10",
                "3.0",
                "--sigma-u10",
                "1.0",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["flux_t_per_h"] == pytest.approx(3.34, rel=0.015)
        assert out["sigma_flux_t_per_h"] == pytest.approx(0.69, rel=0.03)
        # no mask behind the record: its plume keys are unset, the area is the given one
        assert [out[k] for k in ("label_id", "pixel_count", "area_m2", "touches_edge")] == [
            None, None, 2569892.0, None
        ]
        assert len(out) == 15

    def test_quantify_prints_the_keys_of_a_pipeline_plume_entry(self, tmp_path, capsys):
        write_scene(tmp_path, seed=5)
        run_pipeline(load_config(write_config(tmp_path)), tmp_path / "out")
        entry = json.loads((tmp_path / "out" / "report.json").read_text())["plumes"][0]
        assert main(["quantify", "--ime-kg", "700", "--area-m2", "90000", "--u10", "3"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == set(entry)

    @pytest.mark.parametrize(
        "override, code",
        [
            (("--ime-kg", "nan"), 3),
            (("--ime-kg", "-1"), 3),
            (("--area-m2", "inf"), 3),
            (("--sigma-ime-kg", "-5"), 3),
            (("--sigma-ime-kg", "nan"), 3),
            (("--u10", "inf"), 2),
            (("--sigma-u10", "nan"), 2),
            (("--beta0", "-inf"), 2),
            (("--beta1", "nan"), 2),
        ],
    )
    def test_quantify_rejects_non_finite_input(self, capsys, override, code):
        args = {"--ime-kg": "820.91", "--area-m2": "1e6", "--u10": "3", "--sigma-ime-kg": "19.8"}
        args.update([override])
        assert main(["quantify", *(f"{k}={v}" for k, v in args.items())]) == code
        out, err = capsys.readouterr()
        assert out == "" and "finite" in err and "Traceback" not in err

    def test_quantify_flags_set_their_keys_over_the_config_wind(self, tmp_path, capsys):
        write_raster(np.zeros((4, 4)), tmp_path / "enh", 30.0)

        def printed(wind, *flags):
            cfg = write_config(tmp_path, input={"enhancement": str(tmp_path / "enh")}, wind=wind)
            assert main(["quantify", "--ime-kg", "700", "--area-m2", "90000", "--config", str(cfg), *flags]) == 0
            return json.loads(capsys.readouterr().out)

        wind = {"u10": 3.0, "beta0": 0.2, "sigma_u10": 0.5}
        base = printed(wind)
        # the config's own u10 as a flag keeps every other wind key of the config
        assert printed(wind, "--u10", "3.0") == base
        assert printed(wind, "--beta0", "0.4") == printed({**wind, "beta0": 0.4}) != base

    def test_quantify_rejects_a_non_finite_wind_config(self, tmp_path, capsys):
        write_raster(np.zeros((4, 4)), tmp_path / "enh", 30.0)
        argv = ["quantify", "--ime-kg", "820.91", "--area-m2", "1e6", "--config"]
        for sigma_u10, code in ((1.0, 0), (math.nan, 2)):
            cfg = write_config(tmp_path, input={"enhancement": str(tmp_path / "enh")},
                               wind={"u10": 3.0, "sigma_u10": sigma_u10})
            assert main([*argv, str(cfg)]) == code
        assert "finite" in capsys.readouterr().err

    def test_quantify_reads_the_wind_of_a_config_whose_input_is_gone(self, tmp_path, capsys):
        # quantify reads no input file, so a run config made elsewhere serves
        cfg = write_config(tmp_path, input={"cube": "missing/cube"}, wind={"u10": 3.0})
        assert main(["quantify", "--ime-kg", "700", "--area-m2", "90000", "--config", str(cfg)]) == 0
        from_config = json.loads(capsys.readouterr().out)
        assert main(["quantify", "--ime-kg", "700", "--area-m2", "90000", "--u10", "3.0"]) == 0
        assert json.loads(capsys.readouterr().out) == from_config

    @pytest.mark.parametrize("wind", [("--u10", "0.5"), ("--beta1", "-1"), ("--beta0", "0", "--beta1", "0")])
    def test_quantify_refuses_a_non_positive_effective_wind(self, capsys, wind):
        # U_eff = 0.6 + 1.1 ln 0.5 = -0.16, 0.6 - ln 3 = -0.50 and 0 m/s: none gives a flux
        assert main(["quantify", "--ime-kg", "700", "--area-m2", "90000", "--u10", "3", *wind]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "wind.u10, wind.beta0 and wind.beta1" in err and "U_eff" in err

    @pytest.mark.parametrize("key", ["temperature", "gas_constant"])
    def test_an_overflowing_mass_factor_exits_3_naming_constants(self, tmp_path, capsys, key):
        # 1e-300 K (or J/(mol K)) makes a ppm*m weigh about 1e298 kg/m2: the flux
        # uncertainty's squares pass the float range, and nothing reaches a report
        write_scene(tmp_path, seed=5)
        cfg = write_config(tmp_path, constants={key: 1e-300})
        assert main(["pipeline", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "not finite" in err and "constants" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_retrieve_and_segment_subcommands(self, tmp_path):
        write_scene(tmp_path, seed=5)
        cfg_path = write_config(tmp_path)
        assert main(["retrieve", "--config", str(cfg_path), "--output", str(tmp_path / "ret")]) == 0
        assert (tmp_path / "ret" / "enhancement.bin").exists()
        assert (tmp_path / "ret" / "sigma_noise.bin").exists()
        assert (
            main(
                [
                    "segment",
                    "--config",
                    str(cfg_path),
                    "--enhancement",
                    str(tmp_path / "ret" / "enhancement"),
                    "--output",
                    str(tmp_path / "seg"),
                ]
            )
            == 0
        )
        seg = json.loads((tmp_path / "seg" / "segmentation.json").read_text())
        assert seg["plume_count"] >= 1

    @pytest.mark.parametrize("variant", [None, "cwcmf"])
    def test_retrieve_writes_the_pipeline_layers(self, tmp_path, variant):
        write_scene(tmp_path, seed=5, gains=0.02)
        args = ["--config", str(write_config(tmp_path))]
        args += [] if variant is None else ["--mf", variant]
        for command in ("retrieve", "pipeline"):
            assert main([command, *args, "--output", str(tmp_path / command)]) == 0
        for name in ("enhancement.bin", "sigma_noise.bin"):
            ret, full = ((tmp_path / c / name).read_bytes() for c in ("retrieve", "pipeline"))
            assert ret == full, name
        assert sorted(p.name for p in (tmp_path / "retrieve").iterdir()) == [
            "enhancement.bin", "enhancement.hdr", "sigma_noise.bin", "sigma_noise.hdr"
        ]

    def test_mf_override_flag(self, tmp_path):
        write_scene(tmp_path, seed=5)
        cfg_path = write_config(tmp_path)
        assert (
            main(
                [
                    "pipeline",
                    "--config",
                    str(cfg_path),
                    "--output",
                    str(tmp_path / "out"),
                    "--mf",
                    "CWCMF",
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["mf_label"].startswith("cwcmf")

    def test_multi_subcommand(self, tmp_path, capsys):
        write_scene(tmp_path, seed=5)
        cfg_path = write_config(tmp_path, mf=[{"variant": "cmf"}, {"variant": "cwcmf"}])
        assert main(["multi", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert capsys.readouterr().out == (f"multi-config run complete: 2 configs, "
                                           f"{len(report['spreads'])} matched plume group(s)\n")
        assert len(report["runs"]) == 2
        assert all((tmp_path / "out" / f"config_0{i}" / "report.json").is_file() for i in (0, 1))

    def test_ingest_l2_subcommand(self, tmp_path, rng):
        write_raster(rng.random((8, 8)) * 100, tmp_path / "enh", 30.0)
        rc = main(
            ["ingest-l2", "--enhancement", str(tmp_path / "enh"), "--output", str(tmp_path / "out")]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "ingest.json").read_text())
        assert doc["valid_pixels"] == 64
        assert doc["sigma_total_present"] is False

    def test_config_dump_defaults(self, capsys):
        assert main(["config", "--dump-defaults"]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["mf"][0]["variant"] == "cmf"
        assert doc["wind"]["sigma_method"] == "analytic"


class TestSimulateBeforeSceneExists:
    def test_simulate_skips_input_validation(self, tmp_path):
        # one config can both describe the simulation and consume its output
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text(
            yaml.safe_dump(
                {
                    "seed": 7,
                    "input": {"cube": str(tmp_path / "scene" / "cube")},
                    "wind": {"u10": 3.0},
                    "simulate": {
                        "lines": 48,
                        "samples": 48,
                        "plume": {
                            "center": [24, 24],
                            "peak_delta_x": 900.0,
                            "sigma_along_m": 60.0,
                            "sigma_across_m": 60.0,
                        },
                    },
                }
            )
        )
        assert main(["simulate", "--config", str(cfg_path), "--output", str(tmp_path / "scene")]) == 0
        assert main(["pipeline", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 0
