"""Seeded scene generators for the benchmark workloads.

Run as its own process, so that scene synthesis never touches the memory of
the process that measures the pipeline:

    python3 perfbench/scenes.py --workload l1_cwcmf_512 --seed 3 --out DIR [--smoke]

It writes into DIR the input files, a ``config.yaml`` that points at them,
and ``truth.json`` with the payload SHA-256, the input size and the truth
quantities (``ime_true_kg``, ``injected_plumes``). The pipeline receives
only the input files and the config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import kg_per_m2_per_ppmm

GSD_M = 30.0
WINDOW_NM = (2100.0, 2450.0)
# CH4 at STP; written into every run config and used for every truth IME
CONSTANTS = {
    "molar_mass": 0.016043,
    "temperature": 273.15,
    "pressure": 101_325.0,
    "gas_constant": 8.314462618,
}
WIND = {"u10": 3.0, "sigma_u10": 1.0}


@dataclass(frozen=True)
class Level1Recipe:
    """Endmember mixture with noise, column gains and one rotated plume."""

    variant: str
    lines: int
    n_bands: int
    peak_ppmm: float = 1200.0
    sigma_along_m: float = 600.0
    sigma_across_m: float = 240.0
    orientation_rad: float = 0.6
    column_gain: float = 0.01


@dataclass(frozen=True)
class Level2Recipe:
    """Gaussian clutter plus seeded Gaussian plumes on a jittered grid."""

    lines: int
    grid: int  # plumes per grid side; grid**2 plumes are injected
    clutter_ppmm: float = 80.0


# workload -> (recipe, smoke recipe); BENCHMARK.json says why each exists
WORKLOADS = {
    "l1_cwcmf_512": (
        Level1Recipe("cwcmf", 512, 72),
        Level1Recipe("cwcmf", 48, 24, sigma_along_m=150.0, sigma_across_m=60.0),
    ),
    "l1_ctmf_256": (
        Level1Recipe("ctmf", 256, 72),
        Level1Recipe("ctmf", 48, 24, sigma_along_m=150.0, sigma_across_m=60.0),
    ),
    "l2_plumes_1024": (Level2Recipe(1024, 17), Level2Recipe(160, 3)),
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _base_config() -> dict:
    return {
        "output_dir": "run",
        "absorption_table": "builtin",
        "wind": dict(WIND),
        "constants": dict(CONSTANTS),
    }


def _add_gaussian(field: np.ndarray, center, peak, s_along, s_across, theta) -> None:
    """Add a rotated Gaussian, evaluated within 6 sigma of its center."""
    reach = int(math.ceil(6.0 * s_along / GSD_M))
    i0, j0 = (max(0, int(c) - reach) for c in center)
    i1, j1 = (min(n, int(c) + reach + 1) for c, n in zip(center, field.shape))
    dy = (np.arange(i0, i1)[:, None] - center[0]) * GSD_M
    dx = (np.arange(j0, j1)[None, :] - center[1]) * GSD_M
    u = math.cos(theta) * dx + math.sin(theta) * dy
    v = -math.sin(theta) * dx + math.cos(theta) * dy
    field[i0:i1, j0:j1] += peak * np.exp(-(u**2) / (2 * s_along**2) - (v**2) / (2 * s_across**2))


def generate_level1(r: Level1Recipe, seed: int, out: Path) -> dict:
    from plumeflux.scene_io import write_cube
    from plumeflux.signature import band_absorption, load_bundled_table
    from plumeflux.simulator import (
        SimParams,
        SyntheticPlumeSpec,
        add_noise,
        apply_column_gains,
        inject_plume,
        synth_background,
    )

    n = r.lines
    params = SimParams(
        n_bands=r.n_bands,
        band_start_nm=WINDOW_NM[0],
        band_stop_nm=WINDOW_NM[1],
        gsd_m=GSD_M,
        noise_a=4e-5,
        noise_c=1e-4,
        endmember_levels=(9.5, 10.0, 10.5),
        endmember_tilts=(-0.3, 0.0, 0.3),
    )
    descriptor = params.descriptor()
    # A fixed site seen on different days: the surface mixture, drawn per
    # pixel so that the clutter left after filtering is white, is the same
    # for every seed; the seed draws the plume position, column gains and
    # noise. A fixed surface keeps the ctmf k-means partition, and with it
    # the ctmf time and IME error, closer from seed to seed.
    spectra = params.endmember_spectra(descriptor)
    cube = synth_background(n, n, descriptor, spectra, mixing_smoothness=0, seed=0)
    rng = np.random.default_rng([seed, 1])
    spec = SyntheticPlumeSpec(
        center=(n * (0.5 + rng.uniform(-0.1, 0.1)), n * (0.5 + rng.uniform(-0.1, 0.1))),
        peak_delta_x=r.peak_ppmm,
        sigma_along_m=r.sigma_along_m,
        sigma_across_m=r.sigma_across_m,
        orientation_rad=r.orientation_rad,
    )
    absorption = band_absorption(load_bundled_table(), descriptor, WINDOW_NM)
    cube, truth = inject_plume(cube, absorption, spec)
    cube = apply_column_gains(cube, r.column_gain, seed=2 * seed + 1)
    cube = add_noise(cube, seed=2 * seed + 2)
    write_cube(cube, out / "cube")
    config = _base_config()
    config["input"] = {"cube": "cube"}
    config["mf"] = {"variant": r.variant, "cluster_count": 8, "window": list(WINDOW_NM)}
    config["seed"] = 0
    return {
        "config": config,
        "payload": [out / "cube.bin"],
        "lines": n,
        "samples": n,
        "window_bands": r.n_bands,
        "ime_true_kg": truth.ime_true_kg,
        "injected_plumes": 1,
    }


def generate_level2(r: Level2Recipe, seed: int, out: Path) -> dict:
    from plumeflux.scene_io import write_raster

    rng = np.random.default_rng([seed, 2])
    n = r.lines
    cell = n / r.grid
    truth = np.zeros((n, n))
    # one plume per grid cell, jittered so neighbours rarely touch
    for gi in range(r.grid):
        for gj in range(r.grid):
            center = ((gi + rng.uniform(0.3, 0.7)) * cell, (gj + rng.uniform(0.3, 0.7)) * cell)
            peak = rng.uniform(400.0, 2000.0)
            s_along = rng.uniform(60.0, 180.0)
            s_across = rng.uniform(40.0, 90.0)
            theta = rng.uniform(0.0, math.pi)
            _add_gaussian(truth, center, peak, s_along, s_across, theta)
    enhancement = truth + rng.normal(0.0, r.clutter_ppmm, size=(n, n))
    sigma = r.clutter_ppmm * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=(n, n)))
    write_raster(enhancement, out / "enhancement", GSD_M)
    write_raster(sigma, out / "sigma", GSD_M)
    config = _base_config()
    config["input"] = {"enhancement": "enhancement", "sigma": "sigma"}
    return {
        "config": config,
        "payload": [out / "enhancement.bin", out / "sigma.bin"],
        "lines": n,
        "samples": n,
        "window_bands": 0,
        "ime_true_kg": kg_per_m2_per_ppmm(CONSTANTS) * GSD_M * GSD_M * float(truth.sum()),
        "injected_plumes": r.grid * r.grid,
    }


def generate(workload: str, seed: int, out: Path, smoke: bool) -> dict:
    import yaml

    out.mkdir(parents=True, exist_ok=True)
    recipe = WORKLOADS[workload][1 if smoke else 0]
    if isinstance(recipe, Level1Recipe):
        made = generate_level1(recipe, seed, out)
    else:
        made = generate_level2(recipe, seed, out)
    (out / "config.yaml").write_text(yaml.safe_dump(made["config"], sort_keys=True))
    truth = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "payload_sha256": {p.name: _sha256(p) for p in made["payload"]},
        "input_bytes": sum(p.stat().st_size for p in made["payload"]),
        "valid_pixels": made["lines"] * made["samples"],
        "window_bands": made["window_bands"],
        "ime_true_kg": made["ime_true_kg"],
        "injected_plumes": made["injected_plumes"],
    }
    # truth.json is written last: its presence marks a complete cache entry
    (out / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True))
    return truth


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
