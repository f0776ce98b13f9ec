"""Output checks for one pipeline run, independent of the plumeflux code.

The checks read the report that ``run_pipeline`` returned (and wrote as
``report.json``) and the rasters and ``plumes.geojson`` it wrote. A run with
any failed check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

NODATA = -9999.0
REL_TOL = 1e-9


def read_raster(base: Path) -> tuple[np.ndarray, float]:
    """Values (sentinel kept) and GSD of a header + float32 BSQ raster pair."""
    header = {}
    for line in base.with_suffix(".hdr").read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            header[key.strip()] = value.strip()
    lines, samples = int(header["lines"]), int(header["samples"])
    values = np.fromfile(base.with_suffix(".bin"), dtype="<f4").reshape(lines, samples)
    return values, float(header["gsd_m"])


def output_hashes(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every raster file and of plumes.geojson (not the report,
    which carries timings)."""
    names = sorted(p.name for p in out_dir.iterdir() if p.suffix in (".hdr", ".bin"))
    names.append("plumes.geojson")
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _ring_area(ring: list) -> float:
    pts = np.asarray(ring, dtype=np.float64)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def kg_per_m2_per_ppmm(constants: dict) -> float:
    c = constants
    return 1e-6 * c["molar_mass"] * c["pressure"] / (c["gas_constant"] * c["temperature"])


def check_run(out_dir: Path, report: dict, reference_hashes: dict | None) -> tuple[list[str], dict]:
    """Failed-check messages (empty when all pass) and the output hashes."""
    failures: list[str] = []
    plumes = report["plumes"]
    count = report["plume_count"]
    if len(plumes) != count:
        failures.append(f"report lists {len(plumes)} plumes but plume_count is {count}")
    if count == 0:
        failures.append("no plume found")

    for p in plumes:
        q = 3.6 * p["u_eff_m_per_s"] * p["ime_kg"] / p["length_m"]
        if not _close(p["flux_t_per_h"], q):
            failures.append(f"plume {p['label_id']}: Q != 3.6*U_eff*IME/L")
        if p["sigma_flux_t_per_h"] is not None:
            quad = math.hypot(p["sigma_flux_wind_t_per_h"], p["sigma_flux_ime_t_per_h"])
            if not _close(p["sigma_flux_t_per_h"], quad):
                failures.append(f"plume {p['label_id']}: sigma(Q) is not the quadrature sum")

    enhancement, gsd = read_raster(out_dir / "enhancement")
    geo = json.loads((out_dir / "plumes.geojson").read_text(encoding="utf-8"))
    features = geo["features"]
    if len(features) != count:
        failures.append(f"GeoJSON has {len(features)} features but plume_count is {count}")
    for f in features:
        area = sum(_ring_area(r) for r in f["geometry"]["coordinates"])
        if not _close(area, f["properties"]["pixel_count"] * gsd * gsd):
            failures.append(f"feature {f['properties']['label_id']}: shoelace area != pixels*gsd^2")

    if plumes:
        labels, _ = read_raster(out_dir / "plume_mask")
        use = (labels == plumes[0]["label_id"]) & (enhancement != NODATA)
        factor = kg_per_m2_per_ppmm(report["config"]["constants"]) * gsd * gsd
        ime = factor * float(enhancement[use].astype(np.float64).sum())
        if not _close(ime, plumes[0]["ime_kg"]):
            failures.append(
                f"largest plume IME {plumes[0]['ime_kg']!r} kg, {ime!r} kg from the rasters"
            )

    hashes = output_hashes(out_dir)
    if reference_hashes is not None and hashes != reference_hashes:
        changed = sorted(k for k in hashes.keys() | reference_hashes.keys()
                         if hashes.get(k) != reference_hashes.get(k))
        failures.append("outputs differ from the first run: " + ", ".join(changed))
    return failures, hashes
