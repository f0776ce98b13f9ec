"""Six-stage workflow orchestration: ingest, retrieve, uncertainty,
segmentation, quantification, outputs.

Every stage after retrieval consumes the float32-quantized layers that are
written to disk, so all report numbers are recomputable from the emitted
rasters plus the config. Multi-configuration runs execute the same chain per
matched-filter config and report flux spreads over plumes matched by mask
overlap.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import kernels
from .background import clutter_sigma, match_background, total_sigma
from .config import RunConfig, config_echo, validate_files
from .errors import ConfigError, DataError, DomainError
from .matched_filter import MfConfig, retrieve
from .quantification import quantify, quantify_plume
from .scene_io import (
    NODATA,
    EnhancementField,
    RadianceCube,
    check_output_dir,
    ingest_level2,
    raster_files,
    read_cube,
    write_file,
)
from .segmentation import (
    PlumeMask,
    geojson_text,
    robust_sigma,
    robust_threshold,
    segment_field,
)
from .signature import (
    AbsorptionTable,
    BandAbsorption,
    band_absorption,
    load_bundled_table,
    read_absorption_table,
)

CLUTTER_INDEPENDENCE_NOTE = (
    "clutter treated as spatially uncorrelated when aggregating to sigma(IME)"
)
Scene = Union[RadianceCube, EnhancementField]  # a level-1 cube or a level-2 product


def _f32grid(a: np.ndarray) -> np.ndarray:
    """Snap a layer to the float32 grid it will occupy on disk."""
    return a.astype(np.float32).astype(np.float64)


@dataclass
class StageResult:
    """Everything one matched-filter configuration produced."""

    report: dict
    plumes: list[PlumeMask]
    labels: np.ndarray  # the plume label raster as written (``write_plumes``)


def _layer_files(out_dir: Path, field: EnhancementField) -> list:
    """The files (``raster_files``) of the enhancement and whichever sigma layers the field carries."""
    named = {"enhancement": field.delta_x, "sigma_noise": field.sigma_noise, "sigma_total": field.sigma_total}
    return [file for name, layer in named.items() if layer is not None
            for file in raster_files(layer, out_dir / name, field.gsd, field.origin, field.nodata_mask)]


def write_layers(out_dir: Path, field: EnhancementField) -> None:
    """Write the enhancement raster and whichever sigma layers the field carries."""
    for path, data in _layer_files(out_dir, field):
        write_file(path, data)


_GEOJSON_VERTEX_BYTES = 400  # plumes.geojson per ring vertex takes as long as this many payload bytes


def write_plumes(out_dir: Path, field: EnhancementField, plumes: list[PlumeMask], layers: bool = False) -> np.ndarray:
    """Write the plume label raster and ``plumes.geojson``, after the field's layers with ``layers``;
    returns the label raster as written, in float32: each plume's label_id on its pixels, the
    sentinel on nodata pixels, else 0. Every payload is made here, as pool threads allocate
    nothing large; the writes go in ``kernels.runs`` by weight, the last run, which formats the
    GeoJSON, on this thread (with one CPU all of them, in this order).
    """
    labels = np.where(field.nodata_mask, np.float32(NODATA), np.float32(0.0))
    for p in plumes:
        labels[p.window][p.mask] = p.label_id
    files = (_layer_files(out_dir, field) if layers else []) + raster_files(
        labels, out_dir / "plume_mask", field.gsd, field.origin)
    writes = [partial(write_file, path, data) for path, data in files]
    writes.append(lambda: write_file(out_dir / "plumes.geojson", geojson_text(plumes)))
    vertices = sum(len(ring) for p in plumes for ring in (p.polygon, *p.holes))
    weights = [getattr(data, "nbytes", 0) for _, data in files] + [vertices * _GEOJSON_VERTEX_BYTES]
    kernels.in_parallel(lambda run: [write() for write in writes[run]], kernels.runs(weights)[::-1])
    return labels


def write_report(report: dict, path: Path) -> None:
    """Write ``report`` as ``json.dumps(report, indent=2, sort_keys=True)``."""
    write_file(path, json.dumps(report, indent=2, sort_keys=True))


def retrieve_layers(
    cfg: RunConfig, mf: MfConfig, cube: RadianceCube, table: AbsorptionTable
) -> tuple[EnhancementField, BandAbsorption]:
    """The retrieval step: float32-grid enhancement and noise layers, and band absorption."""
    absorption = band_absorption(table, cube.descriptor, mf.window)
    field = retrieve(cube, absorption, mf, n_sigma=cfg.segmentation.n_sigma)[0]
    field = field.replace(delta_x=_f32grid(field.delta_x), sigma_noise=_f32grid(field.sigma_noise))
    return field, absorption


def _level1_background(
    cfg: RunConfig, cube: RadianceCube, absorption: BandAbsorption, field: EnhancementField,
    flags: list[str],
) -> tuple[EnhancementField, Optional[np.ndarray], dict]:
    """Provisional detection, spectral matching, clutter and total uncertainty.

    Returns the field with a float32-grid ``sigma_total``, the background
    sample (None: all valid pixels) and the report entry; appends to ``flags``.
    """
    valid = ~field.nodata_mask
    tau0 = robust_threshold(field.delta_x[valid], cfg.segmentation.n_sigma)
    provisional = (field.delta_x > tau0) & valid
    selection = None
    if np.any(provisional):
        try:
            selection = match_background(cube, absorption, provisional, **asdict(cfg.background))
        except DomainError:
            flags.append("background matching failed (no candidates); using all valid pixels")
    else:
        flags.append("no provisional detection; clutter estimated from all valid pixels")
    if selection is None:
        sigma_clutter, sample = robust_sigma(field.delta_x[valid]), None
        entry = {"source": "all_valid", "selected_count": 0}
    else:
        sigma_clutter, sample = clutter_sigma(field, selection), selection.values_from(field)
        entry = {
            "source": "matched",
            "selected_count": selection.count,
            "insufficient": selection.insufficient,
            "max_spectral_angle_rad": float(selection.similarity_scores.max()),
        }
        if selection.insufficient:
            flags.append("background selection smaller than requested (insufficiency flag)")
    entry["sigma_clutter_ppmm"] = sigma_clutter
    field = field.replace(sigma_total=_f32grid(total_sigma(field.sigma_noise, sigma_clutter)))
    return field, sample, entry


def run_stage(
    cfg: RunConfig, mf: MfConfig, out_dir: Path, scene: Scene, table: Optional[AbsorptionTable]
) -> StageResult:
    """Run the chain for one matched-filter configuration on the scene of
    ``run_inputs``: a level-1 cube is retrieved, a level-2 field is used as is."""
    flags: list[str] = [CLUTTER_INDEPENDENCE_NOTE]
    t0 = time.perf_counter()
    if cfg.input.mode() == "level1":
        field, absorption = retrieve_layers(cfg, mf, scene, table)
        t1 = time.perf_counter()
        field, sample, background = _level1_background(cfg, scene, absorption, field, flags)
    else:
        field, sample, t1 = scene, None, t0
        background = {"source": "external", "selected_count": 0, "sigma_clutter_ppmm": None}
        if field.sigma_total is not None:
            flags.append("external uncertainty raster used verbatim as sigma_total")
        else:
            flags.append("no uncertainty raster ingested: sigma(IME) unavailable")
    timings = {"retrieve_s": t1 - t0, "background_s": time.perf_counter() - t1}

    t0 = time.perf_counter()
    plumes, tau = segment_field(field, cfg.segmentation, sample)
    timings["segmentation_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if plumes and cfg.wind is None:
        raise ConfigError("wind: section is required to quantify plumes")
    records = [quantify_plume(field, p, cfg.wind, cfg.constants) for p in plumes]
    timings["quantification_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    labels = write_plumes(out_dir, field, plumes, layers=True)
    timings["outputs_s"] = time.perf_counter() - t0

    report = {
        "schema": "plumeflux-report-1",
        "kernel_backend": kernels.backend_name(),
        "input_mode": cfg.input.mode(),
        "mf_label": mf.label(),
        "provenance": field.provenance,
        "threshold_ppmm": tau,
        "background": background,
        "plume_count": len(plumes),
        # a plume's entry is its record, the assumptions as a list as in the JSON text
        "plumes": [{**vars(r), "assumptions": list(r.assumptions)} for r in records],
        "assumption_flags": sorted(set(flags)),
        "timings_s": timings,
    }
    return StageResult(report=report, plumes=plumes, labels=labels)


def resolve_output_dir(cfg: RunConfig, override: Optional[Path]) -> Path:
    """The output directory: the command-line override, else the config key (``check_output_dir``)."""
    out = override if override is not None else cfg.output_dir
    if out is None:
        raise ConfigError("output_dir is required (config key or --output)")
    return check_output_dir(out)


def run_inputs(
    cfg: RunConfig, output_dir: Optional[Path], mfs: tuple[MfConfig, ...]
) -> tuple[Path, Scene, Optional[AbsorptionTable]]:
    """Output directory, scene and absorption table, each read once per run (the
    config's input files checked first): the level-1 cube's bands spanning every
    window in ``mfs``, or the level-2 product."""
    validate_files(cfg)
    out_dir = resolve_output_dir(cfg, output_dir)
    if cfg.input.mode() == "level1":
        window = (min(m.window[0] for m in mfs), max(m.window[1] for m in mfs))
        cube, table = read_cube(cfg.input.cube, window), cfg.absorption_table
        table = load_bundled_table() if table == "builtin" else read_absorption_table(table)
        return out_dir, cube, table
    if cfg.input.enhancement is None:
        raise ConfigError("input: set one of 'cube' or 'enhancement'")
    field = ingest_level2(cfg.input.enhancement, cfg.input.sigma, cfg.input.gsd)
    if field.nodata_mask.all():
        raise DataError("no valid pixels in the scene")
    return out_dir, field, None


def run_pipeline(cfg: RunConfig, output_dir: Optional[Path] = None) -> dict:
    """Single-configuration end-to-end run; writes rasters and report.json."""
    out_dir, scene, table = run_inputs(cfg, output_dir, cfg.mf[:1])
    stage = run_stage(cfg, cfg.mf[0], out_dir, scene, table)
    report = dict(stage.report)
    report["config"] = config_echo(cfg)
    write_report(report, out_dir / "report.json")
    return report


_MATCH_IOU = 0.3  # the least pixel IoU at which plumes of two runs are paired


def match_plumes_across_runs(runs: list[StageResult]) -> tuple[list[dict], list[dict]]:
    """Greedy IoU matching of plumes against the first run's plumes.

    Pixel IoUs come from the runs' label rasters, for the pairs that share a
    pixel, so memory is bounded by the first run's plume pixels. Returns
    (groups, unmatched): each group holds one member per run where a match of
    IoU >= 0.3 exists, taken in order of decreasing IoU; plumes that match no
    group are listed as unmatched with their run index.
    """
    if not runs:
        return [], []
    groups = [{"anchor_label": p.label_id, "members": [(0, p.label_id)]} for p in runs[0].plumes]
    at = np.flatnonzero(runs[0].labels > 0)  # the anchor plumes' pixels
    anchor = runs[0].labels.ravel()[at].astype(np.intp)
    n_a = np.array([0] + [p.pixel_count for p in runs[0].plumes])
    unmatched = []
    for run_idx in range(1, len(runs)):
        plumes = runs[run_idx].plumes
        other = runs[run_idx].labels.ravel()[at].astype(np.intp)
        n_b = np.array([0] + [p.pixel_count for p in plumes])
        # every overlapping (anchor, plume) pair and its pixel intersection from one
        # count of the label pairs on the anchor pixels that this run's plumes cover
        shared = other > 0
        pairs, inter = np.unique(anchor[shared] * n_b.size + other[shared], return_counts=True)
        a, b = np.divmod(pairs, n_b.size)
        iou = inter / (n_a[a] + n_b[b] - inter)
        keep = iou >= _MATCH_IOU
        a, b, iou = a[keep], b[keep], iou[keep]
        order = np.lexsort((b, a, -iou))
        taken_groups: set[int] = set()
        taken_plumes: set[int] = set()
        for g_idx, label in zip((a[order] - 1).tolist(), b[order].tolist()):
            if g_idx in taken_groups or label in taken_plumes:
                continue
            groups[g_idx]["members"].append((run_idx, label))
            taken_groups.add(g_idx)
            taken_plumes.add(label)
            if len(taken_groups) == len(groups) or len(taken_plumes) == len(plumes):
                break  # no pair left can be taken
        for p in plumes:
            if p.label_id not in taken_plumes:
                unmatched.append({"config_index": run_idx, "label_id": p.label_id})
    return groups, unmatched


def run_multi(cfg: RunConfig, output_dir: Optional[Path] = None) -> dict:
    """Run every configured matched filter and report flux spreads per plume."""
    if len(cfg.mf) < 2:
        raise ConfigError("multi-configuration runs need at least 2 entries under 'mf'")
    out_dir, scene, table = run_inputs(cfg, output_dir, cfg.mf)

    results: list[StageResult] = []
    sub_reports = []
    for i, mf in enumerate(cfg.mf):
        sub = out_dir / f"config_{i:02d}"
        stage = run_stage(cfg, mf, sub, scene, table)
        results.append(stage)
        entry = dict(stage.report)
        entry["output_subdir"] = sub.name
        sub_reports.append(entry)
        write_report(entry, sub / "report.json")

    flux_by_run_label = [
        {p["label_id"]: p["flux_t_per_h"] for p in stage.report["plumes"]} for stage in results
    ]
    groups, unmatched = match_plumes_across_runs(results)
    spreads = []
    for group in groups:
        fluxes = [flux_by_run_label[run_idx][label] for run_idx, label in group["members"]]
        spreads.append(
            {
                "anchor_label": group["anchor_label"],
                "members": [
                    {
                        "config_index": run_idx,
                        "label_id": label,
                        "flux_t_per_h": flux_by_run_label[run_idx][label],
                    }
                    for run_idx, label in group["members"]
                ],
                "matched_runs": len(group["members"]),
                "flux_min_t_per_h": float(np.min(fluxes)),
                "flux_mean_t_per_h": float(np.mean(fluxes)),
                "flux_max_t_per_h": float(np.max(fluxes)),
                "flux_std_t_per_h": float(np.std(fluxes)),
            }
        )
    unmatched_entries = [
        {**u, "flux_t_per_h": flux_by_run_label[u["config_index"]][u["label_id"]]}
        for u in unmatched
    ]

    report = {
        "schema": "plumeflux-multi-report-1",
        "kernel_backend": kernels.backend_name(),
        "config": config_echo(cfg),
        "runs": sub_reports,
        "spreads": spreads,
        "unmatched_plumes": unmatched_entries,
    }
    write_report(report, out_dir / "report.json")
    return report


def quantify_only(
    ime_kg: float,
    sigma_ime_kg: Optional[float],
    area_m2: float,
    wind,
) -> dict:
    """Quantification without rasters: IME and area straight to a flux record."""
    if not (0 < ime_kg < math.inf and 0 < area_m2 < math.inf):
        raise DomainError("ime_kg and area_m2 must be finite and positive")
    if sigma_ime_kg is not None and not 0 <= sigma_ime_kg < math.inf:
        raise DomainError("sigma_ime_kg must be finite and non-negative")
    record = quantify(ime_kg, sigma_ime_kg, area_m2, wind)
    return {**vars(record), "assumptions": list(record.assumptions)}
