"""Command-line entry points for the processing chain.

Subcommands: simulate, retrieve, segment, quantify, pipeline, multi,
ingest-l2, config. Exit codes: 0 success (including zero plumes found),
2 config errors, 3 data/domain errors and runs out of memory, 4 internal
numerical errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, get_type_hints

from .config import default_config_yaml, load_config
from .errors import ConfigError, DataError, PlumefluxError
from .pipeline import (
    quantify_only,
    resolve_output_dir,
    retrieve_layers,
    run_inputs,
    run_multi,
    run_pipeline,
    write_layers,
    write_plumes,
    write_report,
)
from .quantification import SIGMA_METHODS, WindConfig
from .scene_io import check_output_dir, ingest_level2, write_cube, write_raster
from .segmentation import segment_field
from .simulator import simulate_scene


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument("--config", type=Path, required=config_required, help="run configuration YAML")
    parser.add_argument("--output", type=Path, default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")


def _load(args) -> "RunConfig":
    return load_config(args.config, seed_override=args.seed)


def _apply_mf_override(cfg, variant: Optional[str]):
    if variant is None:
        return cfg
    mf = tuple(dataclasses.replace(m, variant=variant) for m in cfg.mf)
    return dataclasses.replace(cfg, mf=mf)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    if cfg.simulate is None:
        raise ConfigError("config has no 'simulate' section")
    out = resolve_output_dir(cfg, args.output)
    cube, truth = simulate_scene(cfg.simulate)
    write_cube(cube, out / "cube")
    doc = {
        "seed": cfg.simulate.seed,
        "lines": cfg.simulate.lines,
        "samples": cfg.simulate.samples,
        "gsd_m": cfg.simulate.gsd_m,
        "plume": None,
    }
    if truth is not None:
        write_raster(truth.delta_x_true, out / "truth_delta_x", cube.gsd, cube.origin)
        write_raster(truth.mask.astype(float), out / "truth_mask", cube.gsd, cube.origin)
        plume = doc["plume"] = dataclasses.asdict(truth.spec)
        plume["peak_delta_x_ppmm"] = plume.pop("peak_delta_x")
        plume.update(truth_mask_pixels=int(truth.mask.sum()), ime_true_kg=truth.ime_true_kg)
    write_report(doc, out / "truth.json")
    print(f"wrote synthetic scene to {out}")
    return 0


def cmd_retrieve(args) -> int:
    cfg = _apply_mf_override(_load(args), args.mf)
    if cfg.input.cube is None:
        raise ConfigError("retrieve requires input.cube (level-1 radiance)")
    out, cube, table = run_inputs(cfg, args.output, cfg.mf[:1])
    field = retrieve_layers(cfg, cfg.mf[0], cube, table)[0]
    write_layers(out, field)
    print(f"wrote enhancement (provenance: {field.provenance}) to {out}")
    return 0


def cmd_segment(args) -> int:
    cfg = _load(args)
    out = resolve_output_dir(cfg, args.output)
    enh = args.enhancement if args.enhancement is not None else cfg.input.enhancement
    if enh is None:
        raise ConfigError("segment requires input.enhancement or --enhancement")
    field = ingest_level2(enh, None, cfg.input.gsd)
    plumes, tau = segment_field(field, cfg.segmentation)
    write_plumes(out, field, plumes)
    entries = [{"label_id": p.label_id, "pixel_count": p.pixel_count, "area_m2": p.area_m2} for p in plumes]
    write_report({"threshold_ppmm": tau, "plume_count": len(plumes), "plumes": entries}, out / "segmentation.json")
    print(f"threshold {tau:.3f} ppm*m, {len(plumes)} plume(s); outputs in {out}")
    return 0


def cmd_quantify(args) -> int:
    wind = None
    if args.config is not None:  # only its wind section is read
        wind = _load(args).wind
    # each wind flag given sets its key over the config's wind section
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(WindConfig)}
    given = {k: v for k, v in flags.items() if v is not None}
    if wind is None and "u10" not in given:
        raise ConfigError("quantify needs a wind section in --config or --u10 on the command line")
    wind = WindConfig(**given) if wind is None else dataclasses.replace(wind, **given)
    out = quantify_only(args.ime_kg, args.sigma_ime_kg, args.area_m2, wind)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_pipeline(args) -> int:
    cfg = _apply_mf_override(_load(args), args.mf)
    report = run_pipeline(cfg, args.output)
    print(
        f"pipeline complete: {report['plume_count']} plume(s); "
        f"report at {(args.output or cfg.output_dir)}/report.json"
    )
    return 0


def cmd_multi(args) -> int:
    cfg = _load(args)
    report = run_multi(cfg, args.output)
    print(
        f"multi-config run complete: {len(report['runs'])} configs, "
        f"{len(report['spreads'])} matched plume group(s)"
    )
    return 0


def cmd_ingest_l2(args) -> int:
    out = check_output_dir(args.output)
    field = ingest_level2(args.enhancement, args.sigma, args.gsd)
    write_layers(out, field)
    valid = int((~field.nodata_mask).sum())
    write_report(
        {
            "provenance": field.provenance,
            "gsd_m": field.gsd,
            "valid_pixels": valid,
            "sigma_total_present": field.sigma_total is not None,
        },
        out / "ingest.json",
    )
    print(f"ingested level-2 product ({valid} valid pixels) into {out}")
    return 0


def cmd_config(args) -> int:
    if args.dump_defaults:
        sys.stdout.write(default_config_yaml())
        return 0
    raise ConfigError("config: nothing to do (use --dump-defaults)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumeflux",
        description="Gas plume retrieval, segmentation, and emission quantification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scene with truth")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("retrieve", help="matched-filter enhancement retrieval only")
    _add_common(p)
    p.add_argument("--mf", type=str, default=None, help="variant override (cmf|ctmf|cwcmf)")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("segment", help="threshold and polygonize an enhancement raster")
    _add_common(p)
    p.add_argument("--enhancement", type=Path, default=None, help="enhancement raster override")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("quantify", help="IME and area straight to flux (no rasters)")
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ime-kg", type=float, required=True, dest="ime_kg")
    p.add_argument("--sigma-ime-kg", type=float, default=None, dest="sigma_ime_kg")
    p.add_argument("--area-m2", type=float, required=True, dest="area_m2")
    hints = get_type_hints(WindConfig)
    for f in dataclasses.fields(WindConfig):  # the wind keys, unset unless given
        choices = SIGMA_METHODS if hints[f.name] is str else None  # the one text key
        p.add_argument(f"--{f.name.replace('_', '-')}", type=hints[f.name], choices=choices, dest=f.name)
    p.set_defaults(func=cmd_quantify)

    p = sub.add_parser("pipeline", help="full chain: ingest to report")
    _add_common(p)
    p.add_argument("--mf", type=str, default=None, help="variant override (cmf|ctmf|cwcmf)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("multi", help="multi-configuration run with flux spreads")
    _add_common(p)
    p.set_defaults(func=cmd_multi)

    p = sub.add_parser("ingest-l2", help="validate and canonicalize an external product")
    p.add_argument("--enhancement", type=Path, required=True)
    p.add_argument("--sigma", type=Path, default=None)
    p.add_argument("--gsd", type=float, default=None)
    p.add_argument("--output", type=Path, required=True)
    p.set_defaults(func=cmd_ingest_l2)

    p = sub.add_parser("config", help="configuration utilities")
    p.add_argument("--dump-defaults", action="store_true", dest="dump_defaults")
    p.set_defaults(func=cmd_config)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlumefluxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # such as a scene too large to build
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
