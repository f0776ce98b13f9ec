"""Run configuration: one structured YAML file per reproducible run.

The frozen dataclasses are the schema: each section's keys, defaults and
types are the fields of its dataclass, and parsing, the report echo and
``plumeflux config --dump-defaults`` are all derived from them. Relative
paths resolve against the config file's directory.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

import yaml

from .background import BackgroundParams
from .errors import ConfigError
from .matched_filter import MfConfig
from .quantification import GasConstants, WindConfig
from .scene_io import dataset_paths, read_file
from .segmentation import SegmentationParams
from .simulator import SimParams, SyntheticPlumeSpec


@dataclass(frozen=True)
class InputConfig:
    cube: Optional[Path] = None
    enhancement: Optional[Path] = None
    sigma: Optional[Path] = None
    gsd: Optional[float] = None  # overrides the raster header for level-2 input

    def mode(self) -> str:
        return "level1" if self.cube is not None else "level2"


@dataclass(frozen=True)
class RunConfig:
    """One run; the field order is the section order of the dumped defaults."""

    input: InputConfig
    absorption_table: str = "builtin"
    output_dir: Optional[Path] = None
    seed: int = 0
    mf: tuple[MfConfig, ...] = (MfConfig(),)
    segmentation: SegmentationParams = SegmentationParams()
    background: BackgroundParams = BackgroundParams()
    wind: Optional[WindConfig] = None
    constants: GasConstants = GasConstants()
    simulate: Optional[SimParams] = None


# Example values for the keys that have no default, written by --dump-defaults.
# The plume centre defaults to the scene centre: (48, 48) for the default scene.
_DUMP_EXAMPLES = {
    "wind": {"u10": 3.0},
    "plume": {"center": (48, 48), "peak_delta_x": 900.0},
}


def _check_keys(mapping: dict, allowed, section: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {', '.join(unknown)}")


def _mapping(value: Any, name: str) -> dict:
    """A config section's mapping; an empty section means all defaults."""
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a mapping, got {value!r}")
    return value or {}


def _coerce(value: Any, hint: Any, key: str, base: Path) -> Any:
    """Convert a YAML value to a field's resolved type hint."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is Union:  # Optional[X]: an empty value means unset
        return None if value is None or value == "" else _coerce(value, args[0], key, base)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            return tuple(_coerce(v, args[0], key, base) for v in value)
        if len(value) != len(args):
            raise ConfigError(f"{key}: expected {len(args)} values, got {len(value)}")
        return tuple(_coerce(v, a, key, base) for v, a in zip(value, args))
    if hint is Path:
        path = Path(str(value))
        return path if path.is_absolute() else base / path
    try:
        out = hint(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: expected {hint.__name__}, got {value!r}") from exc
    # int() truncates floats, and int() and float() take booleans; a number key takes neither silently
    if (isinstance(value, bool) and hint in (int, float)
            or hint is int and isinstance(value, float) and out != value):
        raise ConfigError(f"{key}: expected {hint.__name__}, got {value!r}")
    return out


def _section(cls, mapping: Optional[dict], name: str, base: Path, **given):
    """Build ``cls`` from one config section.

    The section's keys are the dataclass fields not in ``given`` (values the
    caller supplies, such as the run seed). Each value is coerced by the
    field's type hint; an omitted key takes the field default.
    """
    mapping = _mapping(mapping, name)
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    _check_keys(mapping, [f.name for f in fields], name)
    hints = typing.get_type_hints(cls)
    for f in fields:
        if f.name in mapping:
            given[f.name] = _coerce(mapping[f.name], hints[f.name], f"{name}.{f.name}", base)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{name}: '{f.name}' is required")
    return cls(**given)


def _simulate(mapping: dict, seed: int, base: Path) -> SimParams:
    """The simulate section; the plume centre defaults to the scene centre."""
    mapping = _mapping(mapping, "simulate")
    scene = {k: v for k, v in mapping.items() if k != "plume"}
    sim = _section(SimParams, scene, "simulate", base, seed=seed)
    plume = mapping.get("plume")
    if plume is None:
        return sim
    plume = {"center": (sim.lines / 2, sim.samples / 2), **_mapping(plume, "simulate.plume")}
    return dataclasses.replace(sim, plume=_section(SyntheticPlumeSpec, plume, "simulate.plume", base))


def load_config(path: str | Path, seed_override: Optional[int] = None) -> RunConfig:
    """Parse and validate a run configuration file.

    The input files it names are not read here, so need not exist yet:
    ``validate_files`` checks them where a run reads its inputs.
    """
    path = Path(path)
    try:
        doc = yaml.safe_load(read_file(path, "config file", missing=ConfigError, error=ConfigError))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    doc = _mapping(doc, f"config {path}")
    _check_keys(doc, [f.name for f in dataclasses.fields(RunConfig)], "config")
    base = path.parent
    seed = doc.get("seed", RunConfig.seed) if seed_override is None else seed_override
    seed = _coerce(seed, int, "seed", base)

    input_cfg = _section(InputConfig, doc.get("input"), "input", base)
    if (input_cfg.cube is not None) and (input_cfg.enhancement is not None):
        raise ConfigError("input: set exactly one of 'cube' or 'enhancement', not both")

    mf_doc = doc.get("mf", {})
    if isinstance(mf_doc, dict):
        mf_doc = [mf_doc]
    if not isinstance(mf_doc, list) or not mf_doc:
        raise ConfigError("mf: expected a mapping or a non-empty list of mappings")

    table = str(doc.get("absorption_table", RunConfig.absorption_table))
    if table != "builtin":
        table = str(_coerce(table, Path, "absorption_table", base))

    wind = doc.get("wind")
    simulate = doc.get("simulate")
    return RunConfig(
        input=input_cfg,
        absorption_table=table,
        output_dir=_coerce(doc.get("output_dir"), Optional[Path], "output_dir", base),
        seed=seed,
        mf=tuple(_section(MfConfig, m, "mf", base, seed=seed) for m in mf_doc),
        segmentation=_section(SegmentationParams, doc.get("segmentation"), "segmentation", base),
        background=_section(BackgroundParams, doc.get("background"), "background", base),
        wind=None if wind is None else _section(WindConfig, wind, "wind", base),
        constants=_section(GasConstants, doc.get("constants"), "constants", base),
        simulate=None if simulate is None else _simulate(simulate, seed, base),
    )


def validate_files(cfg: RunConfig) -> None:
    """Every input file the config names must exist: a missing one is a
    ``ConfigError`` naming its key."""
    inputs = {f"input.{key}": getattr(cfg.input, key) for key in ("cube", "enhancement", "sigma")}
    probes = {key: dataset_paths(p)[0] for key, p in inputs.items() if p is not None}
    if cfg.absorption_table != "builtin":
        probes["absorption_table"] = Path(cfg.absorption_table)
    for key, probe in probes.items():
        if not probe.exists():
            raise ConfigError(f"config key '{key}' references a missing file: {probe}")


def _plain(obj) -> dict:
    """``dataclasses.asdict`` with tuples as lists and paths as strings."""

    def value(v):
        if isinstance(v, tuple):
            return list(v)
        return str(v) if isinstance(v, Path) else v

    return dataclasses.asdict(obj, dict_factory=lambda items: {k: value(v) for k, v in items})


def config_echo(cfg: RunConfig) -> dict[str, Any]:
    """Plain-dict echo of the effective configuration for the run report.

    The output directory and the simulate recipe do not shape the
    retrieval, so the echo leaves them out.
    """
    echo = _plain(cfg)
    del echo["output_dir"], echo["simulate"]
    echo["input"]["mode"] = cfg.input.mode() if (cfg.input.cube or cfg.input.enhancement) else None
    return echo


def default_config_yaml() -> str:
    """Full default configuration with every key written out."""
    cfg = RunConfig(
        input=InputConfig(),
        wind=WindConfig(**_DUMP_EXAMPLES["wind"]),
        simulate=SimParams(plume=SyntheticPlumeSpec(**_DUMP_EXAMPLES["plume"])),
    )
    doc = _plain(cfg)
    for section in (*doc["mf"], doc["simulate"]):
        del section["seed"]  # not a key: every section takes the top-level seed
    header = (
        "# plumeflux run configuration -- every default shown explicitly, except:\n"
        "# wind.u10 and simulate.plume.peak_delta_x have no default (the values\n"
        "# shown are examples); simulate.plume.center defaults to the scene centre.\n"
        "# 'input' must set exactly one of: cube (level-1 radiance) or\n"
        "# enhancement (level-2 product, optional sigma raster).\n"
    )
    return header + yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
