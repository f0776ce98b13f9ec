"""Seeded config fuzzing: no mutation of a run config gives a traceback, a hang or a silent wrong answer.

Each mutation sets one or two keys of the ``segmentation``, ``background``,
``wind``, ``constants`` and ``mf`` sections to a hostile value, and runs
``plumeflux pipeline`` in-process on a tiny simulated scene under a
wall-clock alarm. The exit code must be 0, 2 (config error) or 3 (data or
domain error); a run that exits 0 must write a finite report with no
negative flux.
"""

import dataclasses
import json
import math
import random

import pytest
import yaml

import plumeflux as pf
from plumeflux.cli import main
from plumeflux.config import BackgroundParams
from plumeflux.matched_filter import MfConfig
from plumeflux.quantification import GasConstants, WindConfig
from plumeflux.scene_io import write_cube
from plumeflux.segmentation import SegmentationParams

from conftest import deadline

SECTIONS = {
    "segmentation": SegmentationParams,
    "background": BackgroundParams,
    "wind": WindConfig,
    "constants": GasConstants,
    "mf": MfConfig,
}
# every key of those sections; mf.seed is not a key, it takes the run's seed
KEYS = [(name, f.name) for name, cls in SECTIONS.items() for f in dataclasses.fields(cls) if f.name != "seed"]
VALUES = [math.nan, math.inf, -math.inf, -1, 0, 1e-300, 1e12, "abc", [1, 2], True, None]
MUTATIONS = 100


def mutations(seed=0):
    draw = random.Random(seed)
    for _ in range(MUTATIONS):
        yield [(*draw.choice(KEYS), draw.choice(VALUES)) for _ in range(draw.randint(1, 2))]


def non_finite(node, path="report"):
    """The paths of the report's numbers that are not finite."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in non_finite(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in non_finite(v, f"{path}[{i}]")]
    return [path] if isinstance(node, float) and not math.isfinite(node) else []


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A 32 x 32 x 16-band scene with a noise model and one plume."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = pf.SyntheticPlumeSpec(center=(16, 16), peak_delta_x=1500.0, sigma_along_m=60.0, sigma_across_m=60.0)
    params = pf.SimParams(lines=32, samples=32, n_bands=16, noise_a=4e-5, noise_c=1e-4, plume=spec, seed=7)
    write_cube(pf.simulate_scene(params)[0], root / "cube")
    return root


def test_every_mutation_exits_0_2_or_3_with_a_finite_report(scene, capsys):
    base = {"input": {"cube": str(scene / "cube")}, "mf": {"variant": "cwcmf"}, "wind": {"u10": 3.0}}
    codes = []
    for i, mutation in enumerate(mutations()):
        doc = json.loads(json.dumps(base))
        for section, key, value in mutation:
            doc.setdefault(section, {})[key] = value
        path = scene / f"run_{i}.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = scene / f"out_{i}"
        with deadline(10):
            code = main(["pipeline", "--config", str(path), "--output", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (mutation, err)
        codes.append(code)
        if code == 0:
            report = json.loads((out / "report.json").read_text())
            assert non_finite(report) == [], mutation
            assert all(p["flux_t_per_h"] >= 0 and p["flux_kg_per_s"] >= 0 for p in report["plumes"]), mutation
    # the draw holds runs that go through and runs that are refused
    assert codes.count(0) >= 5 and codes.count(2) >= 50


@pytest.mark.parametrize(
    "variant,section,key,code",
    [
        ("cwcmf", "mf", "contamination_iterations", 0),
        ("cwcmf", "background", "n_select", 0),
        ("cwcmf", "background", "min_sample", 0),
        ("ctmf", "mf", "cluster_count", 3),  # more clusters than pixels
    ],
)
def test_a_400_digit_integer_key_is_finite(scene, capsys, variant, section, key, code):
    # an int past the float range never meets math.isfinite, which would overflow on it
    doc = {"input": {"cube": str(scene / "cube")}, "mf": {"variant": variant}, "wind": {"u10": 3.0}}
    doc.setdefault(section, {})[key] = 10**400 - 1
    path = scene / f"big_{key}.yaml"
    path.write_text(yaml.safe_dump(doc))
    with deadline(10):
        assert main(["pipeline", "--config", str(path), "--output", str(scene / f"big_{key}")]) == code
    assert "Traceback" not in capsys.readouterr().err
