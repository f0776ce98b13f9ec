"""Seeded scene-file fuzzing: no damaged header or payload gives a traceback or a hang.

Each mutation damages one dataset, a 32 x 32 x 16-band cube read by
``plumeflux pipeline`` or a 32 x 32 level-2 raster read by ``plumeflux
ingest-l2``: a header line dropped, duplicated or garbled, a byte that is not
UTF-8, a hostile size, a wrong format key, a band list of the wrong length,
a payload cut short or made longer, or a directory in place of either file.
Each runs in-process under a wall-clock alarm, and must exit 0, 2 (config
error) or 3 (data or domain error) with no traceback.
"""

import random
import shutil

import pytest
import yaml

import plumeflux as pf
from plumeflux.cli import main
from plumeflux.scene_io import write_cube, write_raster

from conftest import deadline

MUTATIONS = 100
SIZES = ("samples", "lines", "bands")
SIZE_VALUES = ["nan", "inf", "1e400", "-4", "0", "3.5", "32.0", "9" * 30, "", "0x20"]
FORMAT_VALUES = {"data_type": "float64", "interleave": "bil", "byte_order": "msb"}
BAND_LISTS = ("wavelengths_nm", "fwhm_nm", "noise_a", "noise_c")


def set_key(lines, key, value):
    return [f"{key} = {value}" if line.split("=")[0].strip() == key else line for line in lines]


def drop(draw, lines):
    del lines[draw.randrange(len(lines))]
    return lines


def duplicate(draw, lines):
    lines.insert(draw.randrange(len(lines) + 1), draw.choice(lines))
    return lines


def garble(draw, lines):
    at = draw.randrange(len(lines))
    line = lines[at]
    cut = draw.randrange(len(line) + 1)
    lines[at] = draw.choice([line[:cut], line.replace("=", ":"), line[:cut] + "=,=#" + line[cut:], line.upper()])
    return lines


def size(draw, lines):
    return set_key(lines, draw.choice(SIZES), draw.choice(SIZE_VALUES))


def fmt(draw, lines):
    key = draw.choice(list(FORMAT_VALUES))
    return set_key(lines, key, FORMAT_VALUES[key])


def band_list(draw, lines):
    key = draw.choice([k for k in BAND_LISTS if any(line.startswith(k + " ") for line in lines)])
    values = next(line for line in lines if line.startswith(key + " ")).partition("=")[2].split(",")
    values = values[1:] if draw.random() < 0.5 else [*values, values[-1]]
    return set_key(lines, key, ",".join(values))


HEADER = {f.__name__: f for f in (drop, duplicate, garble, size, fmt, band_list)}


def damage(draw, base, kind):
    """Damage the dataset ``base`` (``base.hdr`` + ``base.bin``) in place by ``kind``."""
    hdr, payload = base.with_suffix(".hdr"), base.with_suffix(".bin")
    if kind in ("hdr_dir", "bin_dir"):
        path = hdr if kind == "hdr_dir" else payload
        path.unlink()
        path.mkdir()
    elif kind == "non_utf8":
        text = hdr.read_bytes()
        at = draw.randrange(len(text) + 1)
        hdr.write_bytes(text[:at] + draw.choice([b"\xff", b"\xc3", b"\x80"]) + text[at:])
    elif kind == "truncate":
        data = payload.read_bytes()
        payload.write_bytes(data[: draw.randrange(len(data))])
    elif kind == "extend":
        payload.write_bytes(payload.read_bytes() + bytes(draw.choice([1, 3, 4, 32 * 32 * 4])))
    else:
        lines = HEADER[kind](draw, hdr.read_text().splitlines())
        hdr.write_text("\n".join(lines) + "\n")


def mutations(seed=0):
    """(dataset, kind, seed of the damage) triples, taking every kind for each dataset in turn;
    a raster has no band list to damage."""
    draw = random.Random(seed)
    kinds = [k for k in HEADER if k != "band_list"] + ["non_utf8", "truncate", "extend", "hdr_dir", "bin_dir"]
    pairs = [("cube", "band_list")] + [(dataset, kind) for dataset in ("cube", "raster") for kind in kinds]
    for i in range(MUTATIONS):
        yield *pairs[i % len(pairs)], draw.random()


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """An undamaged 32 x 32 x 16-band cube with a noise model and a plume, and a raster."""
    root = tmp_path_factory.mktemp("scene_fuzz")
    spec = pf.SyntheticPlumeSpec(center=(16, 16), peak_delta_x=1500.0, sigma_along_m=60.0, sigma_across_m=60.0)
    params = pf.SimParams(lines=32, samples=32, n_bands=16, noise_a=4e-5, noise_c=1e-4, plume=spec, seed=7)
    cube, truth = pf.simulate_scene(params)
    write_cube(cube, root / "cube")
    write_raster(truth.delta_x_true, root / "raster", cube.gsd, cube.origin)
    return root


def test_every_mutation_exits_0_2_or_3_without_a_traceback(clean, tmp_path, capsys):
    codes = []
    for i, (dataset, kind, seed) in enumerate(mutations()):
        case = tmp_path / f"case_{i}"
        case.mkdir()
        for suffix in (".hdr", ".bin"):
            shutil.copy(clean / f"{dataset}{suffix}", case / f"{dataset}{suffix}")
        damage(random.Random(seed), case / dataset, kind)
        if dataset == "cube":
            config = case / "run.yaml"
            config.write_text(yaml.safe_dump({"input": {"cube": str(case / "cube")}, "mf": {"variant": "cwcmf"},
                                              "wind": {"u10": 3.0}}))
            argv = ["pipeline", "--config", str(config), "--output", str(case / "out")]
        else:
            argv = ["ingest-l2", "--enhancement", str(case / "raster"), "--output", str(case / "out")]
        with deadline(10):
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and "Traceback" not in err, (dataset, kind, code, err)
        assert code == 0 or err.startswith("error: ") and err.count("\n") == 1, (dataset, kind, err)
        codes.append(code)
    # the draw holds runs that go through and runs that are refused
    assert codes.count(0) >= 5 and codes.count(3) >= 30
