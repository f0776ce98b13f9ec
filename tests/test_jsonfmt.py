import enum
import json

import numpy as np
import pytest

from plumeflux import jsonfmt
from plumeflux.config import load_config
from plumeflux.pipeline import run_pipeline
from plumeflux.segmentation import connected_components, plumes_to_geojson

from test_pipeline import write_config, write_scene


def stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def assert_same_text(obj):
    assert jsonfmt.dumps(obj) == stdlib(obj)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class TestSameBytesAsJson:
    def test_real_report_and_geojson(self, tmp_path, rng, monkeypatch):
        write_scene(tmp_path, seed=5)
        report = run_pipeline(load_config(write_config(tmp_path)), tmp_path / "out")
        for name in ("report.json", "plumes.geojson"):
            text = (tmp_path / "out" / name).read_text(encoding="utf-8")
            assert text == stdlib(json.loads(text))
        # many rings, holes included, in scene metres
        plumes = connected_components(rng.random((60, 70)) > 0.45, 30.0, (355000.0, 4100000.0))
        geo = plumes_to_geojson(plumes)
        assert any(f["geometry"]["coordinates"][1:] for f in geo["features"])
        expected = [stdlib(report), stdlib(geo)]
        # both are inside the encoder's own subset: neither falls back to json
        monkeypatch.setattr(json, "dumps", None)
        assert [jsonfmt.dumps(report), jsonfmt.dumps(geo)] == expected

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            [[]],
            {"a": {}, "b": [], "c": [[], {}], "d": [{}, [[]]]},
            [[1.5, float("nan")], [2.5, 3.5]],
            [[1.5, float("inf")], [-float("inf"), 0.0]],
            {"ring": [[0.1, 0.2], [0.3, 0.4], [0.1, 0.2]]},
            [[1.0, True], [2.0, False]],
            [[1.0, 2], [3.0, 4.0]],
            [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]],
            ((1.0, 2.0), (3.0, 4.0)),
            [(1.0, 2.0), [3.0, 4.0]],
            [[1.0, None], [2.0, 3.0]],
            [["x", 1.0], ["y", 2.0]],
            [[[1.0, 2.0]], [[3.0, 4.0]]],
            {"name": "Zürich ☃   \"q\" \\ \n\t", "é": "\U0001f600"},
            "plain ü string",
            [np.float64(0.1), np.float64("nan"), np.float64(2.0) ** 80],
            [[np.float64(1.25), np.float64(2.5)], [3.0, 4.0]],
            {"level": Level.HIGH, "levels": [Level.LOW, Level.HIGH]},
            [True, False, None, 0, -3, 10**30, 1e-300, -0.0, 5e-324],
            {"b": 1, "a": {"d": [1, 2], "c": None}},
        ],
    )
    def test_edge_cases(self, obj):
        assert_same_text(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {1: "a", "b": 2},
            {1: "a", 2: "b"},
            {(1, 2): "tuple key"},
            {"a": {3.5: 1, None: 2}},
            {"a": object()},
            [np.int64(3)],
            {"a": np.array([1.0, 2.0])},
            [[1.0, 2.0], {1.0, 2.0}],
        ],
    )
    def test_outside_the_subset_matches_json_or_its_error(self, obj):
        try:
            expected = stdlib(obj)
        except (TypeError, ValueError) as err:
            with pytest.raises(type(err)) as got:
                jsonfmt.dumps(obj)
            assert str(got.value) == str(err)
        else:
            assert jsonfmt.dumps(obj) == expected

    def test_cycle_raises_the_json_error(self):
        loop = {"a": []}
        loop["a"].append(loop)
        with pytest.raises(ValueError, match="Circular reference detected"):
            jsonfmt.dumps(loop)
