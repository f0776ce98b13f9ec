"""Every JSON file is the text of ``json.dumps(obj, indent=2, sort_keys=True)``."""

import dataclasses
import json
import math

import numpy as np
import pytest

from plumeflux.cli import main
from plumeflux.config import load_config
from plumeflux.pipeline import run_pipeline, write_report
from plumeflux.segmentation import connected_components, geojson_text, plumes_to_geojson

from test_pipeline import write_config, write_scene
from test_segmentation import random_masks


def stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def coordinates(doc):
    return [v for f in doc["features"] for ring in f["geometry"]["coordinates"]
            for row in ring for v in row]


# (gsd, origin) of the plume documents, and what their coordinates hold
PLACES = {
    "scene metres": (30.0, (355000.0, 4100000.5)),
    "negative zero origin": (30.0, (-0.0, -0.0)),
    "infinite origin": (30.0, (math.inf, 0.0)),
    "nan origin": (7.5, (0.0, math.nan)),
    "large finite": (1e300, (1e300, -1e300)),
    "finite coordinates whose sum overflows": (1e306, (0.0, 0.0)),
    "coordinates that overflow": (1e308, (0.0, 0.0)),
}


class TestGeojsonText:
    @pytest.mark.parametrize("gsd, origin", PLACES.values(), ids=list(PLACES))
    def test_equals_json_dumps_on_masks_with_holes_and_pinches(self, gsd, origin):
        seen = {"holes": 0, "pinch": 0, "non-finite": 0}
        for m in random_masks(np.random.default_rng(8), 90):
            with np.errstate(over="ignore"):  # the last place overflows on purpose
                plumes = connected_components(m, gsd, origin)
            kept = [(p.polygon.copy(), [h.copy() for h in p.holes]) for p in plumes]
            doc = plumes_to_geojson(plumes)
            assert geojson_text(plumes) == stdlib(doc)
            for p, (polygon, holes) in zip(plumes, kept):  # the rings are left as they were
                assert p.polygon.tobytes() == polygon.tobytes()
                assert [h.tobytes() for h in p.holes] == [h.tobytes() for h in holes]
            seen["non-finite"] += not all(map(math.isfinite, coordinates(doc)))
            for p in connected_components(m, 1.0):
                seen["holes"] += bool(p.holes)
                seen["pinch"] += len({*map(tuple, p.polygon.tolist())}) < len(p.polygon) - 1
        assert seen["holes"] and seen["pinch"], seen
        assert bool(seen["non-finite"]) == (not all(map(math.isfinite, origin)) or gsd > 1e307)

    def test_negative_zero_and_the_non_finite_forms(self):
        m = np.ones((2, 3), dtype=bool)
        plumes = connected_components(m, 30.0, (-0.0, -0.0))
        text = geojson_text(plumes)
        # eastings 0.0 and northings -0.0: one value to np.unique, two texts to json
        assert "\n              0.0,\n" in text and "\n              -0.0\n" in text
        assert text == stdlib(plumes_to_geojson(plumes))
        text = geojson_text(connected_components(m, 30.0, (math.inf, math.nan)))
        assert "Infinity" in text and "NaN" in text

    def test_numpy_float_area_is_written_as_json_writes_it(self):
        # json writes a float subclass by float.__repr__: 900.0, where repr gives np.float64(900.0)
        plume = connected_components(np.ones((1, 1), dtype=bool), 30.0, (0.0, 0.0))[0]
        plume = dataclasses.replace(plume, area_m2=np.float64(plume.area_m2))
        text = geojson_text([plume])
        assert text == stdlib(plumes_to_geojson([plume]))
        assert '"area_m2": 900.0,' in text and "np.float64" not in text

    def test_empty_plume_list(self):
        assert geojson_text([]) == stdlib(plumes_to_geojson([])) == (
            '{\n  "features": [],\n  "type": "FeatureCollection"\n}'
        )

    def test_written_files_equal_json_dumps(self, tmp_path):
        write_scene(tmp_path, seed=5)
        run_pipeline(load_config(write_config(tmp_path)), tmp_path / "out")
        geo = json.loads((tmp_path / "out" / "plumes.geojson").read_text(encoding="utf-8"))
        assert geo["features"]
        for name in ("report.json", "plumes.geojson"):
            text = (tmp_path / "out" / name).read_text(encoding="utf-8")
            assert text == stdlib(json.loads(text))


class TestWriteReport:
    def test_equals_json_dumps_with_non_finite_and_non_ascii_values(self, tmp_path):
        report = {
            "flux_t_per_h": math.nan,
            "sigma_flux_t_per_h": math.inf,
            "floor": -math.inf,
            "sensor": "Zürich ☃ \"q\" \\ \n\t \U0001f600",
            "é": [{"b": 1, "a": [1.5, None, True, -0.0, 10**30]}, {}, []],
        }
        write_report(report, tmp_path / "report.json")
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert text == stdlib(report)
        assert "NaN" in text and "-Infinity" in text and "\\u00e9" in text

    def test_quantify_prints_json_dumps(self, capsys):
        argv = ["quantify", "--ime-kg", "820.91", "--area-m2", "2569892", "--u10", "3.0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == stdlib(json.loads(out)) + "\n"
