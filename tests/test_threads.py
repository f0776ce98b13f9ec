"""The slab passes on the worker threads: the same bytes on any number of them.

The moments pass, the two kernel sweeps and the background match split their
chunks across ``kernels.workers()`` threads. These tests set that count and
compare every output bit for bit; a tiny GIL switch interval makes the
threads interleave, so a buffer shared between two runs shows up as changed
bytes.
"""

import dataclasses
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import plumeflux as pf
from plumeflux import kernels, matched_filter
from plumeflux.background import match_background
from plumeflux.config import load_config
from plumeflux.matched_filter import MfConfig, retrieve
from plumeflux.pipeline import run_pipeline
from plumeflux.scene_io import write_cube
from plumeflux.signature import band_absorption, load_bundled_table

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def interleaved():
    """Switch threads at every chance, so that two runs sharing a buffer collide."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(before)


def scene(float32=True):
    """101 x 87 pixels of 20 bands with a plume, column gains and a noise model.

    Nodata: a block, scattered pixels and column 40 but for 6 valid pixels,
    fewer than p + 1, so cwcmf pools it with its neighbours. 8787 pixels are
    no multiple of any chunk below.
    """
    params = pf.SimParams(
        lines=101, samples=87, n_bands=20, noise_a=4e-5, noise_c=1e-4, column_gain_amplitude=0.02,
        endmember_levels=(8.0, 12.0), endmember_tilts=(0.0, 0.3), mixing_smoothness_px=6,
        plume=pf.SyntheticPlumeSpec(center=(50, 43), peak_delta_x=900.0), seed=3,
    )
    cube, _ = pf.simulate_scene(params)
    rng = np.random.default_rng(8)
    nodata = rng.random((101, 87)) < 0.03
    nodata[10:20, 5:30] = True
    nodata[6:, 40] = True
    data = cube.data.astype(np.float32) if float32 else cube.data
    return dataclasses.replace(cube, data=data, nodata_mask=nodata)


def outputs(cube, variant, workers, monkeypatch):
    """Every byte of a retrieval and a background match with ``workers`` threads."""
    monkeypatch.setattr(kernels, "workers", lambda: workers)
    config = MfConfig(variant=variant, cluster_count=4, contamination_iterations=2)
    absorption = band_absorption(load_bundled_table(), cube.descriptor, config.window)
    field, stats = retrieve(cube, absorption, config)
    plume = np.zeros(cube.nodata_mask.shape, dtype=bool)
    plume[45:56, 38:49] = True
    selection = match_background(cube, absorption, plume, n_select=2000, buffer_m=60.0)
    arrays = [field.delta_x, field.sigma_noise, stats.segment_map, *stats.fit, stats.q, stats.denom,
              selection.pixel_indices, selection.similarity_scores]
    return [a.tobytes() for a in arrays] + [field.provenance, selection.insufficient]


class TestWorkerCount:
    @pytest.mark.parametrize("variant", ["cmf", "cwcmf", "ctmf"])
    @pytest.mark.parametrize("chunks", ["default", "small"])
    def test_outputs_do_not_depend_on_the_worker_count(self, monkeypatch, interleaved, variant, chunks):
        if chunks == "small":
            # 1000 pixels (11 whole lines of 87 for a column partition) per
            # sweep and about 700 pixels per moments chunk: every pass has
            # chunks for each thread, and a short last one
            monkeypatch.setattr(kernels, "_PIXEL_CHUNK", 1000)
            monkeypatch.setattr(matched_filter, "_CHUNK_BYTES", 700 * 20 * 8)
        cube = scene()
        one = outputs(cube, variant, 1, monkeypatch)
        assert "pooled" in one[-2] or variant != "cwcmf"
        for workers in (2, 3):
            assert outputs(cube, variant, workers, monkeypatch) == one

    @pytest.mark.parametrize("variant", ["cmf", "ctmf"])
    def test_float64_cube_is_split_the_same_way(self, monkeypatch, interleaved, variant):
        monkeypatch.setattr(kernels, "_PIXEL_CHUNK", 1000)
        monkeypatch.setattr(matched_filter, "_CHUNK_BYTES", 700 * 20 * 8)
        cube = scene(float32=False)
        assert outputs(cube, variant, 2, monkeypatch) == outputs(cube, variant, 1, monkeypatch)


class TestRuns:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_runs_cover_the_items_in_order(self, monkeypatch, workers):
        monkeypatch.setattr(kernels, "workers", lambda: workers)
        for sizes in ([], [5], [1, 1], [16] * 15 + [3], [100, 1, 1, 1], list(range(1, 30))):
            runs = kernels.runs(sizes)
            assert len(runs) <= workers and all(r.start < r.stop for r in runs)
            assert [i for r in runs for i in range(r.start, r.stop)] == list(range(len(sizes)))
        assert len(kernels.runs([1] * 16)) == min(workers, 16)

    def test_a_failing_part_is_raised_after_every_part_ended(self, monkeypatch):
        monkeypatch.setattr(kernels, "workers", lambda: 2)
        ended = []

        def part(i):
            if i == 1:
                raise ValueError("part 1")
            threading.Event().wait(0.05)
            ended.append(i)
            return i

        with pytest.raises(ValueError, match="part 1"):
            kernels.in_parallel(part, [0, 1])
        assert ended == [0]
        assert kernels.in_parallel(lambda i: i * i, [3, 4]) == [9, 16]


def test_traced_functions_run_on_the_calling_thread(tmp_path, monkeypatch):
    # the benchmark's per-layer spans assume one thread: nothing it traces may
    # run on a pool thread
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import TRACED
    finally:
        sys.path.remove(str(PERFBENCH))
    calls = []

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n.startswith("plumeflux.")]
    for layer, func in TRACED:
        original = getattr(sys.modules["plumeflux." + layer], func)
        wrapper = recorder(f"{layer}.{func}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(kernels, "workers", lambda: 2)
    write_cube(scene(), tmp_path / "cube")
    for variant in ("cmf", "cwcmf", "ctmf"):
        doc = {"input": {"cube": str(tmp_path / "cube")}, "mf": {"variant": variant},
               "wind": {"u10": 3.0}}
        (tmp_path / "run.yaml").write_text(yaml.safe_dump(doc))
        run_pipeline(load_config(tmp_path / "run.yaml"), tmp_path / variant)
    names = {name for name, _ in calls}
    assert {"kernels.mf_scores", "kernels.noise_variance", "background.match_background",
            "segmentation.robust_threshold", "kernels.assign_labels"} <= names
    assert {ident for _, ident in calls} == {threading.get_ident()}
    assert any(t.name == "plumeflux-slab" for t in threading.enumerate())
