"""The whole-scene passes on the worker threads: the same bytes on any number of them.

The moments pass, the two kernel sweeps, the background match, the ctmf
feature build, the k-means steps and the output writes split their work across
``kernels.workers()`` threads. These tests set that count and compare every
output bit for bit; a tiny GIL switch interval makes the threads interleave,
so a buffer shared between two runs shows up as changed bytes.
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import plumeflux as pf
from plumeflux import kernels, matched_filter, pipeline
from plumeflux.background import match_background
from plumeflux.cli import main
from plumeflux.config import load_config
from plumeflux.matched_filter import MfConfig, kmeans, normalized_features, retrieve
from plumeflux.pipeline import run_pipeline, write_plumes
from plumeflux.scene_io import ingest_level2, write_cube, write_raster
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


def features(cube):
    """The ctmf features of ``cube``'s valid pixels, and their old form: a gather, then a normalisation."""
    Y = matched_filter._window_slab(cube, np.arange(cube.data.shape[0]))
    valid = ~cube.nodata_mask.ravel()
    return matched_filter._cluster_features(Y, np.flatnonzero(valid)), normalized_features(
        Y[:, valid].astype(np.float64).T)


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks small enough that each k-means pass over ``scene()``'s 8 222 pixels has some per thread."""
    monkeypatch.setattr(kernels, "label_step", lambda k, p: 500)
    monkeypatch.setattr(kernels, "_DIST_ROWS", 700)
    monkeypatch.setattr(kernels, "_PIXEL_CHUNK", 1000)
    monkeypatch.setattr(matched_filter, "_FEATURE_CHUNK", 900)


class TestKmeansWorkers:
    @staticmethod
    def same_on_any_workers(X, k, seed, monkeypatch):
        """kmeans's labels, step count and convergence, checked equal on 1, 2 and 3 threads."""
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "workers", lambda: workers)
            labels, steps, converged = kmeans(X, k, seed)
            results.append((labels.tobytes(), steps, converged))
        assert results[1] == results[0] and results[2] == results[0]
        return results[0]

    def test_kernels(self, monkeypatch, interleaved, small_chunks):
        # every value of the k-means kernels, a row subset's distances included
        X = features(scene())[0]
        centers = X[:: X.shape[0] // 6][:6]
        labels = kernels.assign_labels(X, centers)[0]
        rows = np.flatnonzero(np.random.default_rng(0).random(X.shape[0]) < 0.6)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "workers", lambda: workers)
            values = (*kernels.assign_labels(X, centers), *kernels.assign_labels(X, centers, rows),
                      *kernels.cluster_sums(X, labels, 6),
                      kernels.min_sqdist_update(X, centers[0], np.full(X.shape[0], np.inf)),
                      kernels.min_sqdist_update(X, centers, np.full(X.shape[0], np.inf), labels))
            results.append([v.tobytes() for v in values])
        assert results[1] == results[0] and results[2] == results[0]

    def test_cluster_sums_of_a_row_index(self, monkeypatch, interleaved):
        # kmeans's running-sum step: each moved row twice, under its new label and k + its old
        X = features(scene())[0]
        rng = np.random.default_rng(2)
        moved = np.flatnonzero(rng.random(X.shape[0]) < 0.1)
        rows, labels = np.concatenate([moved, moved]), rng.integers(0, 12, size=2 * moved.size)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "workers", lambda: workers)
            in_place = [v.tobytes() for v in kernels.cluster_sums(X, labels, 12, rows=rows)]
            assert in_place == [v.tobytes() for v in kernels.cluster_sums(X[rows], labels, 12)]
            results.append(in_place)
        assert results[1] == results[0] and results[2] == results[0]

    def test_bound_update(self, monkeypatch, interleaved, small_chunks):
        # the rows the bounds cannot settle are those moved() passes to assign_labels
        X = features(scene())[0]
        old = X[:: X.shape[0] // 6][:6]
        centers = old + 0.002 * np.random.default_rng(1).standard_normal(old.shape)
        assign, flagged = kernels.assign_labels, []

        def recording(X, centers, rows=None):
            if rows is not None:
                flagged.append(rows.copy())
            return assign(X, centers, rows)

        monkeypatch.setattr(kernels, "assign_labels", recording)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "workers", lambda: workers)
            lloyd = matched_filter._BoundedLabels(X)
            labels = lloyd.moved(lloyd.full(old), old, centers)
            results.append([v.tobytes() for v in (labels, lloyd.upper, lloyd.lower, flagged[-1])])
        assert len(flagged) == 3
        assert results[1] == results[0] and results[2] == results[0]
        assert 0 < flagged[0].size < X.shape[0]

    @pytest.mark.parametrize("float32", [True, False])
    def test_features_equal_the_normalized_gather(self, monkeypatch, interleaved, small_chunks, float32):
        cube = scene(float32)
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "workers", lambda: workers)
            feats, expected = features(cube)
            assert feats.flags.c_contiguous and feats.tobytes() == expected.tobytes()

    def test_scene(self, monkeypatch, interleaved, small_chunks):
        assert self.same_on_any_workers(features(scene())[0], 6, 0, monkeypatch)[1] > 2

    def test_near_tie_reruns(self, monkeypatch, interleaved, small_chunks):
        # a wide margin puts many recomputed rows inside it, so whole chunks run again
        monkeypatch.setattr(matched_filter, "_MARGIN", 0.05)
        assign, reruns = kernels.assign_labels, []

        def recording(X, centers, rows=None):
            reruns.append(rows is None and X.shape[0] == 500)
            return assign(X, centers, rows)

        monkeypatch.setattr(kernels, "assign_labels", recording)
        self.same_on_any_workers(features(scene())[0], 6, 0, monkeypatch)
        assert sum(reruns) > 3

    def test_empty_cluster(self, monkeypatch, interleaved):
        # the points of TestKmeansMatchesPlainLloyd's empty-cluster case, in 2-row chunks
        monkeypatch.setattr(kernels, "label_step", lambda k, p: 2)
        monkeypatch.setattr(kernels, "_DIST_ROWS", 2)
        monkeypatch.setattr(kernels, "_PIXEL_CHUNK", 2)
        X = np.array([-2.5939996354485495, -4.865790190975382, -2.089178026314915,
                      0.834278274770828, 0.3074876332250506, -11.49807768747803,
                      -2.370933443626862, -3.052909875050551])[:, None]
        update, reseeds = kernels.min_sqdist_update, []

        def recording(X, centers, d2, labels=None):
            reseeds.append(labels is not None)
            return update(X, centers, d2, labels)

        monkeypatch.setattr(kernels, "min_sqdist_update", recording)
        self.same_on_any_workers(X, 4, 49829, monkeypatch)
        assert any(reseeds)


class TestRuns:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_runs_cover_the_items_in_order(self, monkeypatch, workers):
        monkeypatch.setattr(kernels, "workers", lambda: workers)
        for sizes in ([], [5], [1, 1], [16] * 15 + [3], [100, 1, 1, 1], list(range(1, 30))):
            runs = kernels.runs(sizes)
            assert len(runs) <= workers and all(r.start < r.stop for r in runs)
            assert [i for r in runs for i in range(r.start, r.stop)] == list(range(len(sizes)))
        assert len(kernels.runs([1] * 16)) == min(workers, 16)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_in_chunks_hands_each_run_its_chunks_and_buffers(self, monkeypatch, workers):
        monkeypatch.setattr(kernels, "workers", lambda: workers)
        step = 4
        for n in (0, 1, step - 1, step, 5 * step + 3):
            made, calls = [], []

            def scratch(size):
                made.append((size, np.empty(size), np.empty((size, 3))))
                return made[-1][1:]

            def fn(lo, hi, a, b):
                calls.append((lo, hi, a, b))

            kernels.in_chunks(fn, n, step, scratch)
            if n == 0:
                assert made == [] and calls == []
                continue
            # every chunk once, each of step items but the last
            assert sorted((lo, hi) for lo, hi, _, _ in calls) == [(lo, min(lo + step, n))
                                                                  for lo in range(0, n, step)]
            assert 1 <= len(made) <= workers and all(size == min(step, n) for size, _, _ in made)
            # each buffer is its run's buffer cut to the chunk's hi - lo leading rows
            for lo, hi, a, b in calls:
                assert a.shape == (hi - lo,) and b.shape == (hi - lo, 3)
            runs = [[(lo, hi) for lo, hi, a, b in calls if a.base is run_a and b.base is run_b]
                    for _, run_a, run_b in made]
            # the runs, in the order their buffers were made, cover range(n) in order
            assert [i for run in runs for lo, hi in run for i in range(lo, hi)] == list(range(n))
            assert all(run for run in runs)

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

    def test_a_forked_child_makes_its_own_pool(self):
        # the child inherits the parent's pool but none of its threads; in a fresh
        # interpreter, so the test process never forks, and the child is killed
        # by SIGALRM if it waits on a pool that has no threads
        script = textwrap.dedent("""
            import os, signal
            from plumeflux import kernels
            kernels.workers = lambda: 2
            assert kernels.in_parallel(abs, [-1, -2]) == [1, 2]
            pid = os.fork()
            if pid == 0:
                signal.alarm(20)
                ok = False
                try:
                    ok = kernels.in_parallel(abs, [-3, -4]) == [3, 4]
                finally:
                    os._exit(0 if ok else 1)
            assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
            assert kernels.in_parallel(abs, [-5, -6]) == [5, 6]
        """)
        src = str(Path(kernels.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                             timeout=60)
        assert run.returncode == 0, run.stderr


class TestPooledWrites:
    """``write_plumes`` writes the rasters on the pool while the calling thread formats and
    writes plumes.geojson."""

    @pytest.fixture
    def level2(self, tmp_path):
        """A 300 x 300 level-2 product with two plumes and its config. Its GeoJSON weighs less
        than a raster, so the label raster is written on the pool in both commands below."""
        rng = np.random.default_rng(6)
        values = rng.standard_normal((300, 300)) * 20
        values[30:60, 40:90] += 800.0
        values[120:170, 100:180] += 600.0
        nodata = rng.random(values.shape) < 0.01
        write_raster(values, tmp_path / "enh", 30.0, (355000.0, 4100000.5), nodata)
        write_raster(np.full(values.shape, 25.0), tmp_path / "sig", 30.0, (355000.0, 4100000.5))
        doc = {"input": {"enhancement": str(tmp_path / "enh"), "sigma": str(tmp_path / "sig")},
               "wind": {"u10": 3.0}}
        (tmp_path / "l2.yaml").write_text(yaml.safe_dump(doc))
        return tmp_path / "l2.yaml"

    @staticmethod
    def record_writes(monkeypatch, wait=0.0):
        """Each write's file name and thread as it starts, and the names of the writes still
        running; a payload's write waits ``wait`` seconds first."""
        started, running = [], set()
        write_file = pipeline.write_file

        def recorded(path, data):
            started.append((path.name, threading.get_ident()))
            running.add(path.name)
            if path.suffix == ".bin":
                threading.Event().wait(wait)
            try:
                write_file(path, data)
            finally:
                running.discard(path.name)

        monkeypatch.setattr(pipeline, "write_file", recorded)
        return started, running

    def test_outputs_equal_the_serial_order(self, level2, tmp_path, monkeypatch, interleaved):
        started, _ = self.record_writes(monkeypatch)
        here = threading.get_ident()
        for command in ("pipeline", "segment"):
            written = {}
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(kernels, "workers", lambda: workers)
                started.clear()
                out = tmp_path / f"{command}_{workers}"
                assert main([command, "--config", str(level2), "--output", str(out)]) == 0
                written[workers] = {f.name: f.read_bytes() for f in out.iterdir() if f.name != "report.json"}
                if command == "pipeline":
                    report = json.loads((out / "report.json").read_text())
                    written[workers]["report.json"] = {**report, "timings_s": None}
                threads = dict(started)
                assert threads.pop("plumes.geojson") == here
                assert {t == here for t in threads.values()} == ({True} if workers == 1 else {True, False})
                if workers == 1:  # the serial order: the layers, the label raster, the GeoJSON
                    names = ["plume_mask.hdr", "plume_mask.bin", "plumes.geojson", "segmentation.json"]
                    if command == "pipeline":
                        names = ["enhancement.hdr", "enhancement.bin", "sigma_total.hdr", "sigma_total.bin",
                                 *names[:3], "report.json"]
                    assert [name for name, _ in started] == names
            assert all(w == written[1] for w in written.values())
            assert json.loads(written[1]["plumes.geojson"])["features"]

    @pytest.mark.parametrize("command, workers", [("segment", 2), ("pipeline", 3)])
    @pytest.mark.parametrize("name", ["plume_mask.bin", "plumes.geojson"])
    def test_a_file_that_cannot_be_written_is_one_error(
        self, level2, tmp_path, monkeypatch, capsys, command, workers, name
    ):
        monkeypatch.setattr(kernels, "workers", lambda: workers)
        started, _ = self.record_writes(monkeypatch)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)  # a directory in the file's place
        assert main([command, "--config", str(level2), "--output", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [f"error: cannot write {out / name}: Is a directory"]
        # the label raster is written on the pool, the GeoJSON on the calling thread
        assert (dict(started)[name] == threading.get_ident()) == (name == "plumes.geojson")

    @pytest.mark.parametrize("squat", [False, True])
    def test_no_write_runs_on_after_the_writer(self, level2, tmp_path, monkeypatch, squat):
        monkeypatch.setattr(kernels, "workers", lambda: 2)
        field = ingest_level2(tmp_path / "enh", tmp_path / "sig")
        plumes, _ = pf.segment_field(field, pf.SegmentationParams())
        started, running = self.record_writes(monkeypatch, wait=0.2)
        out = tmp_path / "out"
        if squat:
            (out / "plumes.geojson").mkdir(parents=True)
            with pytest.raises(pf.DataError, match="plumes.geojson"):
                write_plumes(out, field, plumes, layers=True)
        else:
            write_plumes(out, field, plumes, layers=True)
        assert not running
        pooled = [name for name, thread in started if thread != threading.get_ident()]
        assert pooled and all((out / name).stat().st_size for name in pooled)


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
            "segmentation.robust_threshold", "kernels.assign_labels", "kernels.cluster_sums"} <= names
    assert {ident for _, ident in calls} == {threading.get_ident()}
    assert any(t.name.startswith("plumeflux-slab") for t in threading.enumerate())
