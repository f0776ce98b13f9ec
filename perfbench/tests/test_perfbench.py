"""Tests of the benchmark itself, on the tiny smoke scenes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check_run  # noqa: E402
from compare import mismatches  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_untraced():
    proc = run_bench("--workload", "all", "--seed", "0", "--seconds", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def smoke_traced():
    proc = run_bench("--workload", "all", "--seed", "0", "--seconds", "0", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc


def test_untraced_smoke_reports_every_end_to_end_metric(smoke_untraced):
    line = last_json(smoke_untraced.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 4 * len(WORKLOADS)
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert set(line["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name.split(".", 1)[1]]
        assert metric["value"] > 0
    # the table names failed_frac, and every metric, with unit and count
    assert smoke_untraced.stdout.count("failed_frac") == len(WORKLOADS)


def test_traced_smoke_reports_every_per_layer_metric(smoke_traced):
    line = last_json(smoke_traced.stdout)
    assert line["correct"] and line["failed"] == 0
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["per_layer"]}
    assert set(line["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name.split(".", 1)[1]]
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["l1_cwcmf_512.scene_io.read_bytes"] > 0
    assert m["l1_cwcmf_512.kernels.mf_scores_calls"] > 0
    assert m["l1_ctmf_256.kernels.kmeans_iterations"] >= 1
    assert m["l2_plumes_1024.segmentation.trace_polygon_calls"] >= 1
    assert m["l2_plumes_1024.kernels.mf_scores_calls"] == 0


def test_generator_is_seeded(tmp_path):
    def truth(seed, name):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, str(BENCH / "scenes.py"), "--workload", "l2_plumes_1024",
             "--seed", str(seed), "--out", str(out), "--smoke"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            check=True,
            timeout=120,
        )
        return json.loads((out / "truth.json").read_text())

    a, b, c = truth(5, "a"), truth(5, "b"), truth(6, "c")
    assert a["payload_sha256"] == b["payload_sha256"]
    assert a["payload_sha256"] != c["payload_sha256"]
    assert a["injected_plumes"] == 9 and a["ime_true_kg"] > 0


def test_checks_catch_a_changed_mask(smoke_untraced, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(ROOT / ".perfbench_cache" / "work" / "l2_plumes_1024", out)
    report = json.loads((out / "report.json").read_text())
    failures, hashes = check_run(out, report, None)
    assert failures == []
    mask = out / "plume_mask.bin"
    raw = bytearray(mask.read_bytes())
    first = next(i for i in range(0, len(raw), 4) if raw[i : i + 4] == b"\x00\x00\x80\x3f")
    raw[first : first + 4] = bytes(4)  # one pixel of plume 1 relabeled 0
    mask.write_bytes(bytes(raw))
    failures, _ = check_run(out, report, hashes)
    assert any("IME" in f for f in failures)
    assert any("differ from the first run" in f for f in failures)


def test_compare_refuses_other_backend_size_or_scenes():
    scenes = [{"seed": 0, "payload_sha256": {"a.bin": "00"}}]
    env = {"kernel_backend": "numpy",
           "workloads": {"w": {"input_bytes": 10, "valid_pixels": 4, "window_bands": 2,
                               "scenes": scenes}}}
    base = {"environment": env}
    assert mismatches(base, json.loads(json.dumps(base))) == []
    other = json.loads(json.dumps(base))
    other["environment"]["kernel_backend"] = "numba"
    other["environment"]["workloads"]["w"]["valid_pixels"] = 5
    assert len(mismatches(base, other)) == 2
    other = json.loads(json.dumps(base))
    other["environment"]["workloads"]["w"]["scenes"][0]["payload_sha256"]["a.bin"] = "01"
    assert mismatches(base, other) == ["w: scene payload_sha256s differ"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
