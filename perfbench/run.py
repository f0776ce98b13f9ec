"""The plumeflux benchmark: warm pipeline time, memory and IME error per workload.

    python3 perfbench/run.py --workload l1_cwcmf_512 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15
    python3 perfbench/run.py --workload all --seed 0 --seconds 0 --smoke

Run it from anywhere inside a source checkout; it imports plumeflux from
``src/`` of the checkout it sits in and exits with code 2 if that is missing.
For each workload it

1. generates the run's scenes, seeds 3s, 3s+1 and 3s+2 for ``--seed s``,
   each in its own process (``scenes.py``), or reuses them from
   ``.perfbench_cache/scenes`` when the same generator made them before;
2. times set-up (``setup_s``): fresh interpreters that import plumeflux and
   load the run config, after one untimed interpreter that fills the
   bytecode cache;
3. measures in a fresh process (``measure.py``): one untimed warm-up, then
   timed ``run_pipeline`` calls on the scenes in turn for ``--seconds``,
   each checked. ``pipeline_s`` is the median of the timed calls and
   ``ime_rel_err`` the mean over the scenes: the ctmf error moves by a
   tenth from scene to scene with the k-means partition.

It prints the environment, a table of every metric with its unit and sample
count, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``attempted``
counts every ``run_pipeline`` call, the warm-up included, and ``failed``
those that raised or failed a check (``failed_frac`` in the table). The
full result goes to ``.perfbench_cache/results``; ``compare.py`` compares
two such files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scenes import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
# each workload must end within this many seconds of its start
DEADLINE_S = 170.0
SETUP_REPEATS = 5
# Each run measures this many scenes. On about one scene in ten, k-means in
# ctmf converges long before its iteration cap and the pipeline takes half
# the time; the median time over three scenes stays steady from seed to seed.
SCENES = 3
# what the generated scenes depend on besides the seed: a change to any of
# these files makes a new cache entry
GENERATOR_FILES = (
    HERE / "scenes.py",
    HERE / "checks.py",
    SRC / "plumeflux" / "simulator.py",
    SRC / "plumeflux" / "scene_io.py",
    SRC / "plumeflux" / "signature.py",
    SRC / "plumeflux" / "quantification.py",
    SRC / "plumeflux" / "data" / "ch4_synthetic_absorption.txt",
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import plumeflux
from plumeflux.config import load_config
load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a Python child with src/ on its path. Its stdout is captured, so
    that the result stays the last line of ours; its stderr passes through."""
    return subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=max(1.0, timeout),
        check=True,
        text=True,
    )


def scene(workload: str, seed: int, smoke: bool, deadline: float) -> Path:
    """Directory of the generated scene, generating it on a cache miss."""
    h = hashlib.sha256()
    for f in GENERATOR_FILES:
        h.update(hashlib.sha256(f.read_bytes()).digest())
    gen = h.hexdigest()[:12]
    out = CACHE / "scenes" / f"{workload}{'-smoke' if smoke else ''}-s{seed}-{gen}"
    if not (out / "truth.json").exists():
        argv = [str(HERE / "scenes.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
        run_child(argv + (["--smoke"] if smoke else []), timeout=deadline - time.monotonic())
    return out


def setup_seconds(scene_dir: Path, repeats: int, deadline: float) -> list[float]:
    config = str(scene_dir / "config.yaml")
    times = []
    for i in range(repeats + 1):
        proc = run_child(["-c", SETUP_CODE, config], timeout=deadline - time.monotonic())
        if i:  # the first interpreter compiles bytecode and is not timed
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    scene_dirs = [scene(workload, args.seed * SCENES + i, args.smoke, deadline) for i in range(SCENES)]
    truths = [json.loads((d / "truth.json").read_text()) for d in scene_dirs]
    setup = [] if args.trace else setup_seconds(scene_dirs[0], 1 if args.smoke else SETUP_REPEATS, deadline)
    tag = f"{workload}{'-smoke' if args.smoke else ''}-s{args.seed}-t{args.trace}"
    result_file = CACHE / "results" / f"{tag}.measure.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    budget = deadline - time.monotonic() - 5.0
    run_child(
        [
            str(HERE / "measure.py"),
            "--scene", *map(str, scene_dirs),
            "--workdir", str(CACHE / "work" / workload),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--budget", str(budget),
            "--result", str(result_file),
        ],
        timeout=budget + 10.0,
    )
    m = json.loads(result_file.read_text())
    m["setup_seconds"] = setup
    m["input"] = {k: truths[0][k] for k in ("input_bytes", "valid_pixels", "window_bands")}
    m["input"]["scenes"] = [
        {k: t[k] for k in ("seed", "payload_sha256", "ime_true_kg", "injected_plumes")} for t in truths
    ]
    return m


def end_to_end(m: dict) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count)."""
    n = m["samples"]
    return {
        "pipeline_s": (m["pipeline_s"], n),
        "throughput_mpix_s": (m["input"]["valid_pixels"] / 1e6 / m["pipeline_s"], n),
        "peak_rss_mb": (m["peak_rss_mb"], 1),
        "setup_s": (statistics.median(m["setup_seconds"]), len(m["setup_seconds"])),
        "ime_rel_err": (m["ime_rel_err"], len(m["input"]["scenes"])),
    }


def complete(m: dict, trace: int) -> bool:
    """Whether every metric of the mode could be computed."""
    return "layers" in m if trace else m["pipeline_s"] is not None and m["ime_rel_err"] is not None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny scenes; a few seconds in all")
    args = ap.parse_args(argv)

    if not (SRC / "plumeflux" / "__init__.py").is_file():
        print(f"error: no plumeflux sources at {SRC / 'plumeflux'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measured = {}
    try:
        for w in names:
            measured[w] = run_workload(w, args)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(map(str, exc.cmd[:2]))} exited with {exc.returncode}", file=sys.stderr)
        return 3
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    first = next(iter(measured.values()))
    environment = dict(first["environment"], git_commit=git_commit())
    environment["workloads"] = {w: m["input"] for w, m in measured.items()}
    print("environment: " + json.dumps(environment, sort_keys=True))

    metrics: dict[str, dict] = {}
    rows = []
    for w, m in measured.items():
        prefix = f"{w}." if len(names) > 1 else ""
        if args.trace:
            values = {k: (v, m["traced_samples"]) for k, v in m.get("layers", {}).items()}
        else:
            values = end_to_end(m) if complete(m, 0) else {}
        for k, (v, n) in values.items():
            rows.append((w, k, v, UNITS[k], n))
            metrics[prefix + k] = {"value": v, "unit": UNITS[k]}
        rows.append((w, "failed_frac", m["failed"] / m["attempted"], "ratio", m["attempted"]))

    print(f"{'workload':<16} {'metric':<40} {'value':>14} {'unit':<9} {'n':>4}")
    for w, k, v, unit, n in rows:
        print(f"{w:<16} {k:<40} {v:>14.6g} {unit:<9} {n:>4}")
    for w, m in measured.items():
        for f in m["failures"]:
            print(f"{w}: check failed: {f}")

    attempted = sum(m["attempted"] for m in measured.values())
    failed = sum(m["failed"] for m in measured.values())
    correct = failed == 0 and all(complete(m, args.trace) for m in measured.values())
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-s{args.seed}-t{args.trace}"
    result_path = CACHE / "results" / f"{tag}.json"
    full = {"environment": environment, "workloads": measured, "result": line}
    result_path.write_text(json.dumps(full, indent=1, sort_keys=True))
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
