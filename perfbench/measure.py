"""The measuring process: warm-up, timed pipeline runs, checks and tracing.

    python3 perfbench/measure.py --scene DIR [DIR ...] --workdir DIR --seconds S \
        --trace 0|1 --budget B --result FILE

Runs in a fresh interpreter that never synthesizes a scene, so its peak RSS
is set by the pipeline. Each timed sample is one ``run_pipeline`` call after
one untimed warm-up call; the samples take the scenes in turn. Samples start
until ``--seconds`` have passed and each scene ran at least once, but none
starts once it would end past ``--budget`` seconds of this process. Every
run, the warm-up included, is checked (``checks.check_run``) against the
first run of its scene, and a run that raises or fails a check counts as
failed. With ``--trace 1`` the warm-up and every other timed sample run
under the tracer; each untraced sample before a traced one, on the same
scene, gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import check_run
from tracing import Tracer, inclusive_times, maxrss_mb, self_times

START = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]

# spans whose inclusive seconds are reported as the per-layer metric <span>_s
TIMED_SPANS = (
    "scene_io.read_cube",
    "scene_io.ingest_level2",
    "scene_io.write_raster",
    "signature.band_absorption",
    "matched_filter.compute_stats",
    "matched_filter.kmeans",
    "matched_filter.apply_mf",
    "matched_filter.decontaminate",
    "matched_filter.propagate_noise",
    "kernels.mf_scores",
    "kernels.noise_variance",
    "kernels.assign_labels",
    "kernels.cluster_sums",
    "background.match_background",
    "segmentation.segment_field",
    "segmentation.morphology",
    "segmentation.connected_components",
    "quantification.quantify_plume",
)
# per-layer metrics that are tracer counters
COUNTS = (
    "scene_io.read_bytes",
    "scene_io.write_bytes",
    "matched_filter.apply_mf_calls",
    "matched_filter.segments",
    "kernels.mf_scores_calls",
    "kernels.assign_labels_calls",
    "kernels.cluster_sums_calls",
    "kernels.kmeans_iterations",
    "kernels.kmeans_hit_cap",
    "segmentation.components",
    "segmentation.trace_polygon_calls",
    "quantification.integrate_ime_calls",
)
# per-layer metric -> ru_maxrss (MB) at the end of the first such span
FIRST_SPAN_RSS = {
    "scene_io.read_cube_peak_rss_mb": "scene_io.read_cube",
    "segmentation.peak_rss_mb": "segmentation.segment_field",
}


def silent_failures(report: dict) -> dict[str, int]:
    """Counters of work a run quietly skipped, read from the report."""
    provenance = report["provenance"]
    return {
        "matched_filter.pooled_segments": provenance.count("pooled"),
        "matched_filter.decon_skipped_segments": provenance.count("decontamination skipped"),
        "background.insufficient": int(bool(report["background"].get("insufficient"))),
    }


def layer_metrics(traced: list[dict], first: dict, overhead: float) -> dict[str, float]:
    """Medians over the traced timed samples of every per-layer metric."""
    per_sample = []
    for t in traced:
        incl = inclusive_times(t["spans"])
        row = {f"{span}_s": incl.get(span, 0.0) for span in TIMED_SPANS}
        row.update({f"{layer}.self_s": s for layer, s in self_times(t["spans"]).items()})
        row.update({c: t["counters"].get(c, 0) for c in COUNTS})
        row.update(silent_failures(t["report"]))
        per_sample.append(row)
    out = {m: statistics.median(r[m] for r in per_sample) for m in per_sample[0]}
    for metric, span in FIRST_SPAN_RSS.items():
        rss = [s["maxrss_mb"] for s in first["spans"] if s["name"] == span]
        out[metric] = rss[0] if rss else 0.0
    out["trace.overhead_frac"] = overhead
    return out


def ime_rel_err(report: dict, truth: dict) -> float:
    """Largest plume IME against the single injected plume, or the summed
    IME against the summed injected truth when many plumes were injected."""
    imes = [p["ime_kg"] for p in report["plumes"]]
    retrieved = imes[0] if truth["injected_plumes"] == 1 else sum(imes)
    return abs(retrieved / truth["ime_true_kg"] - 1.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scene", type=Path, nargs="+", required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import numpy
    import scipy

    import plumeflux

    if Path(plumeflux.__file__).resolve().parent != ROOT / "src" / "plumeflux":
        print(f"error: plumeflux imported from {plumeflux.__file__}, not src/", file=sys.stderr)
        return 2
    from plumeflux import kernels, pipeline
    from plumeflux.config import load_config

    truths = [json.loads((d / "truth.json").read_text()) for d in args.scene]
    configs = [load_config(d / "config.yaml") for d in args.scene]
    reference: dict[int, dict] = {}  # scene -> output hashes of its first good run
    report_ok: dict[int, dict] = {}  # scene -> report of its first good run

    def run(scene: int, traced: bool) -> dict:
        tracer = Tracer() if traced else None
        failures: list[str] = []
        report = None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            # looked up on the module so that the tracer's wrapper is called
            report = pipeline.run_pipeline(configs[scene], args.workdir)
        except Exception as exc:  # a raising run is a failed sample, not a crash
            traceback.print_exc()
            failures.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        if report is not None:
            try:
                found, hashes = check_run(args.workdir, report, reference.get(scene))
            except (OSError, ValueError, KeyError) as exc:
                found, hashes = [f"outputs unreadable: {exc!r}"], None
            failures += found
            if not found and scene not in reference:
                reference[scene] = hashes
                report_ok[scene] = report
        for f in failures:
            print(f"check failed: {f}", file=sys.stderr)
        sample = {"seconds": seconds, "traced": traced, "failures": failures, "report": report}
        if tracer:
            sample.update(spans=tracer.spans, counters=tracer.counters)
        return sample

    warmup = run(0, traced=bool(args.trace))
    samples: list[dict] = []
    t_start = time.perf_counter()
    longest = warmup["seconds"]
    min_samples = len(configs)  # one untraced sample per scene, and one traced with --trace 1
    while True:
        n_untraced = sum(not s["traced"] for s in samples)
        enough = n_untraced >= min_samples and (not args.trace or len(samples) >= 2 * min_samples)
        if enough and time.perf_counter() - t_start >= args.seconds:
            break
        if samples and time.perf_counter() - START + longest > args.budget:
            break
        k = len(samples)
        if args.trace:
            samples.append(run((k // 2) % len(configs), traced=k % 2 == 1))
        else:
            samples.append(run(k % len(configs), traced=False))
        longest = max(longest, samples[-1]["seconds"])

    runs = [warmup] + samples
    ok_times = [s["seconds"] for s in samples if not s["traced"] and s["report"] is not None]
    result = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "kernel_backend": kernels.backend_name(),
        },
        "attempted": len(runs),
        "failed": sum(bool(s["failures"]) for s in runs),
        "failures": [f for s in runs for f in s["failures"]],
        "samples": len(ok_times),
        "sample_seconds": [s["seconds"] for s in samples],
        "pipeline_s": statistics.median(ok_times) if ok_times else None,
        "ime_rel_err": statistics.fmean(ime_rel_err(report_ok[i], truths[i]) for i in report_ok)
        if len(report_ok) == len(configs)
        else None,
        "plume_count": [report_ok[i]["plume_count"] for i in sorted(report_ok)],
        "peak_rss_mb": maxrss_mb(),
    }
    if args.trace:
        traced = [s for s in samples if s["traced"] and s["report"] is not None]
        if traced and ok_times:
            overhead = statistics.median(s["seconds"] for s in traced) / result["pipeline_s"] - 1.0
            result["layers"] = layer_metrics(traced, warmup, overhead)
        result["traced_samples"] = len(traced)
        spans = [dict(span, sample=i) for i, s in enumerate(runs) if s["traced"] for span in s["spans"]]
        result["spans_file"] = str(args.result.with_suffix(".spans.json"))
        Path(result["spans_file"]).write_text(json.dumps(spans))
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
