"""Span tracing of plumeflux layers by patching module attributes.

``Tracer.install()`` replaces each traced public function with a wrapper
wherever a plumeflux module binds it, including names brought in with
``from .x import y``; ``uninstall()`` puts the originals back. The program
source is not edited. Each span records its name, start, end, parent and the
process's peak RSS at its end; the spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time
from pathlib import Path

# (module, function) pairs; the module name is the layer
TRACED = (
    ("pipeline", "run_pipeline"),
    ("scene_io", "read_cube"),
    ("scene_io", "read_raster"),
    ("scene_io", "ingest_level2"),
    ("scene_io", "write_raster"),
    ("signature", "band_absorption"),
    ("matched_filter", "compute_stats"),
    ("matched_filter", "kmeans"),
    ("matched_filter", "apply_mf"),
    ("matched_filter", "decontaminate"),
    ("matched_filter", "propagate_noise"),
    ("kernels", "mf_scores"),
    ("kernels", "noise_variance"),
    ("kernels", "assign_labels"),
    ("kernels", "cluster_sums"),
    ("background", "match_background"),
    ("background", "clutter_sigma"),
    ("background", "total_sigma"),
    ("segmentation", "robust_threshold"),
    ("segmentation", "segment_field"),
    ("segmentation", "morphology"),
    ("segmentation", "connected_components"),
    ("segmentation", "trace_polygon"),
    ("segmentation", "plumes_to_geojson"),
    ("quantification", "quantify_plume"),
    ("quantification", "integrate_ime"),
)
LAYERS = (
    "scene_io",
    "signature",
    "matched_filter",
    "kernels",
    "background",
    "segmentation",
    "quantification",
    "pipeline",
)


def maxrss_mb() -> float:
    """Peak resident set of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_bytes(path) -> int:
    """Bytes of a header + payload pair named by ``path`` (either suffix or none)."""
    base = Path(path)
    if base.suffix in (".hdr", ".bin"):
        base = base.with_suffix("")
    return sum(
        os.path.getsize(p) for p in (base.with_suffix(".hdr"), base.with_suffix(".bin")) if p.exists()
    )


class Tracer:
    """Collects spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            before = dict(self.counters) if after is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["maxrss_mb"] = maxrss_mb()
            self.count(name + "_calls")
            if after is not None:
                after(fn, args, kwargs, result, before)
            return result

        return wrapper

    # counters computed at layer boundaries; ``before`` is the counter state
    # when the span opened

    def _after_scene_io_read_cube(self, fn, args, kwargs, result, before):
        self.count("scene_io.read_bytes", _file_bytes(args[0] if args else kwargs["path"]))

    _after_scene_io_read_raster = _after_scene_io_read_cube

    def _after_scene_io_write_raster(self, fn, args, kwargs, result, before):
        self.count("scene_io.write_bytes", _file_bytes(args[1] if len(args) > 1 else kwargs["path"]))

    def _after_matched_filter_compute_stats(self, fn, args, kwargs, result, before):
        self.count("matched_filter.segments", result.n_segments)

    def _after_matched_filter_kmeans(self, fn, args, kwargs, result, before):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        # every Lloyd iteration accumulates the cluster sums exactly once
        iterations = self.counters.get("kernels.cluster_sums_calls", 0) - before.get(
            "kernels.cluster_sums_calls", 0
        )
        self.count("kernels.kmeans_iterations", iterations)
        if iterations >= bound.arguments["max_iter"]:
            self.count("kernels.kmeans_hit_cap")

    def _after_segmentation_connected_components(self, fn, args, kwargs, result, before):
        self.count("segmentation.components", len(result))

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "plumeflux" or n.startswith("plumeflux.")]
        for layer, func in TRACED:
            original = getattr(sys.modules["plumeflux." + layer], func)
            wrapper = self._wrap(f"{layer}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer not covered by child spans.

    A span's children run sequentially inside it (one thread), so their
    coverage is the sum of their durations.
    """
    child_total: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] = child_total.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] += (s["end"] - s["start"]) - child_total.get(s["id"], 0.0)
    return out


def inclusive_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, children included (no traced function recurses)."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out
