"""Scale-aware plume delineation on enhancement fields.

Thresholding uses robust background statistics (median + n_sigma * 1.4826 *
MAD); morphology radii and minimum areas are given in meters and rescaled to
pixels by the GSD, so the same physical parameters apply across sensors with
different pixel sizes. Component polygons are exact rectilinear pixel
boundaries: their shoelace area equals pixel_count * gsd^2 identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, NumericalError, check_ranges
from .scene_io import EnhancementField


@dataclass(frozen=True)
class SegmentationParams:
    n_sigma: float = 3.0
    close_radius_m: float = 60.0
    open_radius_m: float = 30.0
    min_area_m2: float = 10_000.0
    connectivity: int = 8

    def __post_init__(self):
        check_ranges("segmentation", self, n_sigma="positive", close_radius_m="non-negative",
                     open_radius_m="non-negative", min_area_m2="non-negative")
        if self.connectivity not in (4, 8):
            raise ConfigError("segmentation.connectivity must be 4 or 8")


@dataclass(frozen=True)
class PlumeMask:
    """One segmented plume: pixels, exact area, and its boundary polygon.

    ``mask`` is the plume cropped to ``window``, its (line, sample) bounding
    box in the scene, so a layer's plume pixels are ``layer[window][mask]``.
    ``polygon`` is the outer pixel-boundary ring (counterclockwise in the
    easting/northing frame); ``holes`` are interior rings (clockwise).
    """

    label_id: int
    window: tuple[slice, slice]
    mask: np.ndarray
    pixel_count: int
    area_m2: float
    polygon: np.ndarray
    holes: tuple[np.ndarray, ...]
    touches_edge: bool

    def shoelace_area_m2(self) -> float:
        """Signed shoelace area over outer ring minus holes (in m^2)."""
        return sum(map(_ring_area, self.holes), _ring_area(self.polygon))


def _ring_area(ring: np.ndarray) -> float:
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def _median(work: np.ndarray) -> float:
    """``np.median`` of float64 ``work`` from one selection, which reorders ``work``: NaN
    sorts last, and the lower middle value is the largest before the upper one."""
    if not work.size:
        return math.nan
    half = work.size // 2
    work.partition(half)
    if np.isnan(work[half:].max()):
        return math.nan
    return float(work[half] if work.size % 2 else (work[:half].max() + work[half]) / 2)


def _robust_stats(values: np.ndarray) -> tuple[float, float]:
    """Median of ``values``, of any shape, and the robust sigma about it, from one working copy."""
    values = np.asarray(values, dtype=np.float64).ravel()
    work = values.copy()
    med = _median(work)
    # a median ignores order, so the copy becomes |v - med| in place
    mad = _median(np.abs(np.subtract(work, med, out=work), out=work))
    if mad > 0.0:
        return med, 1.4826 * mad
    return med, float(np.std(values, ddof=1)) if values.size > 1 else 0.0


def robust_sigma(values: np.ndarray) -> float:
    """1.4826 * MAD of ``values``; falls back to the sample standard deviation when MAD is 0."""
    return _robust_stats(values)[1]


def robust_threshold(values: np.ndarray, n_sigma: float) -> float:
    """Detection threshold median + n_sigma * (robust sigma) of the background."""
    if np.size(values) == 0:
        raise DomainError("cannot derive a threshold from an empty background sample")
    med, sigma = _robust_stats(values)
    return med + n_sigma * sigma


def _pixels(value: float, what: str) -> float:
    """A scale in pixels, which must be finite: a tiny GSD can push it past the float range."""
    if not math.isfinite(value):
        raise DomainError(f"{what} is not a finite number of pixels at this gsd")
    return value


def radius_to_pixels(radius_m: float, gsd: float) -> int:
    """Round a metric radius to whole pixels (half-up), floored at 0."""
    if gsd <= 0:
        raise DomainError("gsd must be positive")
    return max(0, int(math.floor(_pixels(radius_m / gsd, f"radius {radius_m:g} m") + 0.5)))


def area_to_pixels(area_m2: float, gsd: float) -> int:
    """Smallest pixel count whose footprint reaches the metric area."""
    if gsd <= 0:
        raise DomainError("gsd must be positive")
    # divided twice: gsd * gsd underflows to 0 below gsd 1e-162
    return int(math.ceil(_pixels(area_m2 / gsd / gsd, f"area {area_m2:g} m2") - 1e-9))


def disk(radius_px: int) -> np.ndarray:
    """Structuring element: pixels with center distance <= radius."""
    r = int(radius_px)
    if r <= 0:
        return np.ones((1, 1), dtype=bool)
    ax = np.arange(-r, r + 1)
    return (ax[:, None] ** 2 + ax[None, :] ** 2) <= r * r


def _disk_op(mask: np.ndarray, r: int, dilate: bool) -> np.ndarray:
    """``mask`` dilated (eroded) by ``disk(r)`` with False (True) beyond the border,
    as scipy's ``binary_dilation`` (``binary_erosion``) with ``border_value`` 0 (1).

    A disk is one horizontal run per row offset dy (van Herk 1992): one run
    widens from the half-width at |dy| = r to the one at dy = 0 and is
    combined into the output at each offset on the way.
    """
    combine = np.logical_or if dilate else np.logical_and
    lines = mask.shape[0]
    # a disk this wide already covers the whole mask from every pixel
    r = min(r, lines + mask.shape[1])
    out = np.full(mask.shape, not dilate)
    run = np.array(mask, dtype=bool)
    width = 0
    halves = disk(r)[: r + 1].sum(axis=1) // 2  # at dy = r, r - 1, ..., 0
    for dy, half in zip(range(r, -1, -1), halves.tolist()):
        # one column wider on each side; numpy reads overlapping operands as if
        # copied first, and the border value would leave the edges unchanged
        for _ in range(width, half):
            combine(run[:, 1:], run[:, :-1], out=run[:, 1:])
            combine(run[:, :-1], run[:, 1:], out=run[:, :-1])
        width, n = half, lines - dy
        if n > 0:
            combine(out[dy:], run[:n], out=out[dy:])
            if dy:
                combine(out[:n], run[dy:], out=out[:n])
    return out


def morphology(mask: np.ndarray, params: SegmentationParams, gsd: float) -> np.ndarray:
    """Binary closing then opening with disk elements sized in meters.

    Structuring elements are clipped at the image border (dilation sees
    false outside, erosion sees true), so footprint-edge pixels stay
    eligible and both operators are exactly idempotent.
    """
    out = np.asarray(mask, dtype=bool)
    r_close = radius_to_pixels(params.close_radius_m, gsd)
    r_open = radius_to_pixels(params.open_radius_m, gsd)
    if r_close > 0:
        out = _disk_op(_disk_op(out, r_close, True), r_close, False)
    if r_open > 0:
        out = _disk_op(_disk_op(out, r_open, False), r_open, True)
    return out


# ---------------------------------------------------------------------------
# exact rectilinear boundary tracing

# one directed boundary edge per exposed pixel side (up, down, left, right),
# directed so the plume interior sits on the left when northing points up; ring
# orientation then falls out as counterclockwise for outer rings and clockwise
# for holes. Per side: the edge's start and end corner (sx, sy, ex, ey) relative
# to the pixel's top-left vertex, with x = sample and y = line.
_SIDE_CORNERS = np.array([[1, 0, 0, 0], [0, 1, 1, 1], [0, 0, 0, 1], [1, 1, 1, 0]])


def _rings(shape: tuple[int, int], pixel: np.ndarray, lab: np.ndarray) -> tuple[np.ndarray, ...]:
    """Boundary rings, per label ``lab``, of the pixels at flat indices ``pixel`` of a ``shape``
    image: the (x, y) grid vertices of every ring, closed and concatenated, the index one past
    each ring's end, and each ring's label. A side is on the boundary where the pixel across it
    is not listed, so 4-adjacent pixels must share a label. Edges are sorted by (label, start,
    end) vertex, in (x, y) order; a ring starts at its first edge, and rings come in that order."""
    lines, samples = shape
    stride = lines + 1  # vertex (x, y) has key x * stride + y, which sorts in (x, y) order
    span = (samples + 1) * stride  # label ``lab`` holds keys lab * span + vertex
    i, j = np.divmod(pixel, samples)
    at = (i + 1) * (samples + 2) + j + 1  # in the image padded by one pixel
    listed = np.zeros((lines + 2) * (samples + 2), dtype=bool)
    listed[at] = True
    side, n = np.nonzero(~listed[at + np.array([[-samples - 2], [samples + 2], [-1], [1]])])
    sx, sy, ex, ey = _SIDE_CORNERS.T
    vertex = lab[n].astype(np.int64) * span + j[n] * stride + i[n]
    start = vertex + (sx * stride + sy)[side]
    end = vertex + (ex * stride + ey)[side]
    # a vertex has one way out, or two at a pinch: one left and one right turn. Take the
    # clockwise one, end + (-dy, dx), so pinched boundaries merge into one ring, not crossing.
    turn = end + ((sy - ey) * stride + ex - sx)[side]
    order = np.lexsort((end, start))
    start, end, turn = start[order], end[order], turn[order]
    lo = np.searchsorted(start, end)
    pinch = np.searchsorted(start, end, side="right") - lo == 2
    nxt = lo + (pinch & (end[lo] != turn))
    # list ranking by pointer doubling (Wyllie 1979): ``rank`` packs an edge's ring head (the least
    # edge index on its ring) and its steps from it as head * count + steps; after k rounds it holds
    # the least such pair of the 2**k edges up to it. A ring has at most its label's edges.
    count = nxt.size
    back, rank = np.empty_like(nxt), np.arange(count) * count  # every edge a head
    back[nxt] = np.arange(count)  # predecessors: ``nxt`` is a permutation
    for k in range(int(np.bincount(start // span).max(initial=1) - 1).bit_length()):
        rank, back = np.minimum(rank, rank[back] + 2**k), back[back]
    walk = np.argsort(rank)
    heads = np.flatnonzero(rank[walk] % count == 0)
    stops = np.append(heads[1:], count)
    walk = np.insert(walk, stops, walk[heads])  # each ring closed by its head
    ends = stops + np.arange(1, heads.size + 1)
    x, y = np.divmod(start[walk] % span, stride)
    return x, y, ends, start[walk[ends - 1]] // span


def trace_polygon(mask: np.ndarray, gsd: float, origin: tuple[float, float], labels: np.ndarray):
    """Outer ring and holes of every label of a mask, as (easting, northing) vertices in meters.

    ``labels`` is an integer image in which 4-adjacent pixels of ``mask`` share a label.
    Returns the (outer ring, holes) of every label of ``mask``, in label order.
    """
    pixel = np.flatnonzero(mask)
    lab = np.ravel(labels)[pixel]
    x, y, ends, owner = _rings(np.shape(mask), pixel, lab)
    # twice each ring's signed pixel area, exact in integers; lines grow
    # southward, so counterclockwise in metres is clockwise on the grid
    cross = np.concatenate([[0], np.cumsum(x[:-1] * y[1:] - x[1:] * y[:-1])])
    twice = cross[np.concatenate([[0], ends[:-1]])] - cross[ends - 1]
    firsts = np.flatnonzero(np.diff(owner, prepend=-1))  # each label's first ring
    if np.any(np.add.reduceat(twice, firsts) != 2 * np.bincount(lab)[owner[firsts]]):
        raise NumericalError("boundary tracing area mismatch (bug signal)")
    pts = np.column_stack([origin[0] + x * gsd, origin[1] - y * gsd])
    metric = np.split(pts, ends[:-1])
    spans = zip(firsts.tolist(), firsts[1:].tolist() + [len(metric)])
    outer = [(lo, lo + int(np.argmax(twice[lo:hi])), hi) for lo, hi in spans]  # the largest ring
    return [(metric[k], tuple(metric[lo:k] + metric[k + 1 : hi])) for lo, k, hi in outer]


def connected_components(
    mask: np.ndarray,
    gsd: float,
    origin: tuple[float, float] = (0.0, 0.0),
    connectivity: int = SegmentationParams.connectivity,
    min_pixels: int = 1,
) -> list[PlumeMask]:
    """Label a binary mask and emit plumes sorted by area, largest first."""
    import scipy.ndimage  # here, so runs that never label do not load it

    mask = np.asarray(mask, dtype=bool)
    structure = scipy.ndimage.generate_binary_structure(2, 2 if connectivity == 8 else 1)
    labels, _ = scipy.ndimage.label(mask, structure=structure)
    pixel = np.flatnonzero(mask)
    counts = np.bincount(labels.ravel()[pixel], minlength=1)
    pixel = pixel[counts[labels.ravel()[pixel]] >= max(1, min_pixels)]
    pixel = pixel[np.argsort(labels.ravel()[pixel], kind="stable")]  # each label in raster order
    lab = labels.ravel()[pixel]
    lines, samples = mask.shape
    row, col = np.divmod(pixel, samples)
    first, last = np.flatnonzero(np.diff(lab, prepend=0)), np.flatnonzero(np.diff(lab, append=0))
    size = counts[lab[first]]
    by_size = np.lexsort((pixel[first], -size))  # ties go to the first pixel in raster order
    # each component's tight bounding box, label and pixel count, in label order as its rings
    left, right = np.minimum.reduceat(col, first), np.maximum.reduceat(col, first) + 1
    boxes = np.column_stack([row[first], row[last] + 1, left, right, lab[first], size]).tolist()
    kept = np.zeros(mask.shape, dtype=bool)
    kept.ravel()[pixel] = True
    rings = trace_polygon(kept, gsd, origin, labels)  # every plume's rings in one pass
    plumes = []
    for rank, i in enumerate(by_size.tolist(), start=1):
        top, bottom, left, right, k, count = boxes[i]
        window = (slice(top, bottom), slice(left, right))
        touches = top == 0 or left == 0 or bottom == lines or right == samples
        area = count * gsd * gsd
        plumes.append(PlumeMask(rank, window, labels[window] == k, count, area, *rings[i], touches))
    return plumes


def segment_field(
    field: EnhancementField,
    params: SegmentationParams,
    background_values: Optional[np.ndarray] = None,
) -> tuple[list[PlumeMask], float]:
    """Threshold, morphology, and labeling in one step.

    ``background_values`` is the spectrally matched background sample when
    available; otherwise all non-nodata pixels serve as background.
    Returns (plumes, threshold).
    """
    valid = ~field.nodata_mask
    bg = background_values if background_values is not None else field.delta_x[valid]
    tau = robust_threshold(bg, params.n_sigma)
    raw = (field.delta_x > tau) & valid
    cleaned = morphology(raw, params, field.gsd)
    cleaned &= valid
    plumes = connected_components(
        cleaned,
        field.gsd,
        field.origin,
        connectivity=params.connectivity,
        min_pixels=area_to_pixels(params.min_area_m2, field.gsd),
    )
    return plumes, tau


def plumes_to_geojson(plumes: Sequence[PlumeMask]) -> dict:
    """GeoJSON-style FeatureCollection with coordinates in scene meters."""
    features = [
        {
            "type": "Feature",
            "properties": {"label_id": p.label_id, "area_m2": p.area_m2, "pixel_count": p.pixel_count,
                           "touches_edge": p.touches_edge},
            "geometry": {"type": "Polygon", "coordinates": [ring.tolist() for ring in (p.polygon, *p.holes)]},
        }
        for p in plumes
    ]
    return {"type": "FeatureCollection", "features": features}


# the text of ``json.dumps(plumes_to_geojson(plumes), indent=2, sort_keys=True)`` around the
# ring values: a vertex's brackets are 12 spaces in, its values 14
_IN12, _IN14 = "\n" + 12 * " ", "\n" + 14 * " "
_AFTER_X, _AFTER_VERTEX = "," + _IN14, _IN12 + "]," + _IN12 + "[" + _IN14
_AFTER_RING = _IN12 + "]\n          ],\n          [" + _IN12 + "[" + _IN14
_FEATURE_START = '{\n      "geometry": {\n        "coordinates": [\n          [' + _IN12 + "[" + _IN14
_FEATURE_END = _IN12 + (']\n          ]\n        ],\n        "type": "Polygon"\n      },\n      "properties": {\n'
                        '        "area_m2": %r,\n        "label_id": %d,\n        "pixel_count": %d,\n'
                        '        "touches_edge": %s\n      },\n      "type": "Feature"\n    }')


def geojson_text(plumes: Sequence[PlumeMask]) -> str:
    """``json.dumps(plumes_to_geojson(plumes), indent=2, sort_keys=True)``, made from the rings.

    ``json`` encodes every coordinate in Python once ``indent`` is set. Here each distinct
    coordinate is formatted once as ``json`` writes a finite float, its repr (keyed on its
    bits: -0.0 is not 0.0), and the values and the text between them are joined once.
    Non-finite numbers, rings that are not float64 and no plumes go to ``json.dumps``.
    """
    rings = [ring for p in plumes for ring in (p.polygon, *p.holes)]
    coords = np.concatenate(rings or [np.empty((0, 2))])
    areas = np.array([p.area_m2 for p in plumes], dtype=np.float64)
    if not plumes or coords.dtype != np.float64 or not np.isfinite(np.append(coords, areas)).all():
        return json.dumps(plumes_to_geojson(plumes), indent=2, sort_keys=True)
    bits, at = np.unique(coords.view(np.int64), return_inverse=True)
    # each value, then the text up to the next one: within a vertex, to the next vertex, to
    # the next ring, and after a feature's last ring the rest of it and the next one's start
    parts = np.empty(2 * coords.size, dtype=object)
    parts[0::2] = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[at.ravel()]
    parts[1::4], parts[3::4] = _AFTER_X, _AFTER_VERTEX
    ends = 4 * np.cumsum([len(ring) for ring in rings]) - 1
    parts[ends] = _AFTER_RING
    features = [_FEATURE_END % (area, p.label_id, p.pixel_count, "true" if p.touches_edge else "false")
                for p, area in zip(plumes, areas.tolist())]
    parts[ends[np.cumsum([1 + len(p.holes) for p in plumes]) - 1]] = [f + ",\n    " + _FEATURE_START for f in features]
    parts[-1] = features[-1]
    return "".join(['{\n  "features": [\n    ', _FEATURE_START, *parts.tolist(), '\n  ],\n  "type": "FeatureCollection"\n}'])
