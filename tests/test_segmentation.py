import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage

from plumeflux.errors import DomainError
from plumeflux.scene_io import EnhancementField
from plumeflux.segmentation import (
    PlumeMask,
    SegmentationParams,
    _disk_op,
    _median,
    _rings,
    area_to_pixels,
    connected_components,
    disk,
    geojson_text,
    morphology,
    plumes_to_geojson,
    radius_to_pixels,
    robust_sigma,
    robust_threshold,
    segment_field,
    trace_polygon,
)


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def shoelace(ring):
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


# ---------------------------------------------------------------------------
# oracle: one boundary walk per cropped component, edge by edge in Python

WALK_CORNERS = np.array([[1, 0, 0, 0], [0, 1, 1, 1], [0, 0, 0, 1], [1, 1, 1, 0]])


def walk_rings(mask):
    """Rings of one mask: edges sorted by (start, end) vertex, each cycle walked from its first edge."""
    lines, samples = mask.shape
    padded = np.zeros((lines + 2, samples + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    neighbours = (padded[:-2, 1:-1], padded[2:, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:])
    side, i, j = np.nonzero([mask & ~n for n in neighbours])
    stride = lines + 1
    sx, sy, ex, ey = WALK_CORNERS.T
    pixel = j * stride + i
    start = pixel + (sx * stride + sy)[side]
    end = pixel + (ex * stride + ey)[side]
    turn = end + ((sy - ey) * stride + ex - sx)[side]
    order = np.lexsort((end, start))
    start, end, turn = start[order], end[order], turn[order]
    lo = np.searchsorted(start, end)
    pinch = np.searchsorted(start, end, side="right") - lo == 2
    nxt = (lo + (pinch & (end[lo] != turn))).tolist()
    vertices = np.stack(np.divmod(start, stride), axis=1)
    on_ring = [False] * len(nxt)
    rings = []
    for head in range(len(nxt)):
        cycle = []
        edge = head
        while not on_ring[edge]:
            on_ring[edge] = True
            cycle.append(edge)
            edge = nxt[edge]
        if cycle:
            rings.append(vertices[cycle + [head]])
    return rings


def walk_polygon(crop, gsd, origin, start):
    rings = walk_rings(crop)
    grid = np.concatenate(rings)
    ends = np.cumsum([ring.shape[0] for ring in rings])
    x, y = grid[:, 0], grid[:, 1]
    cross = np.concatenate([[0], np.cumsum(x[:-1] * y[1:] - x[1:] * y[:-1])])
    twice = cross[np.concatenate([[0], ends[:-1]])] - cross[ends - 1]
    assert twice.sum() == 2 * int(crop.sum())
    pts = np.column_stack([origin[0] + (x + start[1]) * gsd, origin[1] - (y + start[0]) * gsd])
    metric = np.split(pts, ends[:-1])
    k = int(np.argmax(twice))
    return metric[k], tuple(m for i, m in enumerate(metric) if i != k)


def walk_components(mask, gsd, origin, connectivity, min_pixels):
    structure = np.ones((3, 3), dtype=bool) if connectivity == 8 else None
    labels, _ = scipy.ndimage.label(mask, structure=structure)
    counts = np.bincount(labels.ravel())
    found = []
    for lab, window in enumerate(scipy.ndimage.find_objects(labels), start=1):
        if counts[lab] >= max(1, min_pixels):
            crop = labels[window] == lab
            first = (window[0].start, window[1].start + int(np.argmax(crop[0])))
            found.append((int(counts[lab]), first, window, crop))
    found.sort(key=lambda c: (-c[0], c[1]))
    lines, samples = mask.shape
    plumes = []
    for rank, (count, _, (rows, cols), crop) in enumerate(found, start=1):
        outer, holes = walk_polygon(crop, gsd, origin, (rows.start, cols.start))
        touches = rows.start == 0 or cols.start == 0 or rows.stop == lines or cols.stop == samples
        plumes.append(
            PlumeMask(rank, (rows, cols), crop, count, count * gsd * gsd, outer, holes, touches)
        )
    return plumes


def random_masks(rng, n):
    """Seeded masks: speckle of any density, smoothed blobs with holes and
    pinches, single rows and columns, and the empty and full masks."""
    yield np.zeros((7, 9), dtype=bool)
    yield np.ones((7, 9), dtype=bool)
    for trial in range(n - 2):
        shape = (int(rng.integers(1, 25)), int(rng.integers(1, 25)))
        kind = trial % 3
        if kind == 0:
            yield rng.random(shape) < rng.uniform(0.05, 0.95)
        elif kind == 1:
            smooth = scipy.ndimage.uniform_filter(rng.random(shape), int(rng.integers(2, 6)))
            yield smooth > np.quantile(smooth, rng.uniform(0.2, 0.8))
        else:
            blob = scipy.ndimage.uniform_filter(rng.random(shape), 5) > 0.45
            yield blob & (rng.random(shape) > 0.15)  # blobs with pinholes


class TestRobustThreshold:
    def test_three_point_hand_case(self):
        tau = robust_threshold(np.array([-1.0, 0.0, 1.0]), 3.0)
        assert tau == pytest.approx(3 * 1.4826, rel=1e-12)

    def test_affine_equivariance_preserves_mask(self, rng):
        bg = rng.standard_normal(500) * 40
        field_vals = rng.standard_normal((20, 25)) * 40
        a, b = 2.5, 17.0
        tau1 = robust_threshold(bg, 3.0)
        tau2 = robust_threshold(a * bg + b, 3.0)
        assert tau2 == pytest.approx(a * tau1 + b, rel=1e-12)
        np.testing.assert_array_equal(field_vals > tau1, (a * field_vals + b) > tau2)

    def test_degenerate_all_equal(self):
        assert robust_threshold(np.full(10, 7.0), 3.0) == 7.0

    def test_mad_zero_falls_back_to_std(self):
        # majority at 0 makes MAD zero; std captures the outliers
        values = np.array([0.0] * 8 + [10.0, -10.0])
        tau = robust_threshold(values, 1.0)
        assert tau == pytest.approx(np.std(values, ddof=1), rel=1e-12)

    def test_empty_sample_raises(self):
        with pytest.raises(DomainError):
            robust_threshold(np.array([]), 3.0)

    def test_one_median_gives_the_three_median_value(self, rng):
        # MAD > 0: median + n * 1.4826 * MAD, bit for bit, on odd and even sizes
        for values in (rng.standard_normal(1001) * 40, rng.standard_normal(1000) * 40):
            med = np.median(values)
            expected = float(med) + 3.0 * (1.4826 * float(np.median(np.abs(values - med))))
            assert robust_threshold(values, 3.0) == expected

    def test_any_shape_gives_the_value_of_its_flattening(self, rng):
        values = rng.standard_normal((3, 4, 5))
        for shape in ((60,), (3, 20), (3, 4, 5)):
            assert robust_threshold(values.reshape(shape), 2.5) == robust_threshold(values.ravel(), 2.5)
            assert robust_sigma(values.reshape(shape)) == robust_sigma(values.ravel())
        # a strided view too, as a column of a field
        assert robust_threshold(values[:, :, 1], 2.5) == robust_threshold(values[:, :, 1].ravel(), 2.5)

    def test_mad_zero_std_fallback_value(self):
        values = np.array([5.0] * 6 + [1.0, 9.0, 5.0])
        expected = 5.0 + 2.0 * float(np.std(values, ddof=1))
        assert robust_threshold(values, 2.0) == expected
        assert robust_sigma(values) == float(np.std(values, ddof=1))


class TestMedian:
    @staticmethod
    def samples(rng):
        for n in list(range(1, 12)) + [100, 101, 1000, 1001]:
            yield rng.standard_normal(n) * 40
            yield rng.integers(-3, 4, n).astype(np.float64)  # ties
            yield (rng.standard_normal(n) * 40).astype(np.float32).astype(np.float64)
            yield np.full(n, 2.5)

    def test_equals_np_median(self, rng):
        for values in self.samples(rng):
            assert _median(values.copy()) == np.median(values)

    def test_nan_and_empty(self, rng):
        for n in (1, 2, 7, 10):
            for at in {0, n // 2, n - 1}:
                values = rng.standard_normal(n)
                values[at] = np.nan
                assert math.isnan(_median(values.copy()))
        assert math.isnan(_median(np.array([])))

    def test_robust_sigma_and_threshold_equal_the_np_median_forms(self, rng):
        def sigma(values, med):
            mad = float(np.median(np.abs(values - med)))
            return 1.4826 * mad if mad > 0 else (float(np.std(values, ddof=1)) if values.size > 1 else 0.0)

        for values in self.samples(rng):
            kept = values.copy()
            med = float(np.median(values))
            assert robust_sigma(values) == sigma(values, med)
            assert robust_threshold(values, 3.0) == med + 3.0 * sigma(values, med)
            np.testing.assert_array_equal(values, kept)  # the caller's values are not reordered
        nan = np.array([1.0, np.nan, 2.0, 3.0])
        assert math.isnan(robust_sigma(nan)) and math.isnan(robust_threshold(nan, 3.0))
        # one value: no spread about its own median
        assert robust_sigma(np.array([4.0])) == 0.0 == robust_sigma(np.array([np.nan]))
        assert robust_threshold(np.array([4.0]), 3.0) == 4.0
        assert robust_sigma(np.array([])) == 0.0


class TestScaleToPixels:
    @pytest.mark.parametrize(
        "radius,gsd,expected",
        [(60.0, 30.0, 2), (60.0, 31.64, 2), (0.0, 30.0, 0), (30.0, 30.0, 1), (44.0, 30.0, 1)],
    )
    def test_radius(self, radius, gsd, expected):
        assert radius_to_pixels(radius, gsd) == expected

    @pytest.mark.parametrize(
        "area,gsd,expected",
        [(10_000.0, 30.0, 12), (900.0, 30.0, 1), (901.0, 30.0, 2), (0.0, 30.0, 0)],
    )
    def test_area(self, area, gsd, expected):
        assert area_to_pixels(area, gsd) == expected

    def test_tiny_gsd_scales_raise_domain_error(self):
        # gsd * gsd underflows to 0 and area / gsd overflows; both must exit 3, not crash
        for area, gsd in ((1000.0, 1e-200), (1e300, 1e-10)):
            with pytest.raises(DomainError, match="finite"):
                area_to_pixels(area, gsd)
        with pytest.raises(DomainError, match="finite"):
            radius_to_pixels(1e300, 1e-10)
        # a tiny gsd whose counts stay finite gives exact whole pixels
        assert area_to_pixels(1000.0, 1e-100) == math.ceil(1000.0 / 1e-100 / 1e-100)
        assert radius_to_pixels(90.0, 1e-200) == math.floor(90.0 / 1e-200 + 0.5)

    def test_disk_is_euclidean(self):
        np.testing.assert_array_equal(
            disk(1), np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
        )
        d2 = disk(2)
        assert d2.shape == (5, 5)
        assert not d2[0, 0]  # corner distance sqrt(8) > 2
        assert d2[1, 1]  # distance sqrt(2) <= 2


def scipy_disk_op(mask, r, dilate):
    """The oracle: scipy's binary operators with the same disk and border values."""
    if dilate:
        return scipy.ndimage.binary_dilation(mask, structure=disk(r), border_value=0)
    return scipy.ndimage.binary_erosion(mask, structure=disk(r), border_value=1)


class TestDiskOp:
    @pytest.mark.parametrize("r", range(9))
    @pytest.mark.parametrize("dilate", [True, False])
    def test_equals_scipy_on_random_masks(self, rng, r, dilate):
        shapes = [(1, 23), (23, 1), (1, 1), (2, 3), (7, 5), (19, 26), (40, 33)]
        for shape in shapes:
            for fill in (0.0, 0.05, 0.5, 0.95, 1.0):  # all-False and all-True included
                m = rng.random(shape) < fill
                np.testing.assert_array_equal(_disk_op(m, r, dilate), scipy_disk_op(m, r, dilate))

    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (3, 19)])
    def test_huge_radius_covers_the_whole_mask(self, rng, shape):
        # a disk of radius lines + samples reaches every pixel from every pixel,
        # so any larger one gives the same result without building it
        for fill in (0.0, 0.3, 1.0):
            m = rng.random(shape) < fill
            wide = sum(shape)
            for dilate, whole in ((True, m.any()), (False, m.all())):
                expected = scipy_disk_op(m, wide, dilate)
                assert np.all(expected == whole)
                for r in (wide, wide + 1, 10**300):
                    np.testing.assert_array_equal(_disk_op(m, r, dilate), expected)

    def test_input_left_unchanged(self, rng):
        m = rng.random((9, 9)) > 0.5
        before = m.copy()
        _disk_op(m, 3, True)
        _disk_op(m, 3, False)
        np.testing.assert_array_equal(m, before)


class TestMorphology:
    @pytest.mark.parametrize(
        "close_m,open_m", [(60.0, 30.0), (90.0, 0.0), (0.0, 120.0), (150.0, 60.0)]
    )
    def test_equals_the_scipy_composition(self, rng, close_m, open_m):
        params = SegmentationParams(close_radius_m=close_m, open_radius_m=open_m)
        r_close, r_open = radius_to_pixels(close_m, 30.0), radius_to_pixels(open_m, 30.0)
        for fill in (0.1, 0.4, 0.7):
            m = rng.random((37, 52)) < fill
            expected = m
            if r_close:
                expected = scipy_disk_op(scipy_disk_op(expected, r_close, True), r_close, False)
            if r_open:
                expected = scipy_disk_op(scipy_disk_op(expected, r_open, False), r_open, True)
            np.testing.assert_array_equal(morphology(m, params, 30.0), expected)

    def test_zero_radii_identity(self, rng):
        m = rng.random((12, 12)) > 0.5
        params = SegmentationParams(close_radius_m=0.0, open_radius_m=0.0)
        np.testing.assert_array_equal(morphology(m, params, 30.0), m)

    def test_opening_removes_isolated_pixel(self):
        m = np.zeros((3, 3), dtype=bool)
        m[1, 1] = True
        params = SegmentationParams(close_radius_m=0.0, open_radius_m=30.0)
        assert morphology(m, params, 30.0).sum() == 0

    def test_closing_fills_one_pixel_gap(self):
        m = np.zeros((1, 5), dtype=bool)
        m[0, 1] = m[0, 3] = True
        params = SegmentationParams(close_radius_m=30.0, open_radius_m=0.0)
        out = morphology(m, params, 30.0)
        assert out[0, 2]

    def test_idempotence_on_random_masks(self, rng):
        for _ in range(15):
            m = rng.random((20, 20)) > 0.55
            for radius in (30.0, 60.0):
                p_open = SegmentationParams(close_radius_m=0.0, open_radius_m=radius)
                p_close = SegmentationParams(close_radius_m=radius, open_radius_m=0.0)
                o1 = morphology(m, p_open, 30.0)
                c1 = morphology(m, p_close, 30.0)
                np.testing.assert_array_equal(morphology(o1, p_open, 30.0), o1)
                np.testing.assert_array_equal(morphology(c1, p_close, 30.0), c1)


class TestConnectedComponents:
    def test_diagonal_pixels_connectivity(self):
        m = np.zeros((2, 2), dtype=bool)
        m[0, 0] = m[1, 1] = True
        assert len(connected_components(m, 30.0, connectivity=8)) == 1
        assert len(connected_components(m, 30.0, connectivity=4)) == 2

    def test_five_by_five_square(self):
        m = np.ones((5, 5), dtype=bool)
        plumes = connected_components(m, 30.0)
        assert len(plumes) == 1
        p = plumes[0]
        assert p.pixel_count == 25
        assert p.area_m2 == 22_500.0
        ring = p.polygon
        assert ring[:, 0].min() == 0.0 and ring[:, 0].max() == 150.0
        assert ring[:, 1].min() == -150.0 and ring[:, 1].max() == 0.0
        assert p.shoelace_area_m2() == 22_500.0

    def test_min_pixels_filters(self):
        m = np.zeros((10, 10), dtype=bool)
        m[0, :] = True  # 10-pixel blob
        assert connected_components(m, 30.0, min_pixels=12) == []

    def test_sorted_by_area_descending(self):
        m = np.zeros((10, 20), dtype=bool)
        m[1:3, 1:3] = True  # 4 px
        m[5:9, 5:10] = True  # 20 px
        m[1:2, 15:17] = True  # 2 px
        plumes = connected_components(m, 30.0)
        counts = [p.pixel_count for p in plumes]
        assert counts == sorted(counts, reverse=True)
        assert plumes[0].label_id == 1 and plumes[0].pixel_count == 20

    def test_shoelace_equals_pixel_area_on_random_masks(self, rng):
        for trial in range(30):
            m = rng.random((18, 18)) > 0.55
            for connectivity in (4, 8):
                for p in connected_components(m, 30.0, connectivity=connectivity):
                    assert p.shoelace_area_m2() == p.area_m2 == p.pixel_count * 900.0

    def test_hole_produces_interior_ring(self):
        m = np.ones((5, 5), dtype=bool)
        m[2, 2] = False
        p = connected_components(m, 30.0)[0]
        assert len(p.holes) == 1
        assert p.shoelace_area_m2() == p.area_m2 == 24 * 900.0
        assert shoelace(p.holes[0]) < 0  # holes wind clockwise

    def test_touches_edge_flag(self):
        m = np.zeros((5, 5), dtype=bool)
        m[0, 0:2] = True
        assert connected_components(m, 30.0)[0].touches_edge
        m2 = np.zeros((5, 5), dtype=bool)
        m2[2, 2] = True
        assert not connected_components(m2, 30.0)[0].touches_edge
        # only the bottom or only the right edge, then one pixel short of it
        for box, touches in [
            (np.s_[4, 1:3], True),
            (np.s_[1:3, 4], True),
            (np.s_[3, 1:3], False),
            (np.s_[1:3, 3], False),
        ]:
            m3 = np.zeros((5, 5), dtype=bool)
            m3[box] = True
            assert connected_components(m3, 30.0)[0].touches_edge is touches, box

    def test_crops_paint_back_to_the_ranked_labelling(self, rng):
        for trial in range(10):
            m = rng.random((18, 23)) > 0.55
            for connectivity in (4, 8):
                structure = np.ones((3, 3)) if connectivity == 8 else None
                labels, n = scipy.ndimage.label(m, structure=structure)
                counts = np.bincount(labels.ravel())
                first = {lab: np.flatnonzero(labels == lab)[0] for lab in range(1, n + 1)}
                order = sorted(range(1, n + 1), key=lambda lab: (-counts[lab], first[lab]))
                expected = np.zeros_like(labels)
                for rank, lab in enumerate(order, start=1):
                    expected[labels == lab] = rank
                painted = np.zeros_like(labels)
                for p in connected_components(m, 30.0, connectivity=connectivity):
                    rows, cols = p.window
                    assert p.mask.shape == (rows.stop - rows.start, cols.stop - cols.start)
                    # the window is the tight bounding box
                    assert p.mask[0].any() and p.mask[-1].any()
                    assert p.mask[:, 0].any() and p.mask[:, -1].any()
                    painted[p.window][p.mask] = p.label_id
                np.testing.assert_array_equal(painted, expected)

    def test_peak_memory_does_not_grow_with_component_count(self):
        # seeded speckle: 411 components on a 500 x 500 scene; a full-scene
        # mask per component would hold about 400 x mask.nbytes
        rng = np.random.default_rng(0)
        mask = scipy.ndimage.uniform_filter(rng.random((500, 500)), 9) > 0.58
        tracemalloc.start()
        try:
            plumes = connected_components(mask, 30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(plumes) >= 300
        assert peak < 32 * mask.nbytes


class TestAgainstThePerCropWalk:
    def test_plumes_and_geojson_bytes_equal_the_walk(self, rng):
        seen = {"holes": 0, "pinch": 0, "edge": 0, "empty": 0}
        combos = [(c, p) for c in (4, 8) for p in (1, 3)]
        for trial, m in enumerate(random_masks(rng, 520)):
            gsd = float(rng.choice([7.5, 30.0, 60.0]))
            origin = (355000.0 + float(rng.integers(0, 100)), 4100000.5)
            for k, (connectivity, min_pixels) in enumerate(combos):
                got = connected_components(m, gsd, origin, connectivity, min_pixels)
                want = walk_components(m, gsd, origin, connectivity, min_pixels)
                assert [(p.window, p.mask.tobytes()) for p in got] == [
                    (p.window, p.mask.tobytes()) for p in want
                ]
                assert all(p.polygon.dtype == np.float64 for p in got)
                # the features hold every other field: rank, counts, area, edge flag, rings
                assert plumes_to_geojson(got) == plumes_to_geojson(want)
                seen["empty"] += not got
                seen["holes"] += sum(bool(p.holes) for p in got)
                seen["edge"] += sum(p.touches_edge for p in got)
                seen["pinch"] += sum(len({*map(tuple, p.polygon.tolist())}) < len(p.polygon) - 1 for p in got)
                if k == trial % len(combos):  # the written bytes, one setting per mask in turn
                    assert geojson_text(got) == dumps(plumes_to_geojson(want))
        assert all(seen.values()), seen

    def test_dense_speckle_scene(self):
        rng = np.random.default_rng(3)
        m = scipy.ndimage.uniform_filter(rng.random((160, 200)), 3) > 0.55
        for connectivity in (4, 8):
            got = connected_components(m, 30.0, (1000.0, 2000.0), connectivity, 1)
            want = walk_components(m, 30.0, (1000.0, 2000.0), connectivity, 1)
            assert len(got) > 100
            assert geojson_text(got) == dumps(plumes_to_geojson(want))

    def test_components_trace_once_per_call(self, monkeypatch):
        import plumeflux.segmentation as seg

        calls = []
        traced = seg.trace_polygon
        monkeypatch.setattr(seg, "trace_polygon", lambda *a, **k: calls.append(1) or traced(*a, **k))
        m = scipy.ndimage.uniform_filter(np.random.default_rng(5).random((60, 80)), 3) > 0.55
        assert len(connected_components(m, 30.0)) > 10
        assert len(calls) == 1


class TestBoundaryRings:
    """Exact ring vertices in grid units: (x, y) = (sample, line), y pointing down."""

    @staticmethod
    def rings(rows):
        """Rings of a one-label mask, in ``_rings`` order."""
        m = np.array(rows, dtype=bool)
        pixel = np.flatnonzero(m)
        x, y, ends, _ = _rings(m.shape, pixel, np.ones_like(pixel))
        return [r.tolist() for r in np.split(np.column_stack([x, y]), ends)[:-1]]

    def test_square(self):
        assert self.rings([[1, 1], [1, 1]]) == [
            [[0, 0], [0, 1], [0, 2], [1, 2], [2, 2], [2, 1], [2, 0], [1, 0], [0, 0]]
        ]

    def test_l_shape(self):
        assert self.rings([[1, 0], [1, 0], [1, 1]]) == [
            [[0, 0], [0, 1], [0, 2], [0, 3], [1, 3], [2, 3], [2, 2], [1, 2], [1, 1], [1, 0],
             [0, 0]]
        ]

    def test_one_pixel_hole(self):
        m = np.ones((3, 3), dtype=bool)
        m[1, 1] = False
        outer, hole = self.rings(m)
        assert outer == [
            [0, 0], [0, 1], [0, 2], [0, 3], [1, 3], [2, 3], [3, 3], [3, 2], [3, 1], [3, 0],
            [2, 0], [1, 0], [0, 0],
        ]
        assert hole == [[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]]
        # northing-up metric frame: the outer ring counterclockwise, the hole clockwise
        ((outer_m, holes_m),) = trace_polygon(m, 30.0, (0.0, 0.0), m.astype(int))
        assert shoelace(outer_m) > 0 and shoelace(holes_m[0]) < 0

    def test_diagonal_pixels_form_one_ring_through_the_pinch(self):
        expected = {
            ((1, 0), (0, 1)): [
                [0, 0], [0, 1], [1, 1], [1, 2], [2, 2], [2, 1], [1, 1], [1, 0], [0, 0]
            ],
            ((0, 1), (1, 0)): [
                [0, 1], [0, 2], [1, 2], [1, 1], [2, 1], [2, 0], [1, 0], [1, 1], [0, 1]
            ],
        }
        for rows, ring in expected.items():
            assert self.rings(rows) == [ring]
            (plume,) = connected_components(np.array(rows, dtype=bool), 1.0, connectivity=8)
            assert plume.holes == ()
            assert plume.polygon.tolist() == [[x, -y] for x, y in ring]

    def test_two_holes_touching_diagonally(self):
        m = np.ones((4, 4), dtype=bool)
        m[1, 1] = m[2, 2] = False
        outer, *holes = self.rings(m)
        assert outer[0] == [0, 0] and len(outer) == 17
        assert holes == [
            [[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]],
            [[2, 2], [3, 2], [3, 3], [2, 3], [2, 2]],
        ]
        m = np.ones((4, 4), dtype=bool)
        m[1, 2] = m[2, 1] = False
        assert self.rings(m)[1:] == [
            [[1, 2], [2, 2], [2, 3], [1, 3], [1, 2]],
            [[2, 1], [3, 1], [3, 2], [2, 2], [2, 1]],
        ]

    def test_rings_are_closed_unit_step_walks_over_every_boundary_edge(self, rng):
        for trial in range(40):
            m = rng.random((rng.integers(1, 14), rng.integers(1, 14))) > 0.5
            rings = [np.array(r) for r in self.rings(m)]
            padded = np.pad(m, 1)
            sides = sum(
                int((padded[1:-1, 1:-1] & ~np.roll(padded, shift, axis)[1:-1, 1:-1]).sum())
                for shift, axis in ((1, 0), (-1, 0), (1, 1), (-1, 1))
            )
            assert sum(len(r) - 1 for r in rings) == sides
            for ring in rings:
                assert ring[0].tolist() == ring[-1].tolist()
                assert np.all(np.abs(np.diff(ring, axis=0)).sum(axis=1) == 1)


class TestSegmentField:
    def make_field(self, values, **kwargs):
        return EnhancementField(delta_x=np.asarray(values, float), gsd=30.0, **kwargs)

    def test_affine_invariance_of_masks(self, rng):
        values = rng.standard_normal((30, 30)) * 50
        values[10:16, 10:16] += 600.0
        field1 = self.make_field(values)
        a, b = 3.0, -25.0
        field2 = self.make_field(a * values + b)
        params = SegmentationParams(min_area_m2=0.0)
        p1, tau1 = segment_field(field1, params)
        p2, tau2 = segment_field(field2, params)
        assert p1 and [(p.label_id, p.window, p.mask.tobytes()) for p in p1] == [
            (p.label_id, p.window, p.mask.tobytes()) for p in p2
        ]
        assert tau2 == pytest.approx(a * tau1 + b, rel=1e-12)

    def test_tiny_gsd_is_a_domain_error(self, rng):
        # the 90 m close radius is 9e201 pixels at 1e-200 m, and the minimum
        # area does not fit a float: a DomainError, not a numpy size error
        values = rng.standard_normal((20, 20))
        values[4, 4] = values[15, 12] = 100.0
        field = EnhancementField(delta_x=values, gsd=1e-200)
        with pytest.raises(DomainError, match="finite"):
            segment_field(field, SegmentationParams())
        # morphology with the clamped disk closes the two pixels into the whole scene
        plumes, _ = segment_field(field, SegmentationParams(min_area_m2=0.0))
        assert [p.mask.sum() for p in plumes] == [400]

    def test_nodata_never_in_plumes(self, rng):
        values = rng.standard_normal((20, 20)) * 10
        values[5:12, 5:12] = 500.0
        nodata = np.zeros((20, 20), dtype=bool)
        nodata[8, 8] = True
        field = self.make_field(values, nodata_mask=nodata)
        params = SegmentationParams(min_area_m2=0.0, close_radius_m=60.0)
        plumes, _ = segment_field(field, params)
        covered = np.zeros((20, 20), dtype=bool)
        for p in plumes:
            covered[p.window] |= p.mask
        assert plumes and not covered[8, 8]


class TestGeojsonExport:
    def test_feature_properties_and_ring_closure(self):
        m = np.zeros((4, 4), dtype=bool)
        m[1:3, 1:3] = True
        plumes = connected_components(m, 30.0, origin=(100.0, 200.0))
        doc = plumes_to_geojson(plumes)
        assert doc["type"] == "FeatureCollection"
        feature = doc["features"][0]
        assert feature["properties"]["label_id"] == 1
        assert feature["properties"]["pixel_count"] == 4
        assert feature["properties"]["area_m2"] == 4 * 900.0
        ring = feature["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]
        assert shoelace(np.array(ring)) > 0  # exterior counterclockwise

