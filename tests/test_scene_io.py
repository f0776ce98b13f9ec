import os
from functools import reduce

import numpy as np
import pytest

from plumeflux import kernels
from plumeflux.errors import ConfigError, DataError, DomainError
from plumeflux.scene_io import (
    NODATA,
    EnhancementField,
    RadianceCube,
    SensorDescriptor,
    effective_gsd,
    ingest_level2,
    read_cube,
    read_raster,
    write_cube,
    write_raster,
)
from plumeflux.segmentation import SegmentationParams, segment_field

from conftest import make_cube


def f32(a):
    """Snap values to the float32 grid the payload stores."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


class TestCubeRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        data = f32(rng.random((4, 5, 7)) * 20.0)
        cube = make_cube(data, n_bands=4, noise_a=1e-4, noise_c=2e-4, origin=(1000.0, 2000.0))
        write_cube(cube, tmp_path / "scene")
        back = read_cube(tmp_path / "scene")
        assert np.array_equal(back.data, cube.data)
        assert back.origin == cube.origin
        d0, d1 = cube.descriptor, back.descriptor
        assert np.array_equal(d0.band_centers, d1.band_centers)
        assert np.array_equal(d0.band_fwhm, d1.band_fwhm)
        assert d0.gsd == d1.gsd
        assert np.array_equal(d0.noise_a, d1.noise_a)
        assert np.array_equal(d0.noise_c, d1.noise_c)
        assert d0.sensor_id == d1.sensor_id

    def test_nodata_sentinel_round_trip(self, tmp_path):
        data = f32(np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3) + 1.0)
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 2] = True
        cube = make_cube(data, n_bands=2, nodata_mask=mask)
        write_cube(cube, tmp_path / "scene")
        raw = np.frombuffer((tmp_path / "scene.bin").read_bytes(), dtype="<f4")
        assert raw.reshape(2, 3, 3)[0, 1, 2] == NODATA
        back = read_cube(tmp_path / "scene")
        assert np.array_equal(back.nodata_mask, mask)
        assert np.array_equal(back.data[:, ~mask], cube.data[:, ~mask])

    def test_bsq_payload_order(self, tmp_path):
        # hand-computed flat offset: band*(lines*samples) + line*samples + sample
        data = np.arange(12, dtype=np.float64).reshape(3, 2, 2)
        cube = make_cube(data, n_bands=3)
        write_cube(cube, tmp_path / "c")
        flat = np.frombuffer((tmp_path / "c.bin").read_bytes(), dtype="<f4")
        for band in range(3):
            for line in range(2):
                for sample in range(2):
                    offset = band * 4 + line * 2 + sample
                    assert flat[offset] == data[band, line, sample]
        back = read_cube(tmp_path / "c")
        assert back.data[2, 1, 1] == 11.0

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        cube = make_cube(np.ones((3, 2, 2)), n_bands=3)
        write_cube(cube, tmp_path / "c")
        payload = (tmp_path / "c.bin").read_bytes()
        (tmp_path / "c.bin").write_bytes(payload[:-4])
        with pytest.raises(DataError, match=r"44 bytes.*expected 48"):
            read_cube(tmp_path / "c")

    def test_missing_header_key_is_config_error(self, tmp_path):
        cube = make_cube(np.ones((3, 2, 2)), n_bands=3)
        write_cube(cube, tmp_path / "c")
        hdr = (tmp_path / "c.hdr").read_text()
        (tmp_path / "c.hdr").write_text(
            "\n".join(l for l in hdr.splitlines() if not l.startswith("gsd_m"))
        )
        with pytest.raises(ConfigError, match="gsd_m"):
            read_cube(tmp_path / "c")

    def test_non_increasing_wavelengths_is_data_error(self, tmp_path):
        cube = make_cube(np.ones((3, 2, 2)), n_bands=3)
        write_cube(cube, tmp_path / "c")
        hdr = (tmp_path / "c.hdr").read_text().splitlines()
        hdr = [
            "wavelengths_nm = 2100.0, 2100.0, 2450.0" if l.startswith("wavelengths_nm") else l
            for l in hdr
        ]
        (tmp_path / "c.hdr").write_text("\n".join(hdr))
        with pytest.raises(DataError, match="increasing"):
            read_cube(tmp_path / "c")

    @pytest.mark.parametrize("named", [True, False])
    def test_header_text_is_pinned(self, tmp_path, named):
        extra = {"noise_a": 1e-4, "noise_c": 2e-4} if named else {"sensor_id": ""}
        cube = make_cube(np.ones((3, 2, 5)), n_bands=3, origin=(1000.0, 2000.5), **extra)
        write_cube(cube, tmp_path / "c")
        text = (tmp_path / "c.hdr").read_text(encoding="utf-8")
        expected = [
            "samples = 5",
            "lines = 2",
            "bands = 3",
            "data_type = float32",
            "interleave = bsq",
            "byte_order = lsb",
            "wavelengths_nm = 2100.0, 2275.0, 2450.0",
            "fwhm_nm = 12.0, 12.0, 12.0",
            "gsd_m = 30.0",
            "origin_e_m = 1000.0",
            "origin_n_m = 2000.5",
        ]
        if named:
            expected += [
                "sensor_id = test",
                "noise_a = 0.0001, 0.0001, 0.0001",
                "noise_c = 0.0002, 0.0002, 0.0002",
            ]
        assert text.endswith("\n")
        assert text.splitlines() == expected

    def test_header_echoes_gsd(self, tmp_path):
        cube = make_cube(np.ones((2, 2, 2)), n_bands=2, gsd=30.0)
        write_cube(cube, tmp_path / "c")
        assert "gsd_m = 30.0" in (tmp_path / "c.hdr").read_text()

    def test_nan_outside_nodata_rejected(self):
        data = np.ones((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(DataError, match="finite"):
            make_cube(data, n_bands=2)
        # one bad band under a valid pixel is enough, also in a read-only array
        data = np.ones((3, 2, 2))
        data[2, 1, 0] = np.inf
        data.flags.writeable = False
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(DataError, match="finite"):
            make_cube(data, n_bands=3, nodata_mask=mask)

    def test_read_cube_makes_no_scene_sized_copies(self, tmp_path, rng):
        import tracemalloc

        data = f32(rng.random((12, 160, 200)) + 1.0)
        mask = np.zeros((160, 200), dtype=bool)
        mask[10:20, 30:50] = True
        write_cube(make_cube(data, n_bands=12, nodata_mask=mask), tmp_path / "scene")
        tracemalloc.start()
        try:
            cube = read_cube(tmp_path / "scene")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * cube.data.nbytes
        assert np.array_equal(cube.nodata_mask, mask)
        assert not cube.data.flags.writeable

    def test_caller_array_is_copied_unless_read_only_and_owned(self):
        data = np.ones((2, 3, 3))
        cube = make_cube(data, n_bands=2)
        assert not np.shares_memory(cube.data, data) and data.flags.writeable
        view = np.ones((2, 3, 6))[:, :, :3]
        view.flags.writeable = False
        assert not np.shares_memory(make_cube(view, n_bands=2).data, view)
        frozen = np.ones((2, 3, 3))
        frozen.flags.writeable = False
        assert make_cube(frozen, n_bands=2).data is frozen
        # the enhancement field keeps every map layer under the same rule
        delta, noise = np.ones((4, 4)), np.ones((4, 4))
        field = EnhancementField(delta_x=delta, gsd=30.0, sigma_noise=noise)
        assert not np.shares_memory(field.delta_x, delta) and delta.flags.writeable
        assert not np.shares_memory(field.sigma_noise, noise) and noise.flags.writeable
        assert not field.delta_x.flags.writeable and not field.nodata_mask.flags.writeable
        moved = field.replace(provenance="moved")
        assert moved.delta_x is field.delta_x
        assert moved.sigma_noise is field.sigma_noise
        assert moved.nodata_mask is field.nodata_mask
        # a crop holds read-only windows of the field's own layers
        crop = field.crop((slice(1, 3), slice(0, 2)))
        for name in ("delta_x", "sigma_noise", "nodata_mask"):
            layer = getattr(crop, name)
            assert layer.base is getattr(field, name) and not layer.flags.writeable

    def test_nan_under_nodata_allowed(self):
        data = np.ones((2, 2, 2))
        data[:, 0, 0] = np.nan
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        make_cube(data, n_bands=2, nodata_mask=mask)


def write_wide_cube(tmp_path, rng, n_bands=40, lines=16, samples=20):
    """A 2000-2550 nm cube with per-band fwhm and noise; returns it and the 2100-2450 nm run."""
    desc = SensorDescriptor(
        "wide",
        np.linspace(2000.0, 2550.0, n_bands),
        np.linspace(8.0, 12.0, n_bands),
        30.0,
        noise_a=np.linspace(1e-5, 5e-5, n_bands),
        noise_c=np.linspace(1e-4, 3e-4, n_bands),
    )
    cube = make_cube(f32(rng.random((n_bands, lines, samples)) + 1.0), descriptor=desc)
    write_cube(cube, tmp_path / "wide")
    centers = desc.band_centers
    inside = np.flatnonzero((centers >= 2100.0) & (centers <= 2450.0))
    return cube, slice(inside[0], inside[-1] + 1)


class TestFloat32WindowRead:
    def test_float32_stays_float32_and_other_dtypes_widen(self, tmp_path, rng):
        data = f32(rng.random((3, 4, 5)) + 1.0)
        write_cube(make_cube(data, n_bands=3), tmp_path / "c")
        back = read_cube(tmp_path / "c")
        assert back.data.dtype == np.float32 and back.data.flags.owndata
        assert np.array_equal(back.data, data)
        desc = back.descriptor
        assert RadianceCube(desc, data.astype(np.float32)).data.dtype == np.float32
        assert RadianceCube(desc, data).data.dtype == np.float64
        assert RadianceCube(desc, np.ones((3, 2, 2), dtype=np.int16)).data.dtype == np.float64
        # rasters keep their float64 read
        write_raster(data[0], tmp_path / "r", 30.0)
        assert read_raster(tmp_path / "r")[0].dtype == np.float64

    def test_descriptor_lists_only_the_window_bands(self, tmp_path, rng):
        cube, run = write_wide_cube(tmp_path, rng)
        back = read_cube(tmp_path / "wide", window=(2100.0, 2450.0))
        d, full = back.descriptor, cube.descriptor
        assert back.data.shape == (run.stop - run.start, 16, 20)
        assert np.array_equal(back.data, cube.data[run])
        for name in ("band_centers", "band_fwhm", "noise_a", "noise_c"):
            assert np.array_equal(getattr(d, name), getattr(full, name)[run])
        assert (d.sensor_id, d.gsd, back.origin) == (full.sensor_id, full.gsd, cube.origin)
        assert d.band_centers[0] >= 2100.0 and d.band_centers[-1] <= 2450.0

    def test_nodata_rule_follows_the_bands_read(self, tmp_path, rng):
        data = f32(rng.random((40, 4, 5)) + 1.0)
        desc = SensorDescriptor("x", np.linspace(2000.0, 2550.0, 40), np.full(40, 10.0), 30.0)
        inside = np.flatnonzero((desc.band_centers >= 2100.0) & (desc.band_centers <= 2450.0))
        data[inside, 1, 2] = NODATA  # sentinel in every window band only
        data[:, 3, 4] = NODATA  # sentinel in every band
        write_cube(make_cube(data, descriptor=desc), tmp_path / "c")
        full = read_cube(tmp_path / "c")
        assert full.nodata_mask.sum() == 1 and full.nodata_mask[3, 4]
        assert np.all(full.data[inside, 1, 2] == NODATA)
        window = read_cube(tmp_path / "c", window=(2100.0, 2450.0))
        assert window.nodata_mask.sum() == 2
        assert window.nodata_mask[1, 2] and window.nodata_mask[3, 4]
        assert np.all(window.data[:, 1, 2] == 0.0) and np.all(window.data[:, 3, 4] == 0.0)

    @pytest.mark.parametrize("window", [None, (2100.0, 2450.0)])
    def test_nodata_mask_is_every_band_read_holding_the_sentinel(self, tmp_path, rng, window):
        # about half of all values are sentinels: most pixels hold only some
        data = f32(rng.random((40, 9, 11)) + 1.0)
        data[rng.random(data.shape) < 0.5] = NODATA
        data[:, rng.random((9, 11)) < 0.1] = NODATA  # scattered pixels,
        data[:, 4, :] = NODATA  # a whole line and a whole column
        data[:, :, 7] = NODATA
        desc = SensorDescriptor("x", np.linspace(2000.0, 2550.0, 40), np.full(40, 10.0), 30.0)
        write_cube(make_cube(data, descriptor=desc), tmp_path / "c")
        back = read_cube(tmp_path / "c", window=window)
        read = data if window is None else data[(desc.band_centers >= window[0]) & (desc.band_centers <= window[1])]
        expected = reduce(np.logical_and, (band == NODATA for band in read))
        assert 11 + 9 - 1 < expected.sum() < expected.size
        assert np.array_equal(back.nodata_mask, expected)
        assert np.array_equal(back.data, np.where(expected, 0.0, read))

    @pytest.mark.parametrize("window", [(1000.0, 1900.0), (2600.0, 2700.0), (2101.0, 2109.0)])
    def test_window_without_bands_is_data_error(self, tmp_path, rng, window):
        write_wide_cube(tmp_path, rng)
        with pytest.raises(DataError, match="no bands inside window"):
            read_cube(tmp_path / "wide", window=window)

    def test_band_list_length_mismatch_is_data_error(self, tmp_path, rng):
        write_wide_cube(tmp_path, rng)
        hdr = tmp_path / "wide.hdr"
        hdr.write_text(hdr.read_text().replace("fwhm_nm = 8.0, ", "fwhm_nm = "))
        with pytest.raises(DataError, match="every per-band list must hold 40 values"):
            read_cube(tmp_path / "wide", window=(2100.0, 2450.0))

    @pytest.mark.parametrize(
        "key,values,message",
        [
            ("wavelengths_nm", "2500.0, 2200.0, 2300.0, 2400.0", "band_centers must be strictly"),
            ("fwhm_nm", "0.0, 10.0, 10.0, 10.0", "band_fwhm must be positive"),
            ("noise_c", "-1.0, 1e-4, 1e-4, 1e-4", "noise_c must be non-negative"),
        ],
    )
    def test_bad_band_outside_the_window_fails_both_reads(self, tmp_path, key, values, message):
        write_cube(make_cube(np.ones((4, 2, 3)), noise_a=1e-5, noise_c=1e-4), tmp_path / "c")
        hdr = tmp_path / "c.hdr"
        lines = hdr.read_text().splitlines()
        hdr.write_text("\n".join(f"{key} = {values}" if l.startswith(key + " ") else l for l in lines))
        for window in (None, (2150.0, 2450.0)):  # the window leaves out only band 0
            with pytest.raises(DataError, match=message):
                read_cube(tmp_path / "c", window)

    def test_window_read_is_bounded_by_the_float32_window_slab(self, tmp_path, rng):
        import tracemalloc

        _, run = write_wide_cube(tmp_path, rng, n_bands=60, lines=160, samples=200)
        slab_bytes = 4 * (run.stop - run.start) * 160 * 200
        tracemalloc.start()
        try:
            cube = read_cube(tmp_path / "wide", window=(2100.0, 2450.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cube.data.nbytes == slab_bytes
        assert peak <= 1.3 * slab_bytes


class TestPooledRead:
    # 40 bands over 2000-2550 nm: the 2100-2450 nm window starts after band 0
    WINDOW = (2100.0, 2450.0)

    @staticmethod
    def write(tmp_path, rng):
        data = f32(rng.random((40, 9, 11)) + 1.0)
        data[:, 2, 3] = NODATA
        data[:, 5, :] = NODATA
        desc = SensorDescriptor("x", np.linspace(2000.0, 2550.0, 40), np.full(40, 10.0), 30.0)
        write_cube(make_cube(data, descriptor=desc), tmp_path / "c")
        inside = np.flatnonzero((desc.band_centers >= 2100.0) & (desc.band_centers <= 2450.0))
        return inside[0], inside.size

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_equal_fromfile(self, tmp_path, rng, monkeypatch, workers):
        first, count = self.write(tmp_path, rng)
        offsets = []
        preadv = os.preadv
        monkeypatch.setattr(os, "preadv", lambda fd, bufs, at: offsets.append(at) or preadv(fd, bufs, at))
        monkeypatch.setattr(kernels, "workers", lambda: workers)
        back = read_cube(tmp_path / "c", window=self.WINDOW)
        raw = np.fromfile(tmp_path / "c.bin", "<f4", count * 99, offset=4 * first * 99).reshape(count, 9, 11)
        nodata = np.all(raw == NODATA, axis=0)
        assert first > 0 and nodata.sum() == 11 + 1
        assert np.array_equal(back.nodata_mask, nodata)
        assert back.data.tobytes() == np.where(nodata, np.float32(0.0), raw).tobytes()
        # one read per run of bands, each at its run's first band
        assert sorted(offsets) == [4 * 99 * (first + r.start) for r in kernels.runs(np.ones(count))]
        assert len(offsets) == workers

    def test_short_reads_complete(self, tmp_path, rng, monkeypatch):
        self.write(tmp_path, rng)
        whole = read_cube(tmp_path / "c", window=self.WINDOW)
        preadv, calls = os.preadv, []

        def short(fd, bufs, at):  # at most 13 bytes a call, so reads end inside a float
            calls.append(at)
            return preadv(fd, [memoryview(bufs[0])[:13]], at)

        monkeypatch.setattr(os, "preadv", short)
        monkeypatch.setattr(kernels, "workers", lambda: 2)
        back = read_cube(tmp_path / "c", window=self.WINDOW)
        assert back.data.tobytes() == whole.data.tobytes()
        assert np.array_equal(back.nodata_mask, whole.nodata_mask)
        runs = kernels.runs(np.ones(whole.data.shape[0]))
        assert len(runs) == 2 and len(calls) == sum(-(-whole.data[r].nbytes // 13) for r in runs)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_finite_check_covers_every_run_of_bands(self, monkeypatch, workers):
        monkeypatch.setattr(kernels, "workers", lambda: workers)
        mask = np.zeros((3, 4), dtype=bool)
        mask[1, 2] = True
        for band in range(7):
            data = np.ones((7, 3, 4))
            data[band, 1, 2] = np.nan  # under nodata
            make_cube(data, nodata_mask=mask)
            data[band, 2, 0] = np.inf
            with pytest.raises(DataError, match="non-finite radiance outside nodata_mask"):
                make_cube(data, nodata_mask=mask)

    def test_a_read_of_zero_bytes_is_data_error(self, tmp_path, rng, monkeypatch):
        self.write(tmp_path, rng)
        monkeypatch.setattr(os, "preadv", lambda fd, bufs, at: 0)
        with pytest.raises(DataError, match=r"payload .*c\.bin ended \d+ bytes early"):
            read_cube(tmp_path / "c", window=self.WINDOW)


class TestHeaderValues:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("samples", "3.5"),
            ("lines", "-2"),
            ("gsd_m", "thirty"),
            ("origin_e_m", "nan"),
            ("wavelengths_nm", "2100.0, abc, 2450.0"),
            ("noise_a", "1e-4, 1e-4, inf"),
        ],
    )
    def test_malformed_number_is_data_error_naming_key_and_file(self, tmp_path, key, value):
        cube = make_cube(np.ones((3, 2, 2)), n_bands=3, noise_a=1e-4, noise_c=1e-4)
        write_cube(cube, tmp_path / "c")
        hdr = tmp_path / "c.hdr"
        lines = hdr.read_text().splitlines()
        hdr.write_text("\n".join(f"{key} = {value}" if l.startswith(key) else l for l in lines))
        with pytest.raises(DataError) as err:
            read_cube(tmp_path / "c")
        assert key in str(err.value) and str(hdr) in str(err.value)

    def test_malformed_raster_origin_is_data_error(self, tmp_path):
        write_raster(np.ones((2, 2)), tmp_path / "r", 30.0)
        hdr = tmp_path / "r.hdr"
        hdr.write_text(hdr.read_text().replace("origin_n_m = 0.0", "origin_n_m = north"))
        with pytest.raises(DataError, match="origin_n_m"):
            read_raster(tmp_path / "r")


class TestDescriptorValidation:
    def test_decreasing_band_centers(self):
        with pytest.raises(DataError, match="increasing"):
            SensorDescriptor("x", [2200.0, 2100.0], [10.0, 10.0], 30.0)

    def test_negative_fwhm(self):
        with pytest.raises(DataError, match="fwhm"):
            SensorDescriptor("x", [2100.0, 2200.0], [10.0, -1.0], 30.0)

    def test_noise_length_mismatch(self):
        with pytest.raises(DataError, match="noise_a"):
            SensorDescriptor("x", [2100.0, 2200.0], [10.0, 10.0], 30.0, noise_a=[1e-4])

    @pytest.mark.parametrize("sensor_id", ["tanager\ngsd_m = 5", " X ", "X\r", "a\u2028b", "X\t"])
    def test_sensor_id_with_line_break_or_padding_rejected(self, sensor_id):
        with pytest.raises(DataError, match="sensor_id"):
            SensorDescriptor(sensor_id, [2100.0, 2200.0], [10.0, 10.0], 30.0)

    def test_ordinary_sensor_id_round_trips(self, tmp_path):
        cube = make_cube(np.ones((3, 2, 2)), n_bands=3, sensor_id="Tanager-1 (Planet) = v2")
        write_cube(cube, tmp_path / "c")
        assert read_cube(tmp_path / "c").descriptor.sensor_id == "Tanager-1 (Planet) = v2"

    def test_arrays_are_read_only_copies(self):
        centers = np.array([2100.0, 2200.0])
        d = SensorDescriptor("x", centers, [10.0, 10.0], 30.0, noise_a=[1e-4, 1e-4])
        assert not np.shares_memory(d.band_centers, centers) and centers.flags.writeable
        for name in ("band_centers", "band_fwhm", "noise_a"):
            assert not getattr(d, name).flags.writeable


class TestPlaceValidation:
    """The containers take a gsd and origin under the header reader's rule."""

    @pytest.mark.parametrize("gsd", [np.inf, np.nan, 0.0, -30.0])
    def test_gsd_must_be_positive_and_finite(self, gsd):
        with pytest.raises(DataError, match="gsd"):
            SensorDescriptor("x", [2100.0, 2200.0], [10.0, 10.0], gsd)
        with pytest.raises(DataError, match="gsd"):
            make_cube(np.ones((3, 2, 2)), gsd=gsd)
        with pytest.raises(DataError, match="gsd"):
            EnhancementField(delta_x=np.ones((3, 3)), gsd=gsd)

    @pytest.mark.parametrize(
        "origin", [(np.inf, 0.0), (0.0, -np.inf), (np.nan, 0.0), (0.0, np.nan)]
    )
    def test_origin_must_be_finite(self, origin):
        with pytest.raises(DataError, match="origin"):
            make_cube(np.ones((3, 2, 2)), origin=origin)
        with pytest.raises(DataError, match="origin"):
            EnhancementField(delta_x=np.ones((3, 3)), gsd=30.0, origin=origin)

    def test_largest_finite_values_round_trip(self, tmp_path):
        big = float(np.finfo(np.float64).max)
        write_raster(np.ones((2, 2)), tmp_path / "r", big, (-big, big))
        assert read_raster(tmp_path / "r")[2:] == (big, (-big, big))
        # the codec keeps them, but no container takes a scene that large
        with pytest.raises(DataError, match="gsd"):
            ingest_level2(tmp_path / "r")

    @pytest.mark.parametrize("gsd", [1e160, 1e308])
    def test_scene_area_must_be_finite(self, gsd):
        with pytest.raises(DataError, match="gsd"):
            make_cube(np.ones((3, 20, 20)), gsd=gsd)
        with pytest.raises(DataError, match="gsd"):
            EnhancementField(delta_x=np.ones((20, 20)), gsd=gsd)

    def test_far_corner_must_be_finite(self):
        # a scene with no lines has area 0, so only its far corner can overflow
        EnhancementField(delta_x=np.ones((0, 20)), gsd=1e300)
        with pytest.raises(DataError, match="gsd"):
            EnhancementField(delta_x=np.ones((0, 20)), gsd=1e308)
        with pytest.raises(DataError, match="gsd"):
            EnhancementField(delta_x=np.ones((20, 0)), gsd=1e308)

    def test_small_scene_at_a_huge_gsd_is_kept_finite(self):
        values = np.zeros((20, 20))
        values[5:12, 5:12] = 500.0
        field = EnhancementField(delta_x=values, gsd=1e150, origin=(-1e150, 1e150))
        assert make_cube(np.ones((3, 20, 20)), gsd=1e150).gsd == 1e150
        (plume,), _ = segment_field(field, SegmentationParams(min_area_m2=0.0))
        assert plume.area_m2 == 49 * 1e300
        assert np.isfinite(plume.polygon).all()


class TestRaster:
    def test_round_trip(self, tmp_path, rng):
        values = f32(rng.standard_normal((6, 4)) * 100)
        mask = rng.random((6, 4)) > 0.8
        write_raster(values, tmp_path / "r", 30.0, (10.0, 20.0), mask)
        back, back_mask, gsd, origin = read_raster(tmp_path / "r")
        assert gsd == 30.0 and origin == (10.0, 20.0)
        assert np.array_equal(back_mask, mask)
        assert np.array_equal(back[~mask], values[~mask])

    def test_header_text_is_pinned(self, tmp_path):
        write_raster(np.ones((2, 3)), tmp_path / "r", 30.0, (10.0, 20.5))
        text = (tmp_path / "r.hdr").read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert text.splitlines() == [
            "samples = 3",
            "lines = 2",
            "bands = 1",
            "data_type = float32",
            "interleave = bsq",
            "byte_order = lsb",
            "gsd_m = 30.0",
            "origin_e_m = 10.0",
            "origin_n_m = 20.5",
            "nodata = -9999.0",
        ]

    def test_dotted_basenames_do_not_collide(self, tmp_path):
        write_raster(np.full((2, 2), 1.0), tmp_path / "scene.v1", 30.0)
        write_raster(np.full((2, 2), 2.0), tmp_path / "scene.v2", 30.0)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["scene.v1.bin", "scene.v1.hdr", "scene.v2.bin", "scene.v2.hdr"]
        assert read_raster(tmp_path / "scene.v1")[0][0, 0] == 1.0
        assert read_raster(tmp_path / "scene.v2")[0][0, 0] == 2.0
        # naming the header or the payload still means the same pair
        assert read_raster(tmp_path / "scene.v1.hdr")[0][0, 0] == 1.0
        assert read_raster(tmp_path / "scene.v2.bin")[0][0, 0] == 2.0

    def test_multi_band_file_rejected_before_payload_read(self, tmp_path):
        write_cube(make_cube(np.ones((3, 2, 2)), n_bands=3), tmp_path / "c")
        (tmp_path / "c.bin").unlink()
        with pytest.raises(DataError, match="band") as err:
            read_raster(tmp_path / "c")
        assert "payload" not in str(err.value)


class TestIngestLevel2:
    def test_with_sigma(self, tmp_path, rng):
        enh = f32(rng.random((10, 10)) * 500)
        sig = f32(rng.random((10, 10)) * 50)
        write_raster(enh, tmp_path / "enh", 30.0)
        write_raster(sig, tmp_path / "sig", 30.0)
        field = ingest_level2(tmp_path / "enh", tmp_path / "sig", None)
        assert field.provenance == "external"
        assert np.array_equal(field.delta_x, enh)
        assert np.array_equal(field.sigma_total, sig)
        assert field.gsd == 30.0

    def test_without_sigma_leaves_sigma_absent(self, tmp_path, rng):
        write_raster(f32(rng.random((5, 5))), tmp_path / "enh", 30.0)
        field = ingest_level2(tmp_path / "enh")
        assert field.sigma_total is None
        assert field.sigma_noise is None

    def test_shape_mismatch(self, tmp_path, rng):
        write_raster(f32(rng.random((10, 10))), tmp_path / "enh", 30.0)
        write_raster(f32(rng.random((10, 9))), tmp_path / "sig", 30.0)
        with pytest.raises(DataError, match="does not match"):
            ingest_level2(tmp_path / "enh", tmp_path / "sig")

    def test_ingest_keeps_the_read_layers_without_copies(self, tmp_path, rng):
        import tracemalloc

        values = f32(rng.standard_normal((512, 512)) * 100)
        values[5, 7] = NODATA
        write_raster(values, tmp_path / "enh", 30.0)
        write_raster(-f32(rng.random((512, 512)) * 10), tmp_path / "sig", 30.0)
        tracemalloc.start()
        try:
            field = ingest_level2(tmp_path / "enh", tmp_path / "sig")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layers = field.delta_x.nbytes + field.sigma_total.nbytes + field.nodata_mask.nbytes
        assert peak <= 2.0 * layers
        assert field.nodata_mask[5, 7] and field.nodata_mask.sum() == 1
        assert np.all(field.sigma_total >= 0)
        values_back, nodata, _, _ = read_raster(tmp_path / "enh")
        for array in (values_back, nodata):
            assert array.flags.owndata and not array.flags.writeable
        # what the field holds writes back to the same bytes
        write_raster(field.delta_x, tmp_path / "again", 30.0, nodata_mask=field.nodata_mask)
        assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "enh.bin").read_bytes()

    def test_sentinel_maps_to_nodata(self, tmp_path):
        values = np.full((4, 4), 7.0)
        values[2, 3] = NODATA
        write_raster(values, tmp_path / "enh", 30.0)
        field = ingest_level2(tmp_path / "enh")
        assert field.nodata_mask[2, 3]
        assert field.nodata_mask.sum() == 1
        assert field.delta_x[0, 0] == 7.0


class TestEnhancementFieldInvariants:
    def test_sigma_shape_checks(self):
        with pytest.raises(DataError):
            EnhancementField(delta_x=np.ones((3, 3)), gsd=30.0, sigma_noise=np.ones((3, 2)))

    def test_negative_sigma_rejected(self):
        with pytest.raises(DataError):
            EnhancementField(delta_x=np.ones((3, 3)), gsd=30.0, sigma_noise=-np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["delta_x", "sigma_noise", "sigma_total"])
    def test_non_finite_outside_nodata_rejected(self, name, bad):
        layer = np.ones((3, 3))
        layer[1, 2] = bad
        layers = {"delta_x": np.ones((3, 3)), name: layer}
        with pytest.raises(DataError, match="finite"):
            EnhancementField(gsd=30.0, **layers)
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 2] = True
        EnhancementField(gsd=30.0, nodata_mask=mask, **layers)

    def test_non_finite_level2_raster_rejected(self, tmp_path):
        values = np.zeros((64, 64))
        values[10, 20] = np.nan
        write_raster(values, tmp_path / "enh", 30.0)
        write_raster(np.ones((64, 64)), tmp_path / "sig", 30.0)
        with pytest.raises(DataError, match="finite"):
            ingest_level2(tmp_path / "enh")
        write_raster(np.ones((64, 64)), tmp_path / "enh", 30.0)
        write_raster(values, tmp_path / "sig", 30.0)
        with pytest.raises(DataError, match="finite"):
            ingest_level2(tmp_path / "enh", tmp_path / "sig")

    def test_quadrature_identity_after_assembly(self, rng):
        from plumeflux.background import total_sigma

        noise = rng.random((5, 5)) * 10
        field = EnhancementField(delta_x=np.zeros((5, 5)), gsd=30.0, sigma_noise=noise)
        out = field.replace(sigma_total=total_sigma(field.sigma_noise, 4.0))
        assert np.array_equal(out.sigma_total, np.sqrt(noise**2 + 4.0**2))
        np.testing.assert_allclose(out.sigma_total**2, out.sigma_noise**2 + 16.0, rtol=1e-15)

    def test_crop_cuts_every_layer_and_moves_the_origin(self, rng):
        values = rng.random((10, 10))
        mask = values > 0.9
        field = EnhancementField(
            delta_x=values,
            gsd=30.0,
            origin=(100.0, 300.0),
            sigma_noise=values,
            sigma_total=values + 1,
            nodata_mask=mask,
        )
        crop = field.crop((slice(2, 7), slice(5, 10)))
        assert crop.shape == (5, 5) and crop.origin == (250.0, 240.0) and crop.gsd == 30.0
        np.testing.assert_array_equal(crop.delta_x, values[2:7, 5:])
        np.testing.assert_array_equal(crop.sigma_noise, values[2:7, 5:])
        np.testing.assert_array_equal(crop.sigma_total, values[2:7, 5:] + 1)
        np.testing.assert_array_equal(crop.nodata_mask, mask[2:7, 5:])


class TestEffectiveGsd:
    @pytest.mark.parametrize(
        "area,pixels,expected",
        [
            (18_862_057.0, 17_520, 32.81),
            (65_378_710.51, 65_308, 31.64),
            (2_569_892.0, 2_855, 30.00),
        ],
    )
    def test_reported_scene_backouts(self, area, pixels, expected):
        assert effective_gsd(area, pixels) == pytest.approx(expected, abs=0.01)

    def test_identity_property(self, rng):
        for _ in range(20):
            gsd = float(rng.uniform(0.5, 100.0))
            n = int(rng.integers(1, 10_000))
            assert effective_gsd(gsd * gsd * n, n) == pytest.approx(gsd, rel=1e-12)

    def test_zero_pixels(self):
        with pytest.raises(DomainError):
            effective_gsd(100.0, 0)


class TestErrorExitCodes:
    def test_exception_exit_code_mapping(self):
        from plumeflux.errors import (
            ConfigError,
            DataError,
            DomainError,
            NumericalError,
            PlumefluxError,
        )

        assert ConfigError("x").exit_code == 2
        assert DataError("x").exit_code == 3
        assert DomainError("x").exit_code == 3
        assert NumericalError("x").exit_code == 4
        assert issubclass(ConfigError, PlumefluxError)
