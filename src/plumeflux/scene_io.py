"""Sensor-agnostic containers and bit-exact raster I/O.

The canonical on-disk format is a UTF-8 text header (``key = value`` lines,
list values comma-separated) next to a raw band-sequential little-endian
float32 payload: ``name`` is stored as ``name.hdr`` + ``name.bin``. A
single-band raster is a one-band cube. A pixel is nodata when every band read
holds the sentinel -9999.0; in memory it is zeroed and flagged in the boolean
``nodata_mask``, so arrays never carry the sentinel. ``read_cube`` keeps
radiance float32 and, given a wavelength window, reads only that contiguous
run of bands; consumers widen each pixel chunk to float64 (exactly) before
any arithmetic. Rasters are read as float64.

Every file the package reads or writes goes through ``read_file`` or
``write_file``: text is UTF-8, a file that cannot be read or written is a
package error naming it, and a writer makes its directory.

The containers hold their arrays read-only. An array of the right dtype
that is already read-only and owns its memory is taken over as is, so its
owner must not make it writeable again; anything else, a view included, is
copied.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, DomainError

NODATA = -9999.0


def read_file(path: Union[str, Path], what: str, missing=DataError, error=DataError, binary: bool = False):
    """The UTF-8 text of ``path``, or with ``binary`` the file opened for unbuffered reads.

    A missing file is a ``missing`` error, "<what> not found: <path>"; any
    other ``OSError``, or a byte that is not UTF-8, is an ``error`` naming it.
    """
    try:
        return open(path, "rb", buffering=0) if binary else Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise missing(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {getattr(exc, 'strerror', None) or exc}") from None


def write_file(path: Union[str, Path], data: Union[str, bytes, np.ndarray]) -> None:
    """Write UTF-8 text or bytes-like data to ``path``, making its directory first; an ``OSError`` is a ``DataError``."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


def check_output_dir(path: Union[str, Path]) -> Path:
    """``path``, checked as an output directory before a run reads anything; makes nothing.

    An existing path that is not a directory, or whose nearest existing
    ancestor is not one, is a ``DataError`` naming that path, so the run
    stops before its work, not at its first write.
    """
    path = Path(path)
    there = next((p for p in (path, *path.parents) if os.path.exists(p)), None)
    if there is not None and not os.path.isdir(there):
        raise DataError(f"output path is not a directory: {there}")
    return path


def _frozen(array, dtype, shape: Optional[tuple] = None, name: str = "") -> np.ndarray:
    """``array`` as a read-only ``dtype`` array that a container may keep.

    A read-only array of that dtype that owns its memory is taken over as is;
    anything else is copied. With ``shape`` given, ``None`` stands for zeros
    and any other shape is a ``DataError`` naming the layer.
    """
    if array is None:
        array = np.zeros(shape, dtype)
    owned = isinstance(array, np.ndarray) and array.flags.owndata
    if not owned or array.dtype != dtype or array.flags.writeable:
        array = np.array(array, dtype=dtype)
        array.flags.writeable = False
    if shape is not None and array.shape != shape:
        raise DataError(f"{name} shape must be {shape}, got {array.shape}")
    return array


def _check_gsd(gsd: float) -> None:
    """The header reader's rule for ``gsd_m``: positive and finite."""
    if not 0 < gsd < math.inf:
        raise DataError(f"gsd must be positive and finite, got {gsd!r}")


def _place(origin, gsd: float, lines: int, samples: int) -> tuple[float, float]:
    """``origin`` as two floats, each finite as the header reader requires.

    The scene's area and far corner at ``gsd`` must be finite too, so that no
    plume area or polygon vertex overflows.
    """
    easting, northing, gsd = float(origin[0]), float(origin[1]), float(gsd)
    if not (math.isfinite(easting) and math.isfinite(northing)):
        raise DataError(f"origin must be finite, got {origin!r}")
    extent = (lines * samples * gsd * gsd, easting + samples * gsd, northing - lines * gsd)
    if not all(map(math.isfinite, extent)):
        raise DataError(f"gsd {gsd!r} overflows the {lines}x{samples} scene's area or corner")
    return easting, northing


@dataclass(frozen=True)
class SensorDescriptor:
    """Spectral and radiometric description of one instrument.

    ``noise_a`` and ``noise_c`` are the per-band coefficients of the
    radiometric noise model var = a * radiance + c (photon-like plus
    additive dark/read terms).
    """

    sensor_id: str
    band_centers: np.ndarray
    band_fwhm: np.ndarray
    gsd: float
    noise_a: Optional[np.ndarray] = None
    noise_c: Optional[np.ndarray] = None

    def __post_init__(self):
        # the id is one header value: a line break would add header lines, and
        # the reader strips surrounding whitespace
        if self.sensor_id != self.sensor_id.strip() or len(self.sensor_id.splitlines()) > 1:
            raise DataError(
                f"sensor_id {self.sensor_id!r} must not hold a line break or surrounding whitespace"
            )
        centers = _frozen(self.band_centers, np.float64)
        if centers.ndim != 1 or centers.size < 2:
            raise DataError("band_centers must be a 1-D list of at least 2 bands")
        if np.any(np.diff(centers) <= 0):
            raise DataError("band_centers must be strictly increasing")
        fwhm = _frozen(self.band_fwhm, np.float64, centers.shape, "band_fwhm")
        if np.any(fwhm <= 0):
            raise DataError("band_fwhm must be positive")
        _check_gsd(self.gsd)
        object.__setattr__(self, "band_centers", centers)
        object.__setattr__(self, "band_fwhm", fwhm)
        for name in ("noise_a", "noise_c"):
            coeffs = getattr(self, name)
            if coeffs is None:
                continue
            coeffs = _frozen(coeffs, np.float64, centers.shape, name)
            if np.any(coeffs < 0):
                raise DataError(f"{name} must be non-negative")
            object.__setattr__(self, name, coeffs)

    @property
    def n_bands(self) -> int:
        return int(self.band_centers.size)

    def has_noise_model(self) -> bool:
        return self.noise_a is not None and self.noise_c is not None


def _finite(data: np.ndarray) -> np.ndarray:
    """Per (line, sample), whether ``data`` is finite in every band; a run of bands per worker."""
    def run(part):
        bands, acc, scratch = part
        acc[...] = True
        for band in data[bands]:
            acc &= np.isfinite(band, out=scratch)
        return acc

    parts = [(bands, np.empty(data.shape[1:], bool), np.empty(data.shape[1:], bool))
             for bands in kernels.runs(np.ones(data.shape[0]))]
    return reduce(np.logical_and, kernels.in_parallel(run, parts))


@dataclass(frozen=True)
class RadianceCube:
    """Calibrated at-sensor radiance, stored band-major: data[band, line, sample].

    ``data`` and ``nodata_mask`` are held read-only under the module's copy
    rule: ``read_cube`` hands over arrays nobody else references. Float32
    data stays float32; any other dtype becomes float64.
    """

    descriptor: SensorDescriptor
    data: np.ndarray
    origin: tuple[float, float] = (0.0, 0.0)
    nodata_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        dtype = np.float32 if np.asarray(self.data).dtype == np.float32 else np.float64
        data = _frozen(self.data, dtype)
        if data.ndim != 3:
            raise DataError("cube data must be 3-D (bands, lines, samples)")
        bands, lines, samples = data.shape
        if bands != self.descriptor.n_bands:
            raise DataError(
                f"cube has {bands} bands but descriptor declares {self.descriptor.n_bands}"
            )
        if bands < 2 or lines < 1 or samples < 1:
            raise DataError("cube must have at least 2 bands and 1x1 pixels")
        mask = _frozen(self.nodata_mask, bool, (lines, samples), "nodata_mask")
        if not np.all(_finite(data) | mask):
            raise DataError("cube contains non-finite radiance outside nodata_mask")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nodata_mask", mask)
        object.__setattr__(self, "origin", _place(self.origin, self.gsd, lines, samples))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def gsd(self) -> float:
        return self.descriptor.gsd


@dataclass(frozen=True)
class EnhancementField:
    """Per-pixel gas enhancement (ppm*m) with optional uncertainty layers.

    ``sigma_total`` combines noise and clutter in quadrature. Every value
    outside ``nodata_mask`` is finite, and the sigma layers are non-negative.
    Map layers are held read-only under the module's copy rule, so
    ``replace`` shares the layers it does not change; ``crop`` layers are
    read-only views of this field's layers, which are not checked again.
    """

    delta_x: np.ndarray
    gsd: float
    origin: tuple[float, float] = (0.0, 0.0)
    sigma_noise: Optional[np.ndarray] = None
    sigma_total: Optional[np.ndarray] = None
    nodata_mask: Optional[np.ndarray] = None
    provenance: str = ""

    def __post_init__(self):
        delta = _frozen(self.delta_x, np.float64)
        if delta.ndim != 2:
            raise DataError("delta_x must be 2-D")
        _check_gsd(self.gsd)
        mask = _frozen(self.nodata_mask, bool, delta.shape, "nodata_mask")
        if not np.all(np.isfinite(delta) | mask):
            raise DataError("delta_x contains non-finite values outside nodata_mask")
        object.__setattr__(self, "delta_x", delta)
        object.__setattr__(self, "nodata_mask", mask)
        object.__setattr__(self, "gsd", float(self.gsd))
        object.__setattr__(self, "origin", _place(self.origin, self.gsd, *delta.shape))
        for name in ("sigma_noise", "sigma_total"):
            layer = getattr(self, name)
            if layer is None:
                continue
            layer = _frozen(layer, np.float64, delta.shape, name)
            if not np.all((np.isfinite(layer) & (layer >= 0)) | mask):
                raise DataError(f"{name} must be finite and non-negative outside nodata_mask")
            object.__setattr__(self, name, layer)

    @property
    def shape(self) -> tuple[int, int]:
        return self.delta_x.shape

    def replace(self, **kwargs) -> "EnhancementField":
        return dataclasses.replace(self, **kwargs)

    def crop(self, window: tuple[slice, slice]) -> "EnhancementField":
        """The field inside (line, sample) ``window``; the origin moves by whole pixels."""
        rows, cols = window
        names = ("delta_x", "nodata_mask", "sigma_noise", "sigma_total")
        maps = {n: getattr(self, n)[window] for n in names if getattr(self, n) is not None}
        origin = (self.origin[0] + cols.start * self.gsd, self.origin[1] - rows.start * self.gsd)
        crop = object.__new__(EnhancementField)
        vars(crop).update(vars(self), origin=origin, **maps)
        return crop


def effective_gsd(area_m2: float, pixel_count: int) -> float:
    """Back out the ground sampling distance from a georeferenced pixel area."""
    if pixel_count <= 0:
        raise DomainError("pixel_count must be positive")
    if area_m2 < 0:
        raise DomainError("area_m2 must be non-negative")
    return float(np.sqrt(area_m2 / pixel_count))


# ---------------------------------------------------------------------------
# the BSQ codec: one reader and one writer for cubes and rasters


def _number(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _numbers(text: str) -> np.ndarray:
    return np.array([_number(v) for v in text.split(",") if v.strip() != ""])


_BAND_LISTS = ("wavelengths_nm", "fwhm_nm", "noise_a", "noise_c")
# the numeric header keys and how each is converted; any other key stays text
_HEADER_NUMBERS = {
    **dict.fromkeys(("samples", "lines", "bands"), int),
    **dict.fromkeys(("gsd_m", "origin_e_m", "origin_n_m"), _number),
    **dict.fromkeys(_BAND_LISTS, _numbers),
}
_FORMAT = {"data_type": "float32", "interleave": "bsq", "byte_order": "lsb"}


def dataset_paths(path: Union[str, Path]) -> tuple[Path, Path]:
    """Header and payload paths of a dataset: ``name`` -> ``name.hdr``, ``name.bin``.

    A path that already ends in ``.hdr`` or ``.bin`` names the same pair; any
    other suffix is part of the name (``scene.v1`` -> ``scene.v1.hdr``).
    """
    path = Path(path)
    base = path.with_suffix("") if path.suffix in (".hdr", ".bin") else path
    return Path(f"{base}.hdr"), Path(f"{base}.bin")


def _read_payload(payload, out: np.ndarray, offset: int) -> None:
    """Fill (bands, pixels) ``out`` from the open file ``payload`` at ``offset`` with ``os.preadv``, a run of bands per worker."""
    fd = payload.fileno()

    def fill(run):
        view, at = memoryview(out[run]).cast("B"), offset + run.start * out[0].nbytes
        while view.nbytes:  # a read may come up short
            got = os.preadv(fd, [view], at)
            if got == 0:
                raise DataError(f"payload {payload.name} ended {view.nbytes} bytes early")
            view, at = view[got:], at + got

    kernels.in_parallel(fill, kernels.runs(np.ones(out.shape[0])))


def _read_bsq(
    path: Union[str, Path], required: tuple[str, ...], bands: Optional[int] = None, window=None
) -> tuple[dict, np.ndarray, np.ndarray, slice]:
    """Header entries, float32 (bands, lines, samples) data, nodata mask and band run.

    Numeric header values come back converted (``_HEADER_NUMBERS``). With
    ``window`` (low, high) nm, only the run of bands whose ``wavelengths_nm``
    fall inside it is read; the per-band lists stay whole, and the returned
    slice cuts them to that run. A pixel is nodata when every band read holds
    the sentinel; it is zeroed in the data.
    With ``bands`` given, any other band count is rejected before the payload
    is read, and a one-band read comes back float64 and 2-D (lines, samples).
    Both arrays are read-only and own their memory: a container keeps them.
    """
    hdr_path, bin_path = dataset_paths(path)
    entries = {}
    for raw in read_file(hdr_path, "header file", missing=ConfigError).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"malformed header line in {hdr_path}: {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    missing = [k for k in ("samples", "lines", "bands", *_FORMAT, *required) if k not in entries]
    if missing:
        raise ConfigError(f"header {hdr_path} missing required key(s): {', '.join(missing)}")
    for key, expected in _FORMAT.items():
        if entries[key] != expected:
            raise DataError(f"unsupported {key} {entries[key]!r} in {hdr_path}")
    for key, convert in _HEADER_NUMBERS.items():
        if key in entries:
            try:
                entries[key] = convert(entries[key])
            except ValueError:
                raise DataError(f"invalid {key} value {entries[key]!r} in {hdr_path}") from None
    shape = (entries["bands"], entries["lines"], entries["samples"])
    if min(shape) < 1:
        raise DataError(f"bands, lines and samples must be positive in {hdr_path}, got {shape}")
    if bands is not None and shape[0] != bands:
        raise DataError(f"expected {bands} band(s), got {shape[0]} in {hdr_path}")
    lists = [key for key in _BAND_LISTS if key in entries]
    if any(entries[key].size != shape[0] for key in lists):
        raise DataError(f"every per-band list must hold {shape[0]} values in {hdr_path}")
    first, count = 0, shape[0]
    if window is not None:
        centers = entries["wavelengths_nm"]
        inside = np.flatnonzero((centers >= window[0]) & (centers <= window[1]))
        if inside.size == 0:
            raise DataError(f"no bands inside window {tuple(window)} nm in {hdr_path}")
        first, count = int(inside[0]), int(inside[-1] - inside[0]) + 1

    with read_file(bin_path, "payload file", binary=True) as payload:
        size, expected = os.fstat(payload.fileno()).st_size, 4 * math.prod(shape)
        if size != expected:
            raise DataError(f"payload {bin_path} has {size} bytes, expected {expected}")
        plane = shape[1] * shape[2]
        data = np.empty((count, *shape[1:]), dtype="<f4")
        _read_payload(payload, data.reshape(count, plane), 4 * first * plane)
    # the pixels that hold the sentinel in band 0, narrowed band by band
    at = np.flatnonzero(data[0] == NODATA)
    for band in data[1:]:
        at = at[band.ravel()[at] == NODATA]
    data.reshape(count, plane)[:, at] = 0.0
    nodata = np.zeros(shape[1:], dtype=bool)
    nodata.ravel()[at] = True
    if bands == 1:
        data = data[0].astype(np.float64)
    data.flags.writeable = nodata.flags.writeable = False
    return entries, data, nodata, slice(first, first + count)


def _bsq_files(path: Union[str, Path], data: np.ndarray, nodata_mask, header: list[str]) -> list:
    """The header text and the payload of (bands, lines, samples) ``data`` as a float32 BSQ dataset,
    each with its path. Every band holds the sentinel under ``nodata_mask``; without one, C-ordered
    little-endian float32 ``data`` is the payload itself. ``header`` holds the lines that follow
    the shared size and format block."""
    hdr_path, bin_path = dataset_paths(path)
    bands, lines, samples = data.shape
    payload = data.astype("<f4", order="C", copy=nodata_mask is not None)
    if nodata_mask is not None:
        payload[:, np.asarray(nodata_mask, dtype=bool)] = NODATA
    text = [
        f"samples = {samples}",
        f"lines = {lines}",
        f"bands = {bands}",
        *(f"{key} = {value}" for key, value in _FORMAT.items()),
        *header,
    ]
    return [(hdr_path, "\n".join(text) + "\n"), (bin_path, payload)]


def _entry(key: str, value) -> str:
    """One header line: numbers in repr form, a sequence comma-separated."""
    return f"{key} = " + ", ".join(repr(float(v)) for v in np.atleast_1d(value))


def _place_entries(gsd: float, origin: tuple[float, float]) -> list[str]:
    return [_entry("gsd_m", gsd), _entry("origin_e_m", origin[0]), _entry("origin_n_m", origin[1])]


def _origin(entries: dict) -> tuple[float, float]:
    return entries.get("origin_e_m", 0.0), entries.get("origin_n_m", 0.0)


def read_cube(path: Union[str, Path], window: Optional[tuple] = None) -> RadianceCube:
    """Read a float32 radiance cube from the canonical header + BSQ payload pair.

    With ``window`` (low, high) nm, only the bands whose centres fall inside
    it are read, and the descriptor lists only those (none is a ``DataError``).
    """
    required = ("wavelengths_nm", "fwhm_nm", "gsd_m")
    entries, data, nodata, run = _read_bsq(path, required, window=window)
    try:
        # the whole header lists are checked: a bad band outside the window fails this read too
        full = SensorDescriptor(
            sensor_id=entries.get("sensor_id", ""),
            band_centers=entries["wavelengths_nm"],
            band_fwhm=entries["fwhm_nm"],
            gsd=entries["gsd_m"],
            noise_a=entries.get("noise_a"),
            noise_c=entries.get("noise_c"),
        )
        lists = ("band_centers", "band_fwhm", "noise_a", "noise_c")
        cut = {n: getattr(full, n)[run] for n in lists if getattr(full, n) is not None}
        descriptor = dataclasses.replace(full, **cut)
        return RadianceCube(descriptor, data, origin=_origin(entries), nodata_mask=nodata)
    except DataError as exc:
        raise DataError(f"{dataset_paths(path)[0]}: {exc}") from None


def write_cube(cube: RadianceCube, path: Union[str, Path]) -> None:
    """Write a cube as canonical header + BSQ little-endian float32 payload."""
    d = cube.descriptor
    header = [
        _entry("wavelengths_nm", d.band_centers),
        _entry("fwhm_nm", d.band_fwhm),
        *_place_entries(d.gsd, cube.origin),
    ]
    if d.sensor_id:
        header.append(f"sensor_id = {d.sensor_id}")
    for name in ("noise_a", "noise_c"):
        if getattr(d, name) is not None:
            header.append(_entry(name, getattr(d, name)))
    for file, data in _bsq_files(path, cube.data, cube.nodata_mask, header):
        write_file(file, data)


def raster_files(values, path: Union[str, Path], gsd: float, origin=(0.0, 0.0), nodata_mask=None) -> list:
    """The header text and the float32 payload that ``write_raster`` writes, each with its path."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise DataError("raster values must be 2-D")
    return _bsq_files(path, values[None], nodata_mask, [*_place_entries(gsd, origin), _entry("nodata", NODATA)])


def write_raster(
    values: np.ndarray,
    path: Union[str, Path],
    gsd: float,
    origin: tuple[float, float] = (0.0, 0.0),
    nodata_mask: Optional[np.ndarray] = None,
) -> None:
    """Write a single-band raster in the canonical format (sentinel -9999)."""
    for file, data in raster_files(values, path, gsd, origin, nodata_mask):
        write_file(file, data)


def read_raster(path: Union[str, Path]) -> tuple[np.ndarray, np.ndarray, float, tuple[float, float]]:
    """Read a single-band raster; returns (values, nodata_mask, gsd, origin).

    Both arrays are read-only and own their memory.
    """
    entries, values, nodata, _ = _read_bsq(path, ("gsd_m",), bands=1)
    return values, nodata, entries["gsd_m"], _origin(entries)


def ingest_level2(
    enh_path: Union[str, Path],
    sigma_path: Union[str, Path, None] = None,
    gsd: Optional[float] = None,
) -> EnhancementField:
    """Ingest an externally produced enhancement product (and optional sigma).

    The optional raster is taken as the total per-pixel uncertainty of the
    external processor. Without it the field carries no sigma layers and
    downstream mass-uncertainty outputs are reported as unavailable, never
    fabricated.
    """
    values, nodata, file_gsd, origin = read_raster(enh_path)
    sigma_total = None
    if sigma_path is not None:
        sigma, sigma_nodata, _, _ = read_raster(sigma_path)
        if sigma.shape != values.shape:
            raise DataError(
                f"sigma raster shape {sigma.shape} does not match enhancement {values.shape}"
            )
        nodata = nodata | sigma_nodata
        sigma_total = np.abs(sigma)
        # frozen in place, so the field takes both over without a copy
        nodata.flags.writeable = sigma_total.flags.writeable = False
    return EnhancementField(
        delta_x=values,
        gsd=file_gsd if gsd is None else gsd,
        origin=origin,
        sigma_total=sigma_total,
        nodata_mask=nodata,
        provenance="external",
    )
