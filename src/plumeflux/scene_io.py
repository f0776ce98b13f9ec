"""Sensor-agnostic containers and bit-exact raster I/O.

The canonical on-disk format is a UTF-8 text header (``key = value`` lines,
list values comma-separated) next to a raw band-sequential little-endian
float32 payload with the same basename and a ``.bin`` extension. The nodata
sentinel in payloads is -9999.0; in-memory arrays never carry the sentinel,
only the boolean ``nodata_mask``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, DataError, DomainError

NODATA = -9999.0

_REQUIRED_CUBE_KEYS = (
    "samples",
    "lines",
    "bands",
    "data_type",
    "interleave",
    "byte_order",
    "wavelengths_nm",
    "fwhm_nm",
    "gsd_m",
)


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
        centers = np.asarray(self.band_centers, dtype=np.float64)
        fwhm = np.asarray(self.band_fwhm, dtype=np.float64)
        object.__setattr__(self, "band_centers", centers)
        object.__setattr__(self, "band_fwhm", fwhm)
        if centers.ndim != 1 or centers.size < 2:
            raise DataError("band_centers must be a 1-D list of at least 2 bands")
        if np.any(np.diff(centers) <= 0):
            raise DataError("band_centers must be strictly increasing")
        if fwhm.shape != centers.shape:
            raise DataError("band_fwhm length must match band_centers")
        if np.any(fwhm <= 0):
            raise DataError("band_fwhm must be positive")
        if not self.gsd > 0:
            raise DataError("gsd must be positive")
        for name in ("noise_a", "noise_c"):
            coeffs = getattr(self, name)
            if coeffs is None:
                continue
            coeffs = np.asarray(coeffs, dtype=np.float64)
            object.__setattr__(self, name, coeffs)
            if coeffs.shape != centers.shape:
                raise DataError(f"{name} must have one value per band")
            if np.any(coeffs < 0):
                raise DataError(f"{name} must be non-negative")

    @property
    def n_bands(self) -> int:
        return int(self.band_centers.size)

    def has_noise_model(self) -> bool:
        return self.noise_a is not None and self.noise_c is not None


@dataclass(frozen=True)
class RadianceCube:
    """Calibrated at-sensor radiance, stored band-major: data[band, line, sample].

    ``data`` is copied unless it is a float64 array that is read-only and owns
    its memory (what ``read_cube`` builds): such an array is taken over as is,
    so its owner must not make it writeable again.
    """

    descriptor: SensorDescriptor
    data: np.ndarray
    origin: tuple[float, float] = (0.0, 0.0)
    nodata_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise DataError("cube data must be 3-D (bands, lines, samples)")
        bands, lines, samples = data.shape
        if bands != self.descriptor.n_bands:
            raise DataError(
                f"cube has {bands} bands but descriptor declares {self.descriptor.n_bands}"
            )
        if bands < 2 or lines < 1 or samples < 1:
            raise DataError("cube must have at least 2 bands and 1x1 pixels")
        if self.nodata_mask is None:
            mask = np.zeros((lines, samples), dtype=bool)
        else:
            mask = np.asarray(self.nodata_mask, dtype=bool)
            if mask.shape != (lines, samples):
                raise DataError("nodata_mask shape must be (lines, samples)")
        if not np.all(np.isfinite(data).all(axis=0) | mask):
            raise DataError("cube contains non-finite radiance outside nodata_mask")
        if data.flags.writeable or not data.flags.owndata:
            data = data.copy()
            data.flags.writeable = False
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nodata_mask", mask)
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def gsd(self) -> float:
        return self.descriptor.gsd


@dataclass(frozen=True)
class EnhancementField:
    """Per-pixel gas enhancement (ppm*m) with optional uncertainty layers.

    ``sigma_clutter`` is a scalar for scene-level clutter or a full map;
    ``sigma_total`` combines noise and clutter in quadrature.
    """

    delta_x: np.ndarray
    gsd: float
    origin: tuple[float, float] = (0.0, 0.0)
    sigma_noise: Optional[np.ndarray] = None
    sigma_clutter: Union[float, np.ndarray, None] = None
    sigma_total: Optional[np.ndarray] = None
    nodata_mask: Optional[np.ndarray] = None
    provenance: str = ""

    def __post_init__(self):
        delta = np.asarray(self.delta_x, dtype=np.float64)
        if delta.ndim != 2:
            raise DataError("delta_x must be 2-D")
        if not self.gsd > 0:
            raise DataError("gsd must be positive")
        if self.nodata_mask is None:
            mask = np.zeros(delta.shape, dtype=bool)
        else:
            mask = np.asarray(self.nodata_mask, dtype=bool)
            if mask.shape != delta.shape:
                raise DataError("nodata_mask shape must match delta_x")
        delta = delta.copy()
        delta.flags.writeable = False
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "delta_x", delta)
        object.__setattr__(self, "nodata_mask", mask)
        object.__setattr__(self, "gsd", float(self.gsd))
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        for name in ("sigma_noise", "sigma_total"):
            layer = getattr(self, name)
            if layer is None:
                continue
            layer = np.asarray(layer, dtype=np.float64)
            if layer.shape != delta.shape:
                raise DataError(f"{name} shape must match delta_x")
            if np.any(layer[~mask] < 0):
                raise DataError(f"{name} must be non-negative")
            layer = layer.copy()
            layer.flags.writeable = False
            object.__setattr__(self, name, layer)
        clutter = self.sigma_clutter
        if clutter is not None:
            if np.ndim(clutter) == 0:
                clutter = float(clutter)
                if clutter < 0:
                    raise DataError("sigma_clutter must be non-negative")
            else:
                clutter = np.asarray(clutter, dtype=np.float64)
                if clutter.shape != delta.shape:
                    raise DataError("sigma_clutter map shape must match delta_x")
                if np.any(clutter[~mask] < 0):
                    raise DataError("sigma_clutter must be non-negative")
                clutter = clutter.copy()
                clutter.flags.writeable = False
            object.__setattr__(self, "sigma_clutter", clutter)

    @property
    def shape(self) -> tuple[int, int]:
        return self.delta_x.shape

    def replace(self, **kwargs) -> "EnhancementField":
        return dataclasses.replace(self, **kwargs)

    def crop(self, window: tuple[slice, slice]) -> "EnhancementField":
        """The field inside (line, sample) ``window``; the origin moves by whole pixels."""
        rows, cols = window
        names = ("delta_x", "nodata_mask", "sigma_noise", "sigma_clutter", "sigma_total")
        maps = {n: getattr(self, n)[window] for n in names if np.ndim(getattr(self, n)) == 2}
        origin = (self.origin[0] + cols.start * self.gsd, self.origin[1] - rows.start * self.gsd)
        return self.replace(origin=origin, **maps)


def effective_gsd(area_m2: float, pixel_count: int) -> float:
    """Back out the ground sampling distance from a georeferenced pixel area."""
    if pixel_count <= 0:
        raise DomainError("pixel_count must be positive")
    if area_m2 < 0:
        raise DomainError("area_m2 must be non-negative")
    return float(np.sqrt(area_m2 / pixel_count))


# ---------------------------------------------------------------------------
# header parsing


def _paths(path: Union[str, Path]) -> tuple[Path, Path]:
    path = Path(path)
    if path.suffix in (".hdr", ".bin"):
        base = path.with_suffix("")
    else:
        base = path
    return base.with_suffix(".hdr"), base.with_suffix(".bin")


def _parse_header(hdr_path: Path) -> dict:
    if not hdr_path.exists():
        raise ConfigError(f"header file not found: {hdr_path}")
    entries = {}
    for raw in hdr_path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"malformed header line in {hdr_path}: {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries

def _header_list(entries: dict, key: str) -> np.ndarray:
    return np.array([float(v) for v in entries[key].split(",") if v.strip() != ""])


def _require(entries: dict, keys, hdr_path: Path) -> None:
    missing = [k for k in keys if k not in entries]
    if missing:
        raise ConfigError(f"header {hdr_path} missing required key(s): {', '.join(missing)}")


def _check_format(entries: dict, hdr_path: Path) -> None:
    if entries["data_type"] != "float32":
        raise DataError(f"unsupported data_type {entries['data_type']!r} in {hdr_path}")
    if entries["interleave"] != "bsq":
        raise DataError(f"unsupported interleave {entries['interleave']!r} in {hdr_path}")
    if entries["byte_order"] != "lsb":
        raise DataError(f"unsupported byte_order {entries['byte_order']!r} in {hdr_path}")


def _read_payload(bin_path: Path, n_values: int) -> np.ndarray:
    if not bin_path.exists():
        raise DataError(f"payload file not found: {bin_path}")
    raw = bin_path.read_bytes()
    expected = n_values * 4
    if len(raw) != expected:
        raise DataError(
            f"payload {bin_path} has {len(raw)} bytes, expected {expected}"
        )
    return np.frombuffer(raw, dtype="<f4")


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# radiance cubes


def read_cube(path: Union[str, Path]) -> RadianceCube:
    """Read a radiance cube from the canonical header + BSQ payload pair."""
    hdr_path, bin_path = _paths(path)
    entries = _parse_header(hdr_path)
    _require(entries, _REQUIRED_CUBE_KEYS, hdr_path)
    _check_format(entries, hdr_path)

    samples = int(entries["samples"])
    lines = int(entries["lines"])
    bands = int(entries["bands"])
    wavelengths = _header_list(entries, "wavelengths_nm")
    fwhm = _header_list(entries, "fwhm_nm")
    if wavelengths.size != bands:
        raise DataError(
            f"header {hdr_path} declares {bands} bands but {wavelengths.size} wavelengths"
        )
    if np.any(np.diff(wavelengths) <= 0):
        raise DataError(f"wavelengths_nm in {hdr_path} are not strictly increasing")

    noise_a = _header_list(entries, "noise_a") if "noise_a" in entries else None
    noise_c = _header_list(entries, "noise_c") if "noise_c" in entries else None
    descriptor = SensorDescriptor(
        sensor_id=entries.get("sensor_id", ""),
        band_centers=wavelengths,
        band_fwhm=fwhm,
        gsd=float(entries["gsd_m"]),
        noise_a=noise_a,
        noise_c=noise_c,
    )

    flat = _read_payload(bin_path, bands * lines * samples)
    data = flat.reshape(bands, lines, samples).astype(np.float64)
    nodata = np.all(data == NODATA, axis=0)
    data[:, nodata] = 0.0
    data.flags.writeable = False  # read-only and owned: the cube keeps it without a copy
    origin = (
        float(entries.get("origin_e_m", 0.0)),
        float(entries.get("origin_n_m", 0.0)),
    )
    return RadianceCube(descriptor=descriptor, data=data, origin=origin, nodata_mask=nodata)


def write_cube(cube: RadianceCube, path: Union[str, Path]) -> None:
    """Write a cube as canonical header + BSQ little-endian float32 payload."""
    hdr_path, bin_path = _paths(path)
    d = cube.descriptor
    bands, lines, samples = cube.shape
    lines_out = [
        f"samples = {samples}",
        f"lines = {lines}",
        f"bands = {bands}",
        "data_type = float32",
        "interleave = bsq",
        "byte_order = lsb",
        "wavelengths_nm = " + ", ".join(_fmt(v) for v in d.band_centers),
        "fwhm_nm = " + ", ".join(_fmt(v) for v in d.band_fwhm),
        f"gsd_m = {_fmt(d.gsd)}",
        f"origin_e_m = {_fmt(cube.origin[0])}",
        f"origin_n_m = {_fmt(cube.origin[1])}",
    ]
    if d.sensor_id:
        lines_out.append(f"sensor_id = {d.sensor_id}")
    if d.noise_a is not None:
        lines_out.append("noise_a = " + ", ".join(_fmt(v) for v in d.noise_a))
    if d.noise_c is not None:
        lines_out.append("noise_c = " + ", ".join(_fmt(v) for v in d.noise_c))

    data = np.asarray(cube.data, dtype="<f4")
    if np.any(cube.nodata_mask):
        data = data.copy()
        data[:, cube.nodata_mask] = NODATA
    try:
        hdr_path.write_text("\n".join(lines_out) + "\n", encoding="utf-8")
        bin_path.write_bytes(data.tobytes(order="C"))
    except OSError as exc:
        raise DataError(f"cannot write {hdr_path} / {bin_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# single-band rasters (enhancement, sigma, masks)


def write_raster(
    values: np.ndarray,
    path: Union[str, Path],
    gsd: float,
    origin: tuple[float, float] = (0.0, 0.0),
    nodata_mask: Optional[np.ndarray] = None,
) -> None:
    """Write a single-band raster in the canonical format (sentinel -9999)."""
    hdr_path, bin_path = _paths(path)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataError("raster values must be 2-D")
    lines, samples = values.shape
    out = values.astype("<f4")
    if nodata_mask is not None:
        out = out.copy()
        out[np.asarray(nodata_mask, dtype=bool)] = NODATA
    header = [
        f"samples = {samples}",
        f"lines = {lines}",
        "bands = 1",
        "data_type = float32",
        "interleave = bsq",
        "byte_order = lsb",
        f"gsd_m = {_fmt(gsd)}",
        f"origin_e_m = {_fmt(origin[0])}",
        f"origin_n_m = {_fmt(origin[1])}",
        f"nodata = {_fmt(NODATA)}",
    ]
    try:
        hdr_path.write_text("\n".join(header) + "\n", encoding="utf-8")
        bin_path.write_bytes(out.tobytes(order="C"))
    except OSError as exc:
        raise DataError(f"cannot write {hdr_path} / {bin_path}: {exc}") from exc


def read_raster(path: Union[str, Path]) -> tuple[np.ndarray, np.ndarray, float, tuple[float, float]]:
    """Read a single-band raster; returns (values, nodata_mask, gsd, origin)."""
    hdr_path, bin_path = _paths(path)
    entries = _parse_header(hdr_path)
    _require(entries, ("samples", "lines", "bands", "data_type", "interleave", "byte_order", "gsd_m"), hdr_path)
    _check_format(entries, hdr_path)
    samples = int(entries["samples"])
    lines = int(entries["lines"])
    bands = int(entries["bands"])
    if bands != 1:
        raise DataError(f"expected single-band raster, got {bands} bands in {hdr_path}")
    flat = _read_payload(bin_path, lines * samples)
    values = flat.reshape(lines, samples).astype(np.float64)
    nodata = values == NODATA
    if np.any(nodata):
        values = values.copy()
        values[nodata] = 0.0
    origin = (
        float(entries.get("origin_e_m", 0.0)),
        float(entries.get("origin_n_m", 0.0)),
    )
    return values, nodata, float(entries["gsd_m"]), origin


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
    use_gsd = float(gsd) if gsd is not None else file_gsd
    sigma_total = None
    if sigma_path is not None:
        sigma, sigma_nodata, _, _ = read_raster(sigma_path)
        if sigma.shape != values.shape:
            raise DataError(
                f"sigma raster shape {sigma.shape} does not match enhancement {values.shape}"
            )
        nodata = nodata | sigma_nodata
        sigma_total = np.abs(sigma)
    return EnhancementField(
        delta_x=values,
        gsd=use_gsd,
        origin=origin,
        sigma_total=sigma_total,
        nodata_mask=nodata,
        provenance="external",
    )
