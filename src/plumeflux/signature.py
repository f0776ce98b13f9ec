"""Band-space gas signature built from a high-resolution absorption table.

The per-band absorption coefficient is the table convolved with a Gaussian
spectral response of the given FWHM; the target radiance perturbation is the
first-order Beer-Lambert derivative t = -k * mu, which keeps matched-filter
outputs in physical concentration-path-length units (ppm*m).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Union

import numpy as np

from .errors import DataError
from .scene_io import SensorDescriptor, read_file

# FWHM of a Gaussian = 2*sqrt(2*ln 2) * sigma
_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


@dataclass(frozen=True)
class AbsorptionTable:
    """High-resolution absorption coefficients kappa(lambda), (ppm*m)^-1."""

    wavelengths: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        wl = np.asarray(self.wavelengths, dtype=np.float64)
        ka = np.asarray(self.kappa, dtype=np.float64)
        if wl.ndim != 1 or wl.size < 2 or ka.shape != wl.shape:
            raise DataError("absorption table needs two equal-length columns of >= 2 rows")
        if not (np.all(np.isfinite(wl)) and np.all(np.isfinite(ka))):
            raise DataError("absorption table values must be finite")
        if np.any(np.diff(wl) <= 0):
            raise DataError("absorption table wavelengths must be strictly increasing")
        if np.any(ka < 0):
            raise DataError("absorption coefficients must be non-negative")
        object.__setattr__(self, "wavelengths", wl)
        object.__setattr__(self, "kappa", ka)


@dataclass(frozen=True)
class BandAbsorption:
    """SRF-averaged absorption per band inside the retrieval window."""

    k_band: np.ndarray
    band_indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k_band", np.asarray(self.k_band, dtype=np.float64))
        object.__setattr__(self, "band_indices", np.asarray(self.band_indices, dtype=np.int64))


def _table_lines(text: str):
    """(number, raw line, fields) of each line that holds more than a '#' comment."""
    for number, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield number, raw, fields


def read_absorption_table(path: Union[str, Path]) -> AbsorptionTable:
    """Read a two-column (wavelength_nm, kappa) text table; '#' comments."""
    text = read_file(path, "absorption table")
    rows = []
    for number, raw, parts in _table_lines(text):
        where = f"{path} line {number}"
        if len(parts) != 2:
            raise DataError(f"{where}: absorption table line is not two columns: {raw!r}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise DataError(f"{where}: values must be finite numbers, got {raw!r}") from None
    if len(rows) < 2:
        raise DataError(f"absorption table {path} has fewer than 2 rows")
    arr = np.array(rows)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():  # one check per table; the offending line is looked up only now
        number, raw, _ = next(islice(_table_lines(text), int(np.argmin(finite)), None))
        raise DataError(f"{path} line {number}: values must be finite numbers, got {raw!r}")
    return AbsorptionTable(wavelengths=arr[:, 0], kappa=arr[:, 1])


@cache
def load_bundled_table() -> AbsorptionTable:
    """Synthetic smooth absorption table shipped with the package.

    It is parsed once per process, and every caller gets the same table, so
    its arrays are read-only.
    """
    ref = resources.files("plumeflux").joinpath("data/ch4_synthetic_absorption.txt")
    with resources.as_file(ref) as path:
        table = read_absorption_table(path)
    table.wavelengths.flags.writeable = table.kappa.flags.writeable = False
    return table


def window_band_indices(
    descriptor: SensorDescriptor, window: tuple[float, float]
) -> np.ndarray:
    """Indices of bands whose centers fall inside [window_low, window_high]."""
    low, high = float(window[0]), float(window[1])
    centers = descriptor.band_centers
    return np.flatnonzero((centers >= low) & (centers <= high))


def band_absorption(
    table: AbsorptionTable,
    descriptor: SensorDescriptor,
    window: tuple[float, float],
) -> BandAbsorption:
    """SRF-average the absorption table onto the sensor bands in the window.

    Each band uses a Gaussian response of standard deviation FWHM / 2.3548
    centered on the band, integrated by trapezoid on the table grid.
    """
    low, high = float(window[0]), float(window[1])
    indices = window_band_indices(descriptor, (low, high))
    if indices.size == 0:
        raise DataError(f"no bands inside retrieval window [{low}, {high}] nm")

    max_fwhm = float(np.max(descriptor.band_fwhm[indices]))
    need_lo = low - 3.0 * max_fwhm
    need_hi = high + 3.0 * max_fwhm
    wl = table.wavelengths
    if wl[0] > need_lo or wl[-1] < need_hi:
        raise DataError(
            "absorption table covers [{:.2f}, {:.2f}] nm but [{:.2f}, {:.2f}] nm is required".format(
                wl[0], wl[-1], need_lo, need_hi
            )
        )

    k_band = np.empty(indices.size)
    for i, b in enumerate(indices):
        center = descriptor.band_centers[b]
        sigma = descriptor.band_fwhm[b] * _FWHM_TO_SIGMA
        g = np.exp(-0.5 * ((wl - center) / sigma) ** 2)
        norm = np.trapezoid(g, wl)
        if norm <= 0:
            raise DataError(f"spectral response of band {b} integrates to zero on the table grid")
        k_band[i] = np.trapezoid(g * table.kappa, wl) / norm
    return BandAbsorption(k_band=k_band, band_indices=indices)


def target_spectrum(k_band: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """First-order radiance perturbation per unit enhancement: t = -k * mu, per row of ``mu``."""
    k_band = np.asarray(k_band, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if k_band.shape != mu.shape[-1:]:
        raise DataError(f"k_band shape {k_band.shape} does not match mu shape {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise DataError("background mean must be finite")
    return -k_band * mu


def transmittance(k_band: np.ndarray, delta_x) -> np.ndarray:
    """Beer-Lambert transmittance exp(-k * delta_x); the simulator's forward model."""
    k_band = np.asarray(k_band, dtype=np.float64)
    delta_x = np.asarray(delta_x, dtype=np.float64)
    if np.any(delta_x < 0):
        raise DataError("delta_x must be non-negative")
    return np.exp(-np.multiply.outer(k_band, delta_x))
