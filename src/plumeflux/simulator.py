"""Synthetic radiance scenes with known injected plumes.

Ground truth for closed-loop verification of the retrieval, segmentation,
and quantification chain: smooth endmember-mixture backgrounds, a rotated
Gaussian enhancement injected through the same Beer-Lambert forward model
the retrieval linearizes, optional pushbroom-style column gains, and the
same radiometric noise model the retrieval propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DomainError
from .quantification import GasConstants, integrate_ime
from .scene_io import EnhancementField, RadianceCube, SensorDescriptor
from .signature import BandAbsorption, transmittance


@dataclass(frozen=True)
class SyntheticPlumeSpec:
    """Rotated anisotropic Gaussian enhancement, specified directly in ppm*m."""

    center: tuple[float, float]  # (line, sample)
    peak_delta_x: float
    sigma_along_m: float = 60.0
    sigma_across_m: float = 60.0
    orientation_rad: float = 0.0
    truth_mask_fraction: float = 0.01

    def __post_init__(self):
        for key in ("center", "peak_delta_x", "sigma_along_m", "sigma_across_m", "orientation_rad"):
            if not all(math.isfinite(v) for v in np.ravel(getattr(self, key))):
                raise ConfigError(f"simulate.plume.{key} must be finite")
        if self.peak_delta_x < 0:
            raise DomainError("peak_delta_x must be non-negative")
        if self.sigma_along_m <= 0 or self.sigma_across_m <= 0:
            raise DomainError("plume sigmas must be positive")
        if not 0.0 < self.truth_mask_fraction < 1.0:
            raise DomainError("truth_mask_fraction must be in (0, 1)")


@dataclass(frozen=True)
class PlumeTruth:
    """Truth products of one injection: map, mask, and integrated mass."""

    delta_x_true: np.ndarray
    mask: np.ndarray
    ime_true_kg: float
    spec: SyntheticPlumeSpec


def _box_blur(a: np.ndarray, radius: int) -> np.ndarray:
    """Separable local mean over the window clipped to the image.

    With radius >= extent the result is exactly the global mean, so the
    smoothness -> infinity limit gives constant weights.
    """
    if radius <= 0:
        return a

    def along(v, axis):
        n = v.shape[axis]
        cum = np.cumsum(v, axis=axis)
        cum = np.concatenate([np.zeros_like(np.take(cum, [0], axis=axis)), cum], axis=axis)
        idx = np.arange(n)
        lo = np.maximum(idx - radius, 0)
        hi = np.minimum(idx + radius, n - 1)
        sums = np.take(cum, hi + 1, axis=axis) - np.take(cum, lo, axis=axis)
        shape = [1] * v.ndim
        shape[axis] = n
        return sums / (hi - lo + 1).reshape(shape)

    return along(along(a, 0), 1)


def synth_background(
    lines: int,
    samples: int,
    descriptor: SensorDescriptor,
    endmembers: Sequence[np.ndarray],
    mixing_smoothness: int = 16,
    seed: int = 0,
    origin: tuple[float, float] = (0.0, 0.0),
) -> RadianceCube:
    """Per-pixel convex mixture of endmember spectra with smooth random weights."""
    ends = np.atleast_2d(np.asarray(endmembers, dtype=np.float64))
    if ends.shape[1] != descriptor.n_bands:
        raise DataError(
            f"endmembers have {ends.shape[1]} bands, descriptor declares {descriptor.n_bands}"
        )
    n_end = ends.shape[0]
    if n_end == 1:
        data = np.broadcast_to(ends[0][:, None, None], (descriptor.n_bands, lines, samples)).copy()
        return RadianceCube(descriptor=descriptor, data=data, origin=origin)
    rng = np.random.default_rng(seed)
    raw = rng.random((n_end, lines, samples))
    smooth = np.stack([_box_blur(raw[e], mixing_smoothness) for e in range(n_end)])
    weights = smooth / smooth.sum(axis=0)
    data = np.einsum("els,eb->bls", weights, ends)
    return RadianceCube(descriptor=descriptor, data=data, origin=origin)


def plume_truth_map(
    spec: SyntheticPlumeSpec, shape: tuple[int, int], gsd: float
) -> np.ndarray:
    """Evaluate the rotated Gaussian enhancement on the pixel grid (ppm*m)."""
    lines, samples = shape
    ci, cj = spec.center
    dy = (np.arange(lines)[:, None] - ci) * gsd
    dx = (np.arange(samples)[None, :] - cj) * gsd
    cos_t, sin_t = np.cos(spec.orientation_rad), np.sin(spec.orientation_rad)
    u = cos_t * dx + sin_t * dy
    v = -sin_t * dx + cos_t * dy
    return spec.peak_delta_x * np.exp(
        -(u**2) / (2 * spec.sigma_along_m**2) - (v**2) / (2 * spec.sigma_across_m**2)
    )


def inject_plume(
    cube: RadianceCube,
    absorption: BandAbsorption,
    spec: SyntheticPlumeSpec,
    constants: GasConstants = GasConstants(),
) -> tuple[RadianceCube, PlumeTruth]:
    """Attenuate window-band radiance by exp(-k * delta_x_true).

    The truth mask collects pixels at or above ``truth_mask_fraction`` of the
    peak; ime_true integrates the truth map over that mask through the same
    integrator the retrieval chain uses.
    """
    lines, samples = cube.nodata_mask.shape
    ci, cj = spec.center
    if not (0 <= ci < lines and 0 <= cj < samples):
        raise DomainError(f"plume center {spec.center} outside the {lines}x{samples} scene")
    truth = plume_truth_map(spec, (lines, samples), cube.gsd)
    data = cube.data.copy()
    factors = transmittance(absorption.k_band, truth)  # (n_window_bands, lines, samples)
    data[absorption.band_indices] *= factors
    out = RadianceCube(
        descriptor=cube.descriptor, data=data, origin=cube.origin, nodata_mask=cube.nodata_mask
    )
    if spec.peak_delta_x > 0:
        mask = truth >= spec.truth_mask_fraction * spec.peak_delta_x
        truth_field = EnhancementField(
            delta_x=truth,
            gsd=cube.gsd,
            origin=cube.origin,
            nodata_mask=cube.nodata_mask,
            provenance="truth",
        )
        ime_true, _ = integrate_ime(truth_field, mask, constants)
    else:
        mask = np.zeros((lines, samples), dtype=bool)
        ime_true = 0.0
    return out, PlumeTruth(delta_x_true=truth, mask=mask, ime_true_kg=ime_true, spec=spec)


def apply_column_gains(cube: RadianceCube, amplitude: float, seed: int = 0) -> RadianceCube:
    """Pushbroom-style artifact: an independent per-band gain per detector column.

    Each column gets its own fixed spectral gain vector 1 + amplitude *
    uniform(-1, 1), constant along track, emulating column-dependent
    calibration structure that a scene-wide background model cannot whiten
    away.
    """
    if amplitude == 0.0:
        return cube
    bands, _, samples = cube.shape
    rng = np.random.default_rng(seed)
    gains = 1.0 + amplitude * rng.uniform(-1.0, 1.0, size=(bands, samples))
    data = cube.data * gains[:, None, :]
    return RadianceCube(
        descriptor=cube.descriptor, data=data, origin=cube.origin, nodata_mask=cube.nodata_mask
    )


def add_noise(cube: RadianceCube, seed: int = 0) -> RadianceCube:
    """Zero-mean Gaussian noise with variance a * max(L, 0) + c per band/pixel."""
    d = cube.descriptor
    if not d.has_noise_model():
        raise DomainError("descriptor carries no noise coefficients")
    rng = np.random.default_rng(seed)
    variance = (
        d.noise_a[:, None, None] * np.maximum(cube.data, 0.0) + d.noise_c[:, None, None]
    )
    noisy = cube.data + rng.standard_normal(cube.shape) * np.sqrt(variance)
    return RadianceCube(
        descriptor=cube.descriptor, data=noisy, origin=cube.origin, nodata_mask=cube.nodata_mask
    )


# ---------------------------------------------------------------------------
# whole-scene convenience builder


@dataclass(frozen=True)
class SimParams:
    """Complete recipe for one synthetic scene."""

    lines: int = 96
    samples: int = 96
    band_start_nm: float = 2100.0
    band_stop_nm: float = 2450.0
    n_bands: int = 36
    fwhm_nm: float = 12.0
    gsd_m: float = 30.0
    noise_a: Optional[float] = None
    noise_c: Optional[float] = None
    endmember_levels: tuple[float, ...] = (10.0,)
    endmember_tilts: tuple[float, ...] = (0.0,)
    mixing_smoothness_px: int = 16
    column_gain_amplitude: float = 0.0
    plume: Optional[SyntheticPlumeSpec] = None
    seed: int = 0

    def __post_init__(self):
        for key in ("band_start_nm", "band_stop_nm", "fwhm_nm", "gsd_m", "noise_a", "noise_c",
                    "column_gain_amplitude", "endmember_levels", "endmember_tilts"):
            if not all(math.isfinite(v) for v in np.ravel(getattr(self, key)) if v is not None):
                raise ConfigError(f"simulate.{key} must be finite")

    def descriptor(self) -> SensorDescriptor:
        centers = np.linspace(self.band_start_nm, self.band_stop_nm, self.n_bands)
        fwhm = np.full(self.n_bands, self.fwhm_nm)
        a, c = self.noise_a, self.noise_c
        if a is not None or c is not None:
            a = 0.0 if a is None else a
            c = 0.0 if c is None else c
        noise_a = None if a is None else np.full(self.n_bands, a)
        noise_c = None if c is None else np.full(self.n_bands, c)
        return SensorDescriptor(
            sensor_id="synthetic",
            band_centers=centers,
            band_fwhm=fwhm,
            gsd=self.gsd_m,
            noise_a=noise_a,
            noise_c=noise_c,
        )

    def endmember_spectra(self, descriptor: SensorDescriptor) -> np.ndarray:
        """Flat spectra scaled by level, optionally tilted across the window."""
        centers = descriptor.band_centers
        span = centers[-1] - centers[0]
        rel = (centers - centers.mean()) / span if span > 0 else np.zeros_like(centers)
        tilts = self.endmember_tilts
        if len(tilts) != len(self.endmember_levels):
            tilts = tuple(tilts) + (0.0,) * (len(self.endmember_levels) - len(tilts))
        return np.stack(
            [level * (1.0 + tilt * rel) for level, tilt in zip(self.endmember_levels, tilts)]
        )


def simulate_scene(params: SimParams) -> tuple[RadianceCube, Optional[PlumeTruth]]:
    """Background, optional plume, column gains, and noise, all from one seed.

    The plume attenuates only the bands 3*FWHM inside the bundled absorption
    table's range; the others get no methane. A plume with no such band is a
    ``DataError``.
    """
    from .signature import band_absorption, load_bundled_table

    descriptor = params.descriptor()
    cube = synth_background(
        params.lines,
        params.samples,
        descriptor,
        params.endmember_spectra(descriptor),
        mixing_smoothness=params.mixing_smoothness_px,
        seed=params.seed,
    )
    truth = None
    if params.plume is not None and params.plume.peak_delta_x > 0:
        # band_absorption's own test, so float rounding cannot reject a band kept here
        table, margin, c = load_bundled_table(), 3.0 * params.fwhm_nm, descriptor.band_centers
        c = c[(c - margin >= table.wavelengths[0]) & (c + margin <= table.wavelengths[-1])]
        if c.size == 0:
            raise DataError("no band lies 3*FWHM inside the absorption table to carry a plume")
        absorption = band_absorption(table, descriptor, (c[0], c[-1]))
        cube, truth = inject_plume(cube, absorption, params.plume)
    if params.column_gain_amplitude:
        cube = apply_column_gains(cube, params.column_gain_amplitude, seed=params.seed + 1)
    if params.noise_a is not None or params.noise_c is not None:
        cube = add_noise(cube, seed=params.seed + 2)
    return cube, truth
