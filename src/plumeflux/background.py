"""Spectrally matched background selection and clutter estimation.

Scene-driven clutter is the residual enhancement variability over plume-free
pixels whose continuum spectra look like the surface under the plume; it is
estimated robustly and combined with propagated instrument noise into the
total per-pixel uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError
from .matched_filter import normalized_features, unit_mean_rows
from .scene_io import EnhancementField, RadianceCube
from .segmentation import _disk_op, radius_to_pixels, robust_sigma
from .signature import BandAbsorption

DEFAULT_MIN_SAMPLE = 100
DEFAULT_BUFFER_M = 90.0


@dataclass(frozen=True)
class BackgroundSelection:
    """Plume-free pixels spectrally matched to the plume footprint."""

    pixel_indices: np.ndarray  # (n, 2) of (line, sample)
    similarity_scores: np.ndarray  # spectral angle, radians
    insufficient: bool

    @property
    def count(self) -> int:
        return int(self.pixel_indices.shape[0])

    def values_from(self, field: EnhancementField) -> np.ndarray:
        return field.delta_x[self.pixel_indices[:, 0], self.pixel_indices[:, 1]]


def continuum_bands(absorption: BandAbsorption) -> np.ndarray:
    """Window bands weakly affected by the gas: k <= 10% of the window maximum.

    Falls back to all window bands if none qualifies (flat absorption).
    """
    k = absorption.k_band
    keep = k <= 0.1 * float(np.max(k))
    if not np.any(keep):
        return absorption.band_indices.copy()
    return absorption.band_indices[keep]


def spectral_angle(spectra: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Angle between each row and the reference; zero-norm rows score pi.

    Uses the chord half-angle form 2*arcsin(|u - v|/2), which is exactly 0
    for identical spectra and stays well-conditioned at small angles where
    arccos loses precision. Norms take ``np.linalg.norm``'s arithmetic.
    """
    spectra = np.asarray(spectra, dtype=np.result_type(spectra, 1.0))
    out, norms = np.empty(spectra.shape[0]), np.empty(spectra.shape[0], dtype=spectra.dtype)
    return _angles(spectra, reference, out, np.empty_like(spectra), norms, np.empty(out.size, dtype=bool))


def _angles(spectra, reference, out, sq, norms, ok):
    """``spectral_angle`` into ``out``; ``sq`` (the spectra's shape and dtype), ``norms`` and ``ok`` are scratch.

    ``norms`` may share ``out``'s memory for float64 spectra. Allocates
    nothing of the spectra's size unless a row has zero norm.
    """
    ref_norm = float(np.linalg.norm(reference))
    np.sqrt(np.add.reduce(np.multiply(spectra, spectra, out=sq), axis=-1, out=norms), out=norms)
    np.greater(norms, 0, out=ok)
    ok &= ref_norm > 0
    if not ok.any():
        out.fill(np.pi)
        return out
    if ok.all():
        unit, chord = np.divide(spectra, norms[:, None], out=sq), norms
    else:
        unit = spectra[ok] / norms[ok, None]
        chord = np.empty(unit.shape[0], dtype=unit.dtype)
    unit -= reference / ref_norm
    np.sqrt(np.add.reduce(np.multiply(unit, unit, out=unit), axis=-1, out=chord), out=chord)
    np.divide(chord, 2.0, out=chord)
    np.multiply(2.0, np.arcsin(np.clip(chord, 0.0, 1.0, out=chord), out=chord), out=chord)
    if ok.all():  # chord is norms, which may share out's memory: copyto allows that
        np.copyto(out, chord)
    else:
        out.fill(np.pi)
        out[ok] = chord
    return out


def match_background(
    cube: RadianceCube,
    absorption: BandAbsorption,
    plume_mask: np.ndarray,
    n_select: int | None = None,
    buffer_m: float = DEFAULT_BUFFER_M,
    min_sample: int = DEFAULT_MIN_SAMPLE,
) -> BackgroundSelection:
    """Pick the plume-free pixels most similar to the plume-footprint continuum.

    Candidates outside the plume mask dilated by buffer_m are scored by
    spectral angle between unit-mean continuum spectra and the unit-mean mean
    continuum spectrum under the plume; the lowest angles win, ties broken by
    (line, sample) order.
    """
    plume_mask = np.asarray(plume_mask, dtype=bool)
    if not np.any(plume_mask):
        raise DomainError("plume mask is empty")
    if n_select is None:
        n_select = max(500, 5 * int(plume_mask.sum()))
    if n_select < 1:
        raise DomainError(f"n_select must be >= 1, got {n_select}")

    bands = continuum_bands(absorption)
    planes = cube.data.reshape(cube.data.shape[0], -1)  # (bands, pixels) view
    valid = ~cube.nodata_mask

    excluded = _disk_op(plume_mask, radius_to_pixels(buffer_m, cube.gsd), dilate=True)
    candidates = valid & ~excluded
    if not np.any(candidates):
        raise DomainError("no candidate background pixels outside the plume buffer")

    # each gather is C-order (pixels, bands) and widened to float64 before any
    # arithmetic; a row's angle does not depend on the chunk it is scored in
    reference = planes.T[np.ix_((plume_mask & valid).ravel(), bands)].astype(np.float64)
    reference = normalized_features(reference.mean(axis=0))
    cand = np.flatnonzero(candidates)
    angles = np.empty(cand.size)

    def score(lo, hi, gather, rows, sq, means, flags):
        chunk, planar = cand[lo:hi], gather.reshape(bands.size, -1)
        for i, b in enumerate(bands):  # each take reads one contiguous band plane
            np.take(planes[b], chunk, out=planar[i], mode="clip")
        rows[...] = planar.T
        unit_mean_rows(rows, means, flags)
        out = angles[lo:hi]  # float64 rows, so the norms go into out
        _angles(rows, reference, out, sq, out, flags)

    kernels.in_chunks(score, cand.size, kernels._PIXEL_CHUNK, lambda size: [
        np.empty((size, bands.size), dtype=planes.dtype), np.empty((size, bands.size)),
        np.empty((size, bands.size)), np.empty(size), np.empty(size, dtype=bool)])

    # the n_select lowest angles, ties in flat index, so (line, sample), order:
    # sort only the angles up to the k-th lowest (NaN sorts last in both)
    k = min(n_select, cand.size) - 1
    take = np.flatnonzero(~(angles > np.partition(angles, k)[k]))
    take = take[np.lexsort((take, angles[take]))][:n_select]
    return BackgroundSelection(
        pixel_indices=np.column_stack(np.divmod(cand[take], plume_mask.shape[1])),
        similarity_scores=angles[take],
        insufficient=bool(take.size < n_select or take.size < min_sample),
    )


def clutter_sigma(field: EnhancementField, selection: BackgroundSelection) -> float:
    """Robust spread (1.4826 * MAD, std fallback) of background enhancements."""
    if selection.count == 0:
        raise DomainError("background selection is empty")
    return robust_sigma(selection.values_from(field))


def total_sigma(sigma_noise: np.ndarray, sigma_clutter: float) -> np.ndarray:
    """Per-pixel sigma_total = sqrt(sigma_noise^2 + sigma_clutter^2), clutter a scene scalar."""
    return np.sqrt(sigma_noise**2 + float(sigma_clutter) ** 2)
