"""Matched-filter enhancement retrieval with partitioned background statistics.

Three background partitions share one statistical core: scene-wide (cmf),
per-cluster (ctmf, k-means on brightness-normalized spectra), and
per-detector-column (cwcmf, for pushbroom striping). Each segment gets its
own mean, shrinkage-regularized covariance, and target spectrum built from
its own mean, so outputs stay in ppm*m under every partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.linalg

from . import kernels
from .errors import ConfigError, DataError, DomainError, NumericalError
from .scene_io import EnhancementField, RadianceCube
from .segmentation import SegmentationParams, robust_threshold
from .signature import BandAbsorption, target_spectrum

VARIANTS = ("cmf", "ctmf", "cwcmf")


@dataclass(frozen=True)
class MfConfig:
    """One retrieval configuration; multi-configuration runs hold a list."""

    variant: str = "cmf"
    cluster_count: int = 8
    shrinkage: float = 0.05
    contamination_iterations: int = 1
    window: tuple[float, float] = (2100.0, 2450.0)
    seed: int = 0
    delta_min: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "variant", self.variant.lower())
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown matched-filter variant {self.variant!r}")
        if self.cluster_count < 1:
            raise ConfigError("cluster_count must be >= 1")
        if not 0.0 <= self.shrinkage < 1.0:
            raise ConfigError("shrinkage must be in [0, 1)")
        if self.contamination_iterations < 0:
            raise ConfigError("contamination_iterations must be >= 0")
        if not self.window[0] < self.window[1]:
            raise ConfigError("window must be (low, high) with low < high")

    def label(self) -> str:
        parts = [self.variant]
        if self.variant == "ctmf":
            parts.append(f"K={self.cluster_count}")
        parts.append(f"gamma={self.shrinkage:g}")
        parts.append(f"window={self.window[0]:g}-{self.window[1]:g}nm")
        parts.append(f"decon={self.contamination_iterations}")
        parts.append(f"seed={self.seed}")
        return " ".join(parts)


@dataclass
class BackgroundStats:
    """Per-segment background statistics plus the derived filter vectors.

    ``segment_map`` assigns every pixel to the segment used to retrieve it
    (-1 for nodata); ``mu``/``cov`` are indexed by segment. ``estimation_rows``
    holds each segment's flat pixel indices that its statistics are estimated
    from: its own pixels, or a superset when short columns are pooled;
    ``counts`` is how many of them the current statistics used. ``q`` is the
    whitened target cov^-1 t and ``denom`` the filter normalization t'q,
    factored once per segment and reused across all its pixels.
    """

    partition: str
    segment_map: np.ndarray
    band_indices: np.ndarray
    mu: np.ndarray
    cov: np.ndarray
    counts: np.ndarray
    estimation_rows: list[np.ndarray]
    t: np.ndarray
    q: np.ndarray
    denom: np.ndarray
    flags: list[list[str]] = field(default_factory=list)

    @property
    def n_segments(self) -> int:
        return self.mu.shape[0]

    def all_flags(self) -> list[str]:
        out: list[str] = []
        for s, flag_list in enumerate(self.flags):
            out.extend(f"segment {s}: {f}" for f in flag_list)
        return out


def estimate_stats(
    X: np.ndarray, gamma: float = MfConfig.shrinkage, delta_min: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and shrinkage-regularized ML covariance of pixel spectra (rows).

    cov = (1 - gamma) * S + delta * I with S the divisor-N sample covariance
    and delta = max(gamma * trace(S)/p, floor). The default floor
    1e-8 * (trace(S)/p + 1) keeps the matrix SPD across radiance scales,
    including the all-identical-pixels case where S is exactly zero.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DomainError("estimate_stats expects a (pixels, bands) matrix")
    n, p = X.shape
    if n < 2:
        raise DomainError(f"need at least 2 pixels to estimate statistics, got {n}")
    mu = X.mean(axis=0)
    Xc = X - mu
    cov_ml = Xc.T @ Xc / n
    trace_p = float(np.trace(cov_ml)) / p
    floor = 1e-8 * (trace_p + 1.0) if delta_min is None else float(delta_min)
    delta = max(gamma * trace_p, floor)
    cov = (1.0 - gamma) * cov_ml
    cov[np.diag_indices(p)] += delta
    return mu, cov


def _whiten(cov: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, float]:
    """Whitened target q = cov^-1 t and the filter normalization t'q."""
    if not np.any(t != 0.0):
        raise DomainError("degenerate target spectrum")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "covariance not positive definite after regularization (bug signal)"
        ) from exc
    q = scipy.linalg.cho_solve((chol, True), t)
    denom = float(t @ q)
    if denom <= 0.0:
        raise DomainError("degenerate target spectrum")
    return q, denom


def mf_score(x: np.ndarray, mu: np.ndarray, cov: np.ndarray, t: np.ndarray) -> float:
    """Single-spectrum matched-filter score (x-mu)' cov^-1 t / (t' cov^-1 t)."""
    q, denom = _whiten(np.asarray(cov, dtype=np.float64), np.asarray(t, dtype=np.float64))
    return float((np.asarray(x, dtype=np.float64) - mu) @ q / denom)


# ---------------------------------------------------------------------------
# k-means clustering


def kmeans(X: np.ndarray, k: int, seed: int, max_iter: int = 100) -> np.ndarray:
    """Deterministic k-means: seeded k-means++ start, Lloyd to a fixpoint."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = X.shape[0]
    if k < 1:
        raise DomainError("k must be >= 1")
    if n < k:
        raise DomainError(f"cannot form {k} clusters from {n} pixels")
    if k == 1:
        return np.zeros(n, dtype=np.int64)

    rng = np.random.default_rng(seed)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.full(n, np.inf)
    for m in range(1, k):
        kernels.min_sqdist_update(X, centers[m - 1], d2)
        total = float(d2.sum())
        if total <= 0.0:
            raise DomainError(f"fewer than {k} distinct spectra; cannot seed k-means")
        centers[m] = X[rng.choice(n, p=d2 / total)]

    labels = kernels.assign_labels(X, centers)
    for _ in range(max_iter):
        sums, counts = kernels.cluster_sums(X, labels, k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # move each empty center onto the point farthest from its center
            dist = np.einsum("ij,ij->i", X - centers[labels], X - centers[labels])
            for m in empty:
                far = int(np.argmax(dist))
                centers[m] = X[far]
                dist[far] = -1.0
            labels = kernels.assign_labels(X, centers)
            continue
        centers = sums / counts[:, None]
        new_labels = kernels.assign_labels(X, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def normalized_features(X: np.ndarray) -> np.ndarray:
    """Spectra along the last axis scaled to unit mean.

    Clusters then track surface type, not brightness. Spectra whose mean is
    zero are kept as-is.
    """
    means = X.mean(axis=-1, keepdims=True)
    safe = np.where(means != 0.0, means, 1.0)
    return X / safe


def cluster_pixels(
    cube: RadianceCube,
    k: int,
    seed: int,
    window: tuple[float, float] = MfConfig.window,
) -> np.ndarray:
    """K-means label map over valid pixels (-1 at nodata)."""
    from .signature import window_band_indices

    band_idx = window_band_indices(cube.descriptor, window)
    if band_idx.size == 0:
        raise DataError(f"no bands inside window {window}")
    valid = ~cube.nodata_mask
    X = _window_slab(cube, band_idx)[:, valid.ravel()].T
    if X.shape[0] < k:
        raise DomainError(f"cannot form {k} clusters from {X.shape[0]} valid pixels")
    labels = kmeans(normalized_features(X), k, seed)
    label_map = np.full(valid.shape, -1, dtype=np.int64)
    label_map[valid] = labels
    return label_map


# ---------------------------------------------------------------------------
# window slab, partitions and per-segment filters
#
# Every stage reads pixels through the (bands, pixels) slab and addresses
# them by flat pixel index. ``Y[:, rows].T`` is the (pixels, bands) matrix
# the kernels and ``estimate_stats`` take: the gather allocates it
# column-major, so its transpose is C-contiguous without a further copy.


def _window_slab(cube: RadianceCube, band_indices: np.ndarray) -> np.ndarray:
    """Window bands as a (bands, lines*samples) view of the cube, never a copy.

    ``SensorDescriptor`` keeps band centres strictly increasing, so the
    bands of a wavelength window form one contiguous run. Nodata pixels stay
    in the view; they belong to no segment, so nothing reads them.
    """
    if np.any(np.diff(band_indices) != 1):
        raise DataError("window bands must be one contiguous run of increasing indices")
    b0 = int(band_indices[0])
    _, lines, samples = cube.data.shape
    return cube.data[b0 : b0 + band_indices.size].reshape(band_indices.size, lines * samples)


def _segment_rows(seg_flat: np.ndarray, n_seg: int) -> list[np.ndarray]:
    """Ascending flat pixel indices of each segment 0..n_seg-1 (-1 is skipped)."""
    order = np.argsort(seg_flat, kind="stable")
    bounds = np.searchsorted(seg_flat[order], np.arange(n_seg + 1))
    return [order[bounds[s] : bounds[s + 1]] for s in range(n_seg)]


def _build_partition(
    cube: RadianceCube, config: MfConfig, Y: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[list[str]]]:
    """Segment map plus, per segment, the flat pixel indices used to estimate stats.

    Estimation rows can be a superset of the segment's own rows (column
    pooling); the segment map always drives which filter a pixel gets.
    """
    valid = ~cube.nodata_mask
    p = Y.shape[0]

    if config.variant == "cmf":
        seg_map = np.where(valid, 0, -1).astype(np.int64)
        return seg_map, _segment_rows(seg_map.ravel(), 1), [[]]

    if config.variant == "ctmf":
        feats = normalized_features(Y[:, valid.ravel()].T)
        labels = kmeans(feats, config.cluster_count, config.seed)
        flags: list[str] = []
        # merge clusters that cannot support a p-band covariance into the
        # nearest adequately sized cluster (centroid distance)
        while True:
            uniq, counts = np.unique(labels, return_counts=True)
            if uniq.size == 1 or counts.min() >= p + 1:
                break
            centroids = np.stack([feats[labels == u].mean(axis=0) for u in uniq])
            small = uniq[int(np.argmin(counts))]
            src = int(np.flatnonzero(uniq == small)[0])
            d = np.einsum("ij,ij->i", centroids - centroids[src], centroids - centroids[src])
            d[src] = np.inf
            dest = uniq[int(np.argmin(d))]
            labels[labels == small] = dest
            flags.append(f"cluster {small} pooled into {dest} (fewer than {p + 1} pixels)")
        uniq, compact = np.unique(labels, return_inverse=True)
        seg_map = np.full(valid.shape, -1, dtype=np.int64)
        seg_map[valid] = compact
        seg_flags: list[list[str]] = [[] for _ in range(uniq.size)]
        if flags:
            seg_flags[0] = flags
        return seg_map, _segment_rows(seg_map.ravel(), uniq.size), seg_flags

    # cwcmf: one segment per detector sample column, pooled when short
    samples = valid.shape[1]
    seg_map = np.where(valid, np.arange(samples), -1).astype(np.int64)
    col_rows = _segment_rows(seg_map.ravel(), samples)
    groups = []
    seg_flags = []
    for j in range(samples):
        rows = col_rows[j]
        flags_j: list[str] = []
        width = 0
        while rows.size < p + 1:
            width += 1
            lo, hi = max(0, j - width), min(samples - 1, j + width)
            rows = np.concatenate(col_rows[lo : hi + 1])
            if lo == 0 and hi == samples - 1:
                break
        if width:
            rows = np.sort(rows)
            flags_j.append(f"pooled columns within +/-{width} of column {j}")
        groups.append(rows)
        seg_flags.append(flags_j)
    return seg_map, groups, seg_flags


def _segment_filter(
    X_s: np.ndarray, k_band: np.ndarray, band_indices: np.ndarray, config: MfConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """One segment's (mu, cov, t, q, denom) from its (pixels, bands) spectra."""
    mu, cov = estimate_stats(X_s, config.shrinkage, config.delta_min)
    t = target_spectrum(k_band, mu, band_indices).t
    q, denom = _whiten(cov, t)
    return mu, cov, t, q, denom


def _score_segments(
    Y: np.ndarray, groups: list[np.ndarray], stats: BackgroundStats, out: np.ndarray
) -> None:
    """Write each segment's matched-filter scores into ``out`` at its flat indices."""
    for s, rows in enumerate(groups):
        if rows.size:
            out[rows] = kernels.mf_scores(Y[:, rows].T, stats.mu[s], stats.q[s], stats.denom[s])


def compute_stats(
    cube: RadianceCube, absorption: BandAbsorption, config: MfConfig
) -> BackgroundStats:
    """Partition the scene per the variant and estimate per-segment statistics."""
    band_indices = absorption.band_indices
    if band_indices.size < 2:
        raise DataError("matched filter needs at least 2 bands in the window")
    if np.count_nonzero(~cube.nodata_mask) < 2:
        raise DomainError("fewer than 2 valid pixels in the scene")
    Y = _window_slab(cube, band_indices)
    seg_map, groups, seg_flags = _build_partition(cube, config, Y)
    filters = []
    for s, rows in enumerate(groups):
        if rows.size < 2:
            raise DomainError(f"segment {s} has {rows.size} pixels; need at least 2")
        filters.append(_segment_filter(Y[:, rows].T, absorption.k_band, band_indices, config))
    mu, cov, t, q, denom = (np.array(v) for v in zip(*filters))
    name = {"cmf": "scene", "ctmf": f"cluster(K={config.cluster_count})", "cwcmf": "column"}[
        config.variant
    ]
    return BackgroundStats(
        partition=name,
        segment_map=seg_map,
        band_indices=band_indices,
        mu=mu,
        cov=cov,
        counts=np.array([rows.size for rows in groups], dtype=np.int64),
        estimation_rows=groups,
        t=t,
        q=q,
        denom=denom,
        flags=seg_flags,
    )


def apply_mf(
    cube: RadianceCube,
    absorption: BandAbsorption,
    config: MfConfig,
    stats: Optional[BackgroundStats] = None,
) -> EnhancementField:
    """Per-pixel enhancement (x-mu)' cov^-1 t / (t' cov^-1 t) in ppm*m."""
    if stats is None:
        stats = compute_stats(cube, absorption, config)
    seg_flat = stats.segment_map.ravel()
    delta = np.zeros(seg_flat.size)
    _score_segments(
        _window_slab(cube, stats.band_indices),
        _segment_rows(seg_flat, stats.n_segments),
        stats,
        delta,
    )
    flags = stats.all_flags()
    provenance = config.label() + (" | " + "; ".join(flags) if flags else "")
    return EnhancementField(
        delta_x=delta.reshape(stats.segment_map.shape),
        gsd=cube.gsd,
        origin=cube.origin,
        nodata_mask=cube.nodata_mask,
        provenance=provenance,
    )


def decontaminate(
    cube: RadianceCube,
    absorption: BandAbsorption,
    config: MfConfig,
    field: EnhancementField,
    stats: BackgroundStats,
    n_sigma: float = SegmentationParams.n_sigma,
) -> BackgroundStats:
    """Re-estimate statistics excluding pixels above the segmentation threshold.

    Runs ``config.contamination_iterations`` rounds, each over the segment's
    estimation rows; a segment whose exclusion would leave fewer than 2
    pixels keeps its previous statistics and is flagged in the provenance.
    """
    if config.contamination_iterations == 0:
        return stats
    Y = _window_slab(cube, stats.band_indices)
    delta = np.array(field.delta_x, dtype=np.float64).ravel()
    current = stats
    for it in range(config.contamination_iterations):
        if it:
            # re-score so this round thresholds the field of the last round's stats
            groups = _segment_rows(stats.segment_map.ravel(), stats.n_segments)
            _score_segments(Y, groups, current, delta)
        mu = current.mu.copy()
        cov = current.cov.copy()
        t = current.t.copy()
        q = current.q.copy()
        denom = current.denom.copy()
        counts = current.counts.copy()
        flags = [list(f) for f in current.flags]
        for s, rows in enumerate(current.estimation_rows):
            if rows.size == 0:
                continue
            tau = robust_threshold(delta[rows], n_sigma)
            keep = rows[delta[rows] <= tau]
            if keep.size < 2:
                if "decontamination skipped (segment emptied)" not in flags[s]:
                    flags[s].append("decontamination skipped (segment emptied)")
                continue
            mu[s], cov[s], t[s], q[s], denom[s] = _segment_filter(
                Y[:, keep].T, absorption.k_band, current.band_indices, config
            )
            counts[s] = keep.size
        current = replace(
            current, mu=mu, cov=cov, counts=counts, t=t, q=q, denom=denom, flags=flags
        )
    return current


def propagate_noise(
    stats: BackgroundStats, cube: RadianceCube
) -> tuple[np.ndarray, list[str]]:
    """Per-pixel enhancement precision from the instrument noise model.

    With per-band coefficients (a, c): var = t'S^-1 Cn S^-1 t / (t'S^-1 t)^2
    with Cn = diag(a * max(L, 0) + c). Without them, the a-posteriori
    fallback var = 1 / (t'S^-1 t), constant per segment.
    """
    descriptor = cube.descriptor
    Y = _window_slab(cube, stats.band_indices)
    seg_flat = stats.segment_map.ravel()
    groups = _segment_rows(seg_flat, stats.n_segments)
    var = np.zeros(seg_flat.size)
    flags: list[str] = []
    if descriptor.has_noise_model():
        a = np.ascontiguousarray(descriptor.noise_a[stats.band_indices])
        c = np.ascontiguousarray(descriptor.noise_c[stats.band_indices])
        for s, rows in enumerate(groups):
            if rows.size:
                var[rows] = kernels.noise_variance(
                    Y[:, rows].T, a, c, stats.q[s], stats.denom[s]
                )
    else:
        flags.append("noise coefficients unavailable: a-posteriori matched-filter precision used")
        for s, rows in enumerate(groups):
            var[rows] = 1.0 / stats.denom[s]
    if np.any(var < 0):
        raise NumericalError("negative propagated noise variance (bug signal)")
    return np.sqrt(var).reshape(stats.segment_map.shape), flags


def retrieve(
    cube: RadianceCube,
    absorption: BandAbsorption,
    config: MfConfig,
    n_sigma: float = SegmentationParams.n_sigma,
) -> tuple[EnhancementField, BackgroundStats]:
    """Full retrieval: stats, filter, decontamination rounds, noise layer."""
    stats = compute_stats(cube, absorption, config)
    fld = apply_mf(cube, absorption, config, stats)
    if config.contamination_iterations > 0:
        stats = decontaminate(cube, absorption, config, fld, stats, n_sigma)
        fld = apply_mf(cube, absorption, config, stats)
    sigma_noise, flags = propagate_noise(stats, cube)
    provenance = fld.provenance + (" | " + "; ".join(flags) if flags else "")
    return fld.replace(sigma_noise=sigma_noise, provenance=provenance), stats
