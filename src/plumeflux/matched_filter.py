"""Matched-filter enhancement retrieval with partitioned background statistics.

Three background partitions share one statistical core: scene-wide (cmf),
per-cluster (ctmf, k-means on brightness-normalized spectra), and
per-detector-column (cwcmf, for pushbroom striping). Each segment gets its
own mean, shrinkage-regularized covariance, and target spectrum built from
its own mean, so outputs stay in ppm*m under every partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, reduce
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

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
        if self.delta_min is not None and not 0.0 <= self.delta_min < math.inf:
            raise ConfigError("mf.delta_min must be unset, or finite and >= 0")

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
    """Per-segment background statistics, held as moments, plus the filter vectors.

    ``segment_map`` assigns every pixel to the segment used to retrieve it
    (-1 for nodata). ``estimation_rows`` holds each segment's flat pixel
    indices that its statistics are estimated from: its own pixels, or a
    superset when short columns are pooled. ``moments`` are their
    (n, mean, M2), which decontamination downdates, with each M2 packed as
    its lower triangle (``np.tril_indices`` order); ``fit`` are the moments
    behind the current filters, the same arrays as ``moments`` until then.
    ``mu``, ``counts`` and ``cov`` derive from ``fit``, ``cov`` anew on each
    access as full symmetric matrices. ``q`` is the whitened target cov^-1 t
    and ``denom`` the filter normalization t'q, factored once per segment and
    reused across its pixels.
    """

    segment_map: np.ndarray
    band_indices: np.ndarray
    estimation_rows: list[np.ndarray]
    moments: tuple[np.ndarray, np.ndarray, np.ndarray]
    fit: tuple[np.ndarray, np.ndarray, np.ndarray]
    shrinkage: float
    delta_min: Optional[float]
    t: np.ndarray
    q: np.ndarray
    denom: np.ndarray
    flags: list[list[str]] = field(default_factory=list)

    @property
    def mu(self) -> np.ndarray:  # read-only: fit may share its arrays with moments
        return np.lib.stride_tricks.as_strided(self.fit[1], writeable=False)

    @property
    def counts(self) -> np.ndarray:
        return self.fit[0].astype(np.int64)

    @property
    def cov(self) -> np.ndarray:
        return _shrink(self.fit[2] / self.fit[0][:, None], self.shrinkage, self.delta_min)

    @property
    def n_segments(self) -> int:
        return self.fit[0].shape[0]

    def all_flags(self) -> list[str]:
        out: list[str] = []
        for s, flag_list in enumerate(self.flags):
            out.extend(f"segment {s}: {f}" for f in flag_list)
        return out


@cache
def _unpack_index(p: int) -> np.ndarray:
    """Read-only index of each entry of a flat (p, p) symmetric matrix into its packed lower triangle."""
    row, col = np.indices((p, p))
    hi, lo = np.maximum(row, col), np.minimum(row, col)
    index = (hi * (hi + 1) // 2 + lo).ravel()  # np.tril_indices order: row by row
    index.flags.writeable = False
    return index


def _shrink(s: np.ndarray, gamma: float, delta_min: Optional[float], out=None) -> np.ndarray:
    """Shrinkage-regularized covariance of each segment from its packed S = M2 / n, into ``out`` if given.

    cov = (1 - gamma) * S + delta * I with S the divisor-N sample
    covariance, and delta = max(gamma * trace(S)/p, floor). The default floor
    1e-8 * (trace(S)/p + 1) keeps the matrix SPD across radiance scales,
    including the all-identical-pixels case where S is exactly zero.
    """
    k, p = s.shape[0], (math.isqrt(8 * s.shape[-1] + 1) - 1) // 2
    flat = None if out is None else out.reshape(k, p * p)  # mode="clip": take writes there unbuffered
    cov = np.take(s, _unpack_index(p), axis=1, out=flat, mode="clip").reshape(k, p, p)
    trace_p = np.trace(cov, axis1=1, axis2=2) / cov.shape[-1]
    floor = 1e-8 * (trace_p + 1.0) if delta_min is None else float(delta_min)
    cov *= 1.0 - gamma
    np.einsum("kii->ki", cov)[...] += np.maximum(gamma * trace_p, floor)[:, None]  # diagonals
    return cov


def _whiten(cov: np.ndarray, t: np.ndarray, chol=None) -> tuple[np.ndarray, np.ndarray]:
    """q = cov^-1 t and t'q of each segment in a stack: batched Cholesky (into ``chol``), then potrs."""
    import scipy.linalg  # here, so runs without a retrieval never load it

    if not np.all(np.any(t != 0.0, axis=-1)):
        raise DomainError("degenerate target spectrum")
    try:  # np.linalg.cholesky's kernel, same bytes; it flags a matrix that is not SPD as invalid
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            chol = _umath_linalg.cholesky_lo(cov, out=chol, signature="d->d")
    except FloatingPointError as exc:
        raise NumericalError(
            "covariance not positive definite after regularization (bug signal)"
        ) from exc
    q, denom = np.empty_like(t), np.empty(t.shape[0])
    for s, (c, ts) in enumerate(zip(chol, t)):
        q[s], info = scipy.linalg.lapack.dpotrs(c, ts, lower=1)  # as scipy.linalg.cho_solve
        if info != 0:
            raise NumericalError(f"LAPACK potrs failed with info={info} (bug signal)")
        denom[s] = ts @ q[s]
    if np.any(denom <= 0.0):
        raise DomainError("degenerate target spectrum")
    return q, denom


# ---------------------------------------------------------------------------
# k-means clustering


@kernels.one_blas_thread()
def kmeans(X: np.ndarray, k: int, seed: int, max_iter: int = 100) -> tuple[np.ndarray, int, bool]:
    """Deterministic k-means: seeded k-means++ start, Lloyd steps to a fixpoint.

    Returns the labels, the number of Lloyd steps taken (at most ``max_iter``)
    and whether the last one reached a fixpoint. Each step's labels equal a
    full ``kernels.assign_labels`` pass; ``_BoundedLabels`` only skips the
    rows whose label provably stays. The cluster sums and counts carry over
    from step to step: the first step, and the first after an empty-cluster
    reseed, sum every row, and every other step adds and removes only the
    rows whose label changed. So each step makes one ``kernels.cluster_sums``
    call, and its centers differ from fresh row-order sums by rounding only.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = X.shape[0]
    if k < 1:
        raise DomainError("k must be >= 1")
    if n < k:
        raise DomainError(f"cannot form {k} clusters from {n} pixels")
    if k == 1:
        return np.zeros(n, dtype=np.int64), 0, True

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

    lloyd = _BoundedLabels(X)
    labels = lloyd.full(centers)
    fresh = True  # sum every row: the first step, and the first after a reseed
    for step in range(1, max_iter + 1):
        if fresh:
            sums, counts = kernels.cluster_sums(X, labels, k)
        else:
            # the rows that changed cluster, each twice: under its new label,
            # to add, and under k + its old label, to subtract
            moved = lloyd.changed
            delta, shift = kernels.cluster_sums(X, np.concatenate([labels[moved], k + lloyd.was]),
                                                2 * k, rows=np.concatenate([moved, moved]))
            sums += delta[:k] - delta[k:]
            counts += shift[:k] - shift[k:]
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # move each empty center onto the point farthest from its center
            dist = kernels.min_sqdist_update(X, centers, np.full(n, np.inf), labels)
            for m in empty:
                far = int(np.argmax(dist))
                centers[m] = X[far]
                dist[far] = -1.0
            labels, fresh = lloyd.full(centers), True
            continue
        old, centers = centers, sums / counts[:, None]
        lloyd.moved(labels, old, centers)
        if lloyd.changed.size == 0:
            return labels, step, True
        fresh = False
    return labels, max_iter, False


_MARGIN = 1e-11  # least relative squared-distance margin of the k-means bounds


class _BoundedLabels:
    """Lloyd label steps that recompute only the rows Hamerly's bounds cannot settle.

    Hamerly (2010), "Making k-means even faster". Each row keeps
    ``upper`` >= sqrt(d_a^2 + pad), with d_a its distance to its own center a,
    and ``lower`` <= its distance to every other center. A row with
    upper <= max(lower, s(a)/2), where s(a) is the distance from a to the
    nearest other center, has d_j^2 - d_a^2 >= pad for every other center j.

    ``pad`` is a squared-distance margin, ``rel * (|x|^2 + c2)`` with c2 the
    largest squared center norm at the last full pass. A computed squared
    distance is off by at most about 2 (p + 3) u (|x|^2 + |c|^2), u the unit
    roundoff, in any summation order. While no squared center norm exceeds
    4 c2, ``rel`` keeps pad at least 16 times that, so a skipped row gets the
    same label from the full pass, and a recomputed row whose top-two gap
    exceeds pad gets it from any subset of rows. ``grow`` rounds every bound
    update outward.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self.x2 = np.einsum("ij,ij->i", X, X)
        eps = np.finfo(np.float64).eps
        self.rel = max(_MARGIN, 64 * (X.shape[1] + 3) * eps)
        self.grow = 1.0 + 4 * (X.shape[1] + 4) * eps
        self.scratch, self.flag = np.empty(X.shape[0]), np.empty(X.shape[0], dtype=bool)

    @staticmethod
    def _bounds(d1: np.ndarray, d2: np.ndarray, pad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds from computed squared distances to the nearest and second-nearest center."""
        return np.sqrt(d1 + pad), np.sqrt(np.maximum(d2 - pad, 0.0))

    def full(self, centers: np.ndarray) -> np.ndarray:
        """Labels of every row from one full pass; resets every bound."""
        labels, d1, d2 = kernels.assign_labels(self.X, centers)
        self.c2 = float(np.einsum("kj,kj->k", centers, centers).max())
        self.pad = self.rel * (self.x2 + self.c2)
        self.upper, self.lower = self._bounds(d1, d2, self.pad)
        return labels

    def moved(self, labels: np.ndarray, old: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Labels after the centers moved from ``old``, equal to ``full(centers)``'s.

        Writes them into ``labels`` and returns it. ``changed`` then holds
        the rows whose label changed, ascending, and ``was`` their labels
        before.
        """
        if np.einsum("kj,kj->k", centers, centers).max() > 4.0 * self.c2:
            return self._settle(labels, np.arange(labels.size), self.full(centers))
        grow = self.grow
        diff = centers - old
        move = np.sqrt(np.einsum("kj,kj->k", diff, diff)) * grow
        first, second = np.argsort(move)[:-3:-1]
        gaps = centers[:, None, :] - centers[None, :, :]
        gaps = np.sqrt(np.einsum("ijk,ijk->ij", gaps, gaps))
        np.fill_diagonal(gaps, np.inf)
        half = gaps.min(axis=1) / (2.0 * grow)

        def bound(starts):
            # widen the bounds by the moves and flag the rows they cannot settle
            for lo in starts:
                at = slice(lo, lo + kernels._PIXEL_CHUNK)
                own, t, flag = labels[at], self.scratch[at], self.flag[at]
                up, low = self.upper[at], self.lower[at]
                up += np.take(move, own, out=t, mode="clip")
                up *= grow
                t[:] = move[first]
                np.copyto(t, move[second], where=np.equal(own, first, out=flag))
                low -= t
                low /= grow
                np.greater(up, np.maximum(low, np.take(half, own, out=t, mode="clip"), out=t), out=flag)

        kernels.in_parallel(bound, kernels.chunk_runs(labels.size, kernels._PIXEL_CHUNK))
        rows = np.flatnonzero(self.flag)
        if rows.size == 0:
            return self._settle(labels, rows, labels[rows])
        new, d1, d2 = kernels.assign_labels(self.X, centers, rows)
        # a subset of rows can round differently from the full pass, which
        # matters only inside the margin: such rows take the values of a
        # re-run of their whole chunk of the full pass
        near = np.flatnonzero(d2 - d1 <= self.pad[rows])
        step = kernels.label_step(*centers.shape)
        chunk_of = rows[near] // step
        for c in np.unique(chunk_of):
            sel = near[chunk_of == c]
            at = rows[sel] - c * step
            chunk = kernels.assign_labels(self.X[c * step : (c + 1) * step], centers)
            new[sel], d1[sel], d2[sel] = (v[at] for v in chunk)
        self.upper[rows], self.lower[rows] = self._bounds(d1, d2, self.pad[rows])
        return self._settle(labels, rows, new)

    def _settle(self, labels: np.ndarray, rows: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Write ``new``, the labels of ``rows``, into ``labels``, noting the rows that changed."""
        switch = new != labels[rows]
        self.changed = rows[switch]
        self.was = labels[self.changed]
        labels[self.changed] = new[switch]
        return labels


def normalized_features(X: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Spectra along the last axis scaled to unit mean, into ``out`` if given (may be ``X``).

    Clusters then track surface type, not brightness. Spectra whose mean is
    zero are kept as-is.
    """
    means = X.mean(axis=-1, keepdims=True)
    safe = np.where(means != 0.0, means, 1.0)
    return np.divide(X, safe, out=out)


def unit_mean_rows(rows: np.ndarray, means: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """``normalized_features(rows, out=rows)``, with ``means`` and ``zero`` (one per row) as scratch."""
    rows.mean(axis=-1, out=means)
    np.copyto(means, 1.0, where=np.equal(means, 0.0, out=zero))
    return np.divide(rows, means[:, None], out=rows)


_FEATURE_CHUNK = 2048  # pixels per chunk of the ctmf feature build; keeps a chunk in cache


def _cluster_features(Y: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """``normalized_features(Y[:, pixels].astype(np.float64).T)``, filled in pixel runs.

    Each chunk is gathered band-major, then written pixel-major into the
    output and scaled there, so each mean sums a contiguous row of bands, as
    that expression's does: the bytes are the same.
    """
    p, n = Y.shape[0], pixels.size
    feats = np.empty((n, p))
    step = _FEATURE_CHUNK

    def fill(part):
        starts, raw, means, zero = part
        for lo in starts:
            at = pixels[lo : lo + step]
            rows = feats[lo : lo + at.size]
            # a flat buffer, so the (p, m) view stays C-contiguous and take writes in place
            np.copyto(rows, np.take(Y, at, axis=1, out=raw[: p * at.size].reshape(p, -1), mode="clip").T)
            unit_mean_rows(rows, means[: at.size], zero[: at.size])

    size = min(step, n)
    kernels.in_parallel(fill, [(starts, np.empty(p * size, Y.dtype), np.empty(size),
                                np.empty(size, dtype=bool)) for starts in kernels.chunk_runs(n, step)])
    return feats


# ---------------------------------------------------------------------------
# window slab, partitions and the per-segment moments engine
#
# Every stage reads the (bands, pixels) slab; the segment map gives each pixel
# its segment (-1 for nodata). A segment's statistics come from its moments
# (n, mean, M2 = sum (x - mean)(x - mean)'), arrays with a leading segment axis;
# M2 is symmetric, so only its lower triangle is kept, p(p+1)/2 values.

_CHUNK_BYTES = 16 * 2**20  # window spectra per chunk of the moments pass
_MERGE_GROUP = 32  # segments per merge in the moments pass


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


def _merge(a: tuple, b: tuple, sign: float = 1.0) -> tuple:
    """Merge moments b into a in place (Chan, Golub & LeVeque 1983); sign=-1 removes them."""
    (na, ma, m2a), (nb, mb, m2b) = a, b
    nb = sign * nb
    d = mb - ma
    coef = na * nb
    na += nb
    n = np.maximum(na, 1.0)  # 0 only where both are empty
    ma += d * (nb / n)[:, None]
    (np.add if sign > 0 else np.subtract)(m2a, m2b, out=m2a)
    rows, cols = np.tril_indices(d.shape[1])
    for g in range(0, d.shape[0], _MERGE_GROUP):  # bounds the outer-product temporary
        w = d[g : g + _MERGE_GROUP] * (coef / n)[g : g + _MERGE_GROUP, None]
        m2a[g : g + _MERGE_GROUP] += w[:, rows] * d[g : g + _MERGE_GROUP, cols]
    return a


@kernels.one_blas_thread()
def _segment_moments(Y: np.ndarray, seg: np.ndarray, n_seg: int, total=None, sign=1.0, order=None):
    """Moments of each segment 0..n_seg-1 over the pixels (columns) of ``Y``; -1 is skipped.

    Chunks of about _CHUNK_BYTES follow ``order``, the stable argsort of ``seg``
    (made here when not given), so a segment is one block of each chunk it
    spans. A chunk is gathered in the slab's dtype into one buffer, its bands
    split across the workers; its blocks then go to the workers in runs of
    about equal pixel count, and each block is widened on its own, in its
    run's buffer, and centred on its own mean. The calling thread merges the
    blocks into the totals in order, a group of segments at a time. Given
    ``total``, the blocks merge into it in place; sign=-1 downdates it.
    """
    p = Y.shape[0]
    rows, cols = np.tril_indices(p)
    tril = rows * p + cols  # the lower triangle's positions in a flat (p, p) matrix
    if total is None:
        total = (np.zeros(n_seg), np.zeros((n_seg, p)), np.zeros((n_seg, rows.size)))
    if order is None:
        order = np.argsort(seg, kind="stable")
    # segment s is order[bounds[s] : bounds[s + 1]]; nodata (-1) sorts first
    bounds = np.cumsum(np.bincount(seg + 1, minlength=n_seg + 1))
    n_valid = bounds[-1] - bounds[0]
    # equal chunks, each at most about _CHUNK_BYTES
    n_chunks = max(1, -(-n_valid * p * 8 // _CHUNK_BYTES))
    step = max(1, -(-n_valid // n_chunks))
    gathered = np.empty(p * min(step, n_valid), dtype=Y.dtype)
    band_runs = kernels.runs(np.ones(p))
    for lo in range(bounds[0], bounds[-1], step):
        hi = min(lo + step, bounds[-1])
        block = gathered[: p * (hi - lo)].reshape(p, hi - lo)  # C-ordered, so each band run is too
        kernels.in_parallel(
            lambda b: np.take(Y[b], order[lo:hi], axis=1, out=block[b], mode="clip"), band_runs
        )
        edge = np.clip(bounds, lo, hi) - lo  # segment s's block is edge[s] : edge[s + 1]
        ids = np.flatnonzero(np.diff(edge))
        first, counts = edge[ids], edge[ids + 1] - edge[ids]
        # a segment is one block of the chunk, so one merge takes a group of
        # segments; groups keep the stacked moments in cache
        for g in range(0, ids.size, _MERGE_GROUP):
            group = slice(g, g + _MERGE_GROUP)
            n = counts[group].astype(np.float64)
            means, m2 = np.empty((n.size, p)), np.empty((n.size, rows.size))

            def block_moments(run, wide, square):
                for j, b, c in zip(range(run.start, run.stop), first[group][run].tolist(),
                                   counts[group][run].tolist()):
                    B = wide[: p * c].reshape(p, c)
                    np.copyto(B, block[:, b : b + c])  # widened to float64
                    means[j] = np.add.reduce(B, axis=1) / c
                    B -= means[j][:, None]
                    np.take(np.matmul(B, B.T, out=square), tril, out=m2[j], mode="clip")

            kernels.in_parallel(
                lambda args: block_moments(*args),
                [(r, np.empty(p * int(n[r].max())), np.empty((p, p))) for r in kernels.runs(n)],
            )
            merged = _merge(tuple(x[ids[group]] for x in total), (n, means, m2), sign)
            for x, v in zip(total, merged):
                x[ids[group]] = v
    return total


def _filters(moments: tuple, absorption: BandAbsorption, config: MfConfig, segments=None) -> tuple:
    """The (t, q, denom) of every segment, or of ``segments`` in their order, from the moments.

    Runs of merge groups go to the workers, each with a stack and a factor
    buffer made here: one group is gathered at a time, never the whole stack.
    """
    n, mu, m2 = moments
    t = target_spectrum(absorption.k_band, mu if segments is None else mu[segments])
    segments = np.arange(n.size) if segments is None else segments
    q, denom = np.empty_like(t), np.empty(segments.size)

    def whiten(starts, cov, chol):
        for lo in starts:
            at = segments[lo : lo + _MERGE_GROUP]
            k = at.size
            # S = M2 / n, packed in the factor's buffer, which the factor overwrites after
            s = np.take(m2, at, axis=0, out=chol.ravel()[: k * m2.shape[1]].reshape(k, -1), mode="clip")
            s /= n[at][:, None]
            shrunk = _shrink(s, config.shrinkage, config.delta_min, out=cov[:k])
            q[lo : lo + k], denom[lo : lo + k] = _whiten(shrunk, t[lo : lo + k], chol[:k])

    size, p = min(_MERGE_GROUP, segments.size), t.shape[1]
    kernels.in_parallel(lambda args: whiten(*args), [
        (starts, np.empty((size, p, p)), np.empty((size, p, p)))
        for starts in kernels.chunk_runs(segments.size, _MERGE_GROUP)])
    return t, q, denom


def _build_partition(
    cube: RadianceCube, config: MfConfig, Y: np.ndarray
) -> tuple[np.ndarray, list[range], list[list[str]]]:
    """Segment map plus, per segment, the segments whose pixels estimate its stats.

    A segment is estimated from itself, or from a run of neighbouring
    columns when a short column is pooled; the segment map always drives
    which filter a pixel gets.
    """
    valid = ~cube.nodata_mask
    p = Y.shape[0]

    if config.variant == "cmf":
        return np.where(valid, 0, -1).astype(np.int64), [range(1)], [[]]

    if config.variant == "ctmf":
        # the (pixels, bands) float64 features would stack on the heap that
        # a previous retrieval freed and glibc kept; only here, because a
        # trim before every retrieval made cwcmf runs about 3 % slower
        kernels.trim_heap()
        feats = _cluster_features(Y, np.flatnonzero(valid))
        labels, _, converged = kmeans(feats, config.cluster_count, config.seed)
        flags = [] if converged else ["k-means stopped at its max_iter cap before a fixpoint"]
        # merge clusters that cannot support a p-band covariance into the
        # nearest adequately sized cluster (centroid distance)
        while True:
            uniq, counts = np.unique(labels, return_counts=True)
            if uniq.size == 1 or counts.min() >= p + 1:
                break
            centroids = kernels.cluster_sums(feats, labels, config.cluster_count)[0][uniq] / counts[:, None]
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
        seg_flags = [flags] + [[] for _ in range(uniq.size - 1)]
        return seg_map, [range(s, s + 1) for s in range(uniq.size)], seg_flags

    # cwcmf: one segment per detector sample column, pooled when short
    samples = valid.shape[1]
    seg_map = np.where(valid, np.arange(samples), -1).astype(np.int64)
    col_counts = np.count_nonzero(valid, axis=0)
    members = []
    seg_flags = []
    for j in range(samples):
        lo, hi, width = j, j, 0
        while col_counts[lo : hi + 1].sum() < p + 1:
            width += 1
            lo, hi = max(0, j - width), min(samples - 1, j + width)
            if lo == 0 and hi == samples - 1:
                break
        members.append(range(lo, hi + 1))
        seg_flags.append([f"pooled columns within +/-{width} of column {j}"] if width else [])
    return seg_map, members, seg_flags


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
    seg_map, members, seg_flags = _build_partition(cube, config, Y)
    seg_flat = seg_map.ravel()
    # ascending flat pixel indices of each segment (nodata sorts first and is dropped)
    order = np.argsort(seg_flat, kind="stable")
    rows = np.split(order, np.searchsorted(seg_flat[order], np.arange(len(members) + 1)))[1:-1]
    moments = _segment_moments(Y, seg_flat, len(members), order=order)
    # a pooled segment merges its members' moments; it never gathers the pool again
    pooled = [(s, reduce(_merge, [tuple(x[i : i + 1].copy() for x in moments) for i in m]))
              for s, m in enumerate(members) if len(m) > 1]
    for s, merged in pooled:
        for x, v in zip(moments, merged):
            x[s] = v[0]
    for s, n in enumerate(moments[0]):
        if n < 2:
            raise DomainError(f"segment {s} has {int(n)} pixels; need at least 2")
    t, q, denom = _filters(moments, absorption, config)
    return BackgroundStats(
        segment_map=seg_map,
        band_indices=band_indices,
        # a segment's own rows are ascending already; a pool's are its members' merged
        estimation_rows=[rows[m[0]] if len(m) == 1 else np.sort(np.concatenate([rows[i] for i in m]))
                         for m in members],
        moments=moments,
        fit=moments,
        shrinkage=config.shrinkage, delta_min=config.delta_min,
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
    Y = _window_slab(cube, stats.band_indices)
    delta = kernels.mf_scores(Y, stats.segment_map, stats.mu, stats.q, stats.denom)
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
    stats: BackgroundStats,
    n_sigma: float = SegmentationParams.n_sigma,
) -> BackgroundStats:
    """Re-estimate statistics excluding pixels above the segmentation threshold.

    Runs ``config.contamination_iterations`` rounds. Each scores the scene
    with the previous round's filters (``stats``' own in the first) and
    thresholds those scores over each segment's estimation rows, starting
    again from their full moments; a segment whose exclusion would leave
    fewer than 2 pixels keeps its previous statistics and is flagged in the
    provenance. ``stats`` is left unchanged, and returned at 0 rounds.

    A round refits only the segments that lost a row in it: one that lost
    none has its full moments, so it takes the filter of ``stats`` when that
    is their fit (``stats.fit is stats.moments``, as from ``compute_stats``);
    otherwise every segment that is not skipped is refit.
    """
    Y = _window_slab(cube, stats.band_indices)
    skip_flag = "decontamination skipped (segment emptied)"
    current = stats
    for _ in range(config.contamination_iterations):
        delta = kernels.mf_scores(Y, stats.segment_map, current.mu, current.q, current.denom)
        kept = [(d := delta[r]) <= robust_threshold(d, n_sigma) for r in stats.estimation_rows]
        del delta  # freed before the round's filters
        n_kept = np.array([np.count_nonzero(k) for k in kept])
        skipped = n_kept < 2
        # downdate one copy of the full moments in place by the excluded rows;
        # tau is at least the median, so they are at most half of a segment's rows
        refit = np.flatnonzero(~skipped)
        excluded = [stats.estimation_rows[s][~kept[s]] for s in refit]
        lost = np.array([r.size for r in excluded], dtype=np.int64)
        labels = np.repeat(refit, lost)
        rows = np.concatenate([np.zeros(0, dtype=np.int64), *excluded])
        moments = tuple(x.copy() for x in stats.moments)
        _segment_moments(Y[:, rows], labels, len(kept), total=moments, sign=-1.0)
        filters = tuple(x.copy() for x in (stats.t, stats.q, stats.denom))
        for x, held in zip(moments + filters, current.fit + (current.t, current.q, current.denom)):
            x[skipped] = held[skipped]
        if stats.fit is stats.moments:  # the others keep their full moments, and stats' filter
            refit = refit[lost > 0]
        for x, v in zip(filters, _filters(moments, absorption, config, refit)):
            x[refit] = v
        flags = [f + [skip_flag] if sk and skip_flag not in f else list(f)
                 for sk, f in zip(skipped, current.flags)]
        current = replace(current, fit=moments, t=filters[0], q=filters[1], denom=filters[2], flags=flags)
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
    seg_flat = stats.segment_map.ravel()
    flags: list[str] = []
    if descriptor.has_noise_model():
        a, c = descriptor.noise_a[stats.band_indices], descriptor.noise_c[stats.band_indices]
        Y = _window_slab(cube, stats.band_indices)
        var = kernels.noise_variance(Y, stats.segment_map, a, c, stats.q, stats.denom)
    else:
        flags.append("noise coefficients unavailable: a-posteriori matched-filter precision used")
        var = np.where(seg_flat >= 0, 1.0 / stats.denom[seg_flat], 0.0)
    if np.any(var < 0):
        raise NumericalError("negative propagated noise variance (bug signal)")
    return np.sqrt(var).reshape(stats.segment_map.shape), flags


def retrieve(
    cube: RadianceCube,
    absorption: BandAbsorption,
    config: MfConfig,
    n_sigma: float = SegmentationParams.n_sigma,
) -> tuple[EnhancementField, BackgroundStats]:
    """Full retrieval: stats, decontamination rounds, filter, noise layer."""
    stats = compute_stats(cube, absorption, config)
    stats = decontaminate(cube, absorption, config, stats, n_sigma)
    fld = apply_mf(cube, absorption, config, stats)
    sigma_noise, flags = propagate_noise(stats, cube)
    provenance = fld.provenance + (" | " + "; ".join(flags) if flags else "")
    return fld.replace(sigma_noise=sigma_noise, provenance=provenance), stats
