"""Hot per-pixel kernels, written in numpy.

The matched filter, its noise propagation, and the k-means steps are the
only loops that touch every pixel of a scene, so they are the only code
here. The matched-filter kernels sweep the (bands, pixels) window slab band
by band with per-segment tables indexed by each pixel's segment (-1: nodata,
which scores 0); the k-means kernels take float64 (pixels, bands) arrays.
"""

from __future__ import annotations

import numpy as np


def _padded(table, fill=0.0):
    """Per-segment table with an entry for segment -1 appended."""
    return np.concatenate([table, np.full((1,) + table.shape[1:], fill)])


def mf_scores(Y, seg, mu, q, denom):
    """Score sum_b (y_b - mu[s, b]) q[s, b] / denom[s] of each pixel y of segment s.

    The score stays centred, so it keeps its precision when |y| >> |y - mu|.
    """
    mu, q = _padded(mu), _padded(q)
    out, term, weight = np.zeros(Y.shape[1]), np.empty(Y.shape[1]), np.empty(Y.shape[1])
    for b, y in enumerate(Y):
        np.subtract(y, np.take(mu[:, b], seg, out=term, mode="wrap"), out=term)
        out += np.multiply(term, np.take(q[:, b], seg, out=weight, mode="wrap"), out=term)
    out /= _padded(denom, 1.0)[seg]
    out[seg < 0] = 0.0
    return out


def noise_variance(Y, seg, a, c, q, denom):
    """Per-pixel variance q' diag(a*max(y,0)+c) q / denom**2, with q and denom of its segment."""
    aq2 = _padded(a * q * q)
    out, term, weight = np.zeros(Y.shape[1]), np.empty(Y.shape[1]), np.empty(Y.shape[1])
    for b, y in enumerate(Y):
        out += np.multiply(
            np.maximum(y, 0.0, out=term), np.take(aq2[:, b], seg, out=weight, mode="wrap"), out=term
        )
    out += _padded(q * q @ c)[seg]
    out /= _padded(denom * denom, 1.0)[seg]
    out[seg < 0] = 0.0
    return out


def assign_labels(X, centers):
    """Index of the nearest center (squared Euclidean) for each row of X."""
    n = X.shape[0]
    labels = np.empty(n, dtype=np.int64)
    # chunked to bound the (chunk, k) distance matrix
    step = max(1, 4_000_000 // max(1, centers.shape[0] * X.shape[1]))
    c2 = np.einsum("kj,kj->k", centers, centers)
    for start in range(0, n, step):
        block = X[start : start + step]
        d = block @ centers.T
        d *= -2.0
        d += c2
        d += np.einsum("ij,ij->i", block, block)[:, None]
        labels[start : start + step] = np.argmin(d, axis=1)
    return labels


def cluster_sums(X, labels, k):
    """Per-label feature sums and member counts."""
    p = X.shape[1]
    sums = np.empty((k, p))
    for j in range(p):
        sums[:, j] = np.bincount(labels, weights=X[:, j], minlength=k)
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    return sums, counts


def min_sqdist_update(X, center, d2):
    """In-place d2 = min(d2, ||x - center||^2) per row; used by k-means++."""
    diff = X - center
    np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
    return d2


def backend_name() -> str:
    """Name of the kernel backend, recorded in reports and benchmark results."""
    return "numpy"
