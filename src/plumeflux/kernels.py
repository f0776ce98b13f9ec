"""Hot per-pixel kernels, written in numpy.

The matched filter, its noise propagation, and the k-means steps are the
only loops that touch every pixel of a scene, so they are the only code
here. Everything is written against plain float64 (pixels, bands) arrays.
"""

from __future__ import annotations

import numpy as np


def mf_scores(X, mu, q, denom):
    """Matched-filter score (x - mu)q / denom for each row of X."""
    return (X - mu) @ q / denom


def noise_variance(X, a, c, q, denom):
    """Per-pixel variance q' diag(a*max(x,0)+c) q / denom**2 for rows of X."""
    q2 = q * q
    return (np.maximum(X, 0.0) @ (a * q2) + c @ q2) / (denom * denom)


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
