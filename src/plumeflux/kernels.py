"""Hot per-pixel kernels, written in numpy.

The matched filter, its noise propagation, and the k-means steps are the
only loops that touch every pixel of a scene, so they are the only code
here. The matched-filter kernels sweep the (bands, pixels) window slab in
pixel chunks, band by band, with per-segment tables indexed by each pixel's
segment (-1: nodata, which scores 0); the k-means kernels take float64
(pixels, bands) arrays.
"""

from __future__ import annotations

import numpy as np


_PIXEL_CHUNK = 16_384  # pixels per sweep of the matched-filter kernels; keeps temporaries in cache


def _padded(table, fill=0.0):
    """Per-segment table with an entry for segment -1 appended."""
    return np.concatenate([table, np.full((1,) + table.shape[1:], fill)])


def mf_scores(Y, seg, mu, q, denom):
    """Score sum_b (y_b - mu[s, b]) q[s, b] / denom[s] of each pixel y of segment s.

    The score stays centred, so it keeps its precision when |y| >> |y - mu|.
    """
    mu, q = _padded(mu), _padded(q)
    out = np.zeros(Y.shape[1])
    term, weight = np.empty(_PIXEL_CHUNK), np.empty(_PIXEL_CHUNK)
    for lo in range(0, Y.shape[1], _PIXEL_CHUNK):
        s, acc = seg[lo : lo + _PIXEL_CHUNK], out[lo : lo + _PIXEL_CHUNK]
        t, w = term[: s.size], weight[: s.size]
        for b, y in enumerate(Y[:, lo : lo + _PIXEL_CHUNK]):
            np.subtract(y, np.take(mu[:, b], s, out=t, mode="wrap"), out=t)
            acc += np.multiply(t, np.take(q[:, b], s, out=w, mode="wrap"), out=t)
    out /= _padded(denom, 1.0)[seg]
    out[seg < 0] = 0.0
    return out


def noise_variance(Y, seg, a, c, q, denom):
    """Per-pixel variance q' diag(a*max(y,0)+c) q / denom**2, with q and denom of its segment."""
    aq2 = _padded(a * q * q)
    out = np.zeros(Y.shape[1])
    term, weight = np.empty(_PIXEL_CHUNK), np.empty(_PIXEL_CHUNK)
    for lo in range(0, Y.shape[1], _PIXEL_CHUNK):
        s, acc = seg[lo : lo + _PIXEL_CHUNK], out[lo : lo + _PIXEL_CHUNK]
        t, w = term[: s.size], weight[: s.size]
        for b, y in enumerate(Y[:, lo : lo + _PIXEL_CHUNK]):
            acc += np.multiply(np.maximum(y, 0.0, out=t), np.take(aq2[:, b], s, out=w, mode="wrap"), out=t)
    out += _padded(q * q @ c)[seg]
    out /= _padded(denom * denom, 1.0)[seg]
    out[seg < 0] = 0.0
    return out


def label_step(k, p):
    """Rows per chunk of ``assign_labels`` for k centers of p features; bounds the (chunk, k) matrix."""
    return max(1, 4_000_000 // max(1, k * p))


def assign_labels(X, centers, rows=None):
    """Nearest center (squared Euclidean) of each row of X, or of each row X[rows].

    Returns the nearest center's index with the squared distances to the
    nearest and the second-nearest center (inf when there is one center).
    Rows go through in chunks of ``label_step`` rows, so rows ``c*step`` to
    ``(c+1)*step`` of X give the same values in every call with the same
    centers; a subset of rows may round differently in the last bits.
    """
    n = X.shape[0] if rows is None else rows.size
    labels = np.empty(n, dtype=np.int64)
    d1, d2 = np.empty(n), np.empty(n)
    step = label_step(*centers.shape)
    c2 = np.einsum("kj,kj->k", centers, centers)
    # one reused buffer for gathered rows; mode="clip" lets take write into it unbuffered
    gathered = None if rows is None else np.empty((min(step, n), X.shape[1]))
    for start in range(0, n, step):
        if rows is None:
            block = X[start : start + step]
        else:
            at = rows[start : start + step]
            block = np.take(X, at, axis=0, out=gathered[: at.size], mode="clip")
        d = block @ centers.T
        d *= -2.0
        d += c2
        d += np.einsum("ij,ij->i", block, block)[:, None]
        labels[start : start + step] = np.argmin(d, axis=1)
        # two smallest per row, one column at a time (a row reduction over k is slow)
        m1, m2 = d1[start : start + step], d2[start : start + step]
        m1[:], m2[:] = d[:, 0], np.inf
        for col in d.T[1:]:
            np.minimum(m2, np.maximum(m1, col), out=m2)
            np.minimum(m1, col, out=m1)
    return labels, d1, d2


def cluster_sums(X, labels, k):
    """Per-label feature sums and member counts.

    One sparse one-hot product: each sum adds its rows in row order, as a
    weighted ``bincount`` per column does, so the sums are bit-identical to it.
    """
    import scipy.sparse  # here, so runs without k-means never load it

    n = X.shape[0]
    onehot = scipy.sparse.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(k, n))
    return onehot @ X, np.bincount(labels, minlength=k).astype(np.int64)


def min_sqdist_update(X, center, d2):
    """In-place d2 = min(d2, ||x - center||^2) per row; used by k-means++."""
    for lo in range(0, X.shape[0], 4096):  # rows per chunk; bounds the difference array
        diff = X[lo : lo + 4096] - center
        np.minimum(d2[lo : lo + 4096], np.einsum("ij,ij->i", diff, diff), out=d2[lo : lo + 4096])
    return d2


def backend_name() -> str:
    """Name of the kernel backend, recorded in reports and benchmark results."""
    return "numpy"
