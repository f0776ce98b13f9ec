"""Hot per-pixel kernels, written in numpy, and the thread pool of the slab passes.

The matched filter, its noise propagation, and the k-means steps are the
only loops that touch every pixel of a scene, so they are the only code
here. The matched-filter kernels sweep the (bands, pixels) window slab in
pixel chunks, band by band, with per-segment tables looked up by each
pixel's segment (-1: nodata, which scores 0); the k-means kernels take
float64 (pixels, bands) arrays.

The slab passes (these sweeps, the moments pass and the background match)
split their chunks into ``runs``, one per CPU, and hand them to
``in_parallel``. A run gets every buffer it writes from the calling thread,
so pool threads allocate nothing large, and each element is computed by the
same operations as in one run; the outputs do not depend on the CPU count.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import os
import threading
from contextlib import contextmanager

import numpy as np


_PIXEL_CHUNK = 16_384  # pixels per sweep of the matched-filter kernels; keeps temporaries in cache


@functools.cache
def _blas_threads_setter():
    """OpenBLAS's per-thread thread-count setter, which returns the old count; a no-op under another BLAS."""
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)  # numpy >= 2
    lib = umath and ctypes.CDLL(umath.__file__)  # its symbol lookups reach the BLAS it links
    set_threads = getattr(lib, "openblas_set_num_threads_local", None)
    if set_threads is None:
        return lambda n: n
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
    return set_threads


@contextmanager
def one_blas_thread():
    """Keep this thread's calls to numpy's OpenBLAS on this thread; also a decorator.

    OpenBLAS splits even a (72, 512) @ (512, 72) product across its worker threads:
    no gain on a 2-CPU host, and 2-3x the time while another process holds a core.
    """
    set_threads = _blas_threads_setter()
    previous = set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def workers() -> int:
    """Threads of the slab passes: one per CPU this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def runs(sizes) -> list[slice]:
    """Contiguous runs of items, at most one per worker, each about an equal share of ``sum(sizes)``."""
    ends = np.cumsum(np.asarray(sizes, dtype=np.float64))
    if ends.size == 0:
        return []
    n = workers()
    cuts = np.searchsorted(ends, ends[-1] * np.arange(1, n) / n) + 1
    edges = np.unique(np.concatenate([[0], np.minimum(cuts, ends.size), [ends.size]]))
    return [slice(a, b) for a, b in zip(edges[:-1].tolist(), edges[1:].tolist())]


class _Pool:
    """Daemon threads that run the parts handed to them, each with OpenBLAS pinned to itself.

    Not ``concurrent.futures``: importing it (and ``logging``) takes 5 ms and
    0.6 MB of Python objects, either at import or inside the first pass.
    """

    def __init__(self, threads: int):
        self.tasks, self.ready = collections.deque(), threading.Semaphore(0)
        for _ in range(threads):
            threading.Thread(target=self._serve, name="plumeflux-slab", daemon=True).start()

    def submit(self, fn, part, done) -> list:
        """Hand ``fn(part)`` to a thread: its [ok, result or exception], set before ``done`` is released."""
        slot = [False, None]
        self.tasks.append((fn, part, slot, done))
        self.ready.release()
        return slot

    def _serve(self) -> None:
        _blas_threads_setter()(1)
        while True:
            self.ready.acquire()
            self._run(*self.tasks.popleft())  # holds no part's buffers once it returns

    @staticmethod
    def _run(fn, part, slot, done) -> None:
        try:
            slot[:] = True, fn(part)
        except BaseException as exc:  # raised again on the calling thread
            slot[1] = exc
        done.release()


@functools.cache
def _pool(threads: int, pid: int) -> _Pool:
    """The pool, made on first use; a forked child (another ``pid``) makes its own."""
    return _Pool(threads)


def in_parallel(fn, parts) -> list:
    """``[fn(part) for part in parts]``, the first part on the calling thread, the others on the pool.

    ``parts`` follow ``runs``, so there are at most ``workers()`` of them:
    with one CPU, the one part runs inline. Every part has ended when this
    returns or raises.
    """
    done = threading.Semaphore(0)
    slots = [_pool(max(1, workers() - 1), os.getpid()).submit(fn, part, done) for part in parts[1:]]
    try:
        first = [fn(part) for part in parts[:1]]
    finally:
        for _ in slots:
            done.acquire()
    for ok, value in slots:
        if not ok:
            raise value
    return first + [value for _, value in slots]


def _padded(table, fill=0.0):
    """Per-segment table with an entry for segment -1 appended."""
    return np.concatenate([table, np.full((1,) + table.shape[1:], fill)])


def _sweep(Y, segment_map, out, *tables):
    """The slab's pixel chunks in contiguous ``runs``, one per worker.

    A run yields (acc, term, bands) per chunk: ``acc`` is the chunk's view of
    ``out``, ``term`` a scratch array of its shape, and ``bands`` yields each
    band's values with every table's entries for the chunk's pixels. The
    tables are ``_padded`` (segments + 1, bands). When every valid pixel of a
    2-D map carries its column's segment (a column partition, as in cmf and
    cwcmf), a chunk is whole lines, the values are (lines, samples) and an
    entry is its column's table row, broadcast; any other map gathers the
    entries pixel by pixel. Each run has its own scratch, made here.
    """
    seg = segment_map.ravel()
    column = segment_map.max(axis=0) if segment_map.ndim == 2 else None
    by_column = column is not None and bool(np.all((segment_map == column) | (segment_map < 0)))
    step = max(1, _PIXEL_CHUNK // column.size) * column.size if by_column else _PIXEL_CHUNK
    starts = range(0, seg.size, step)
    size = min(step, seg.size)
    if by_column:
        tables = [np.ascontiguousarray(t[column].T) for t in tables]  # (bands, samples)

        def bands(lo, shape, gathered):
            for b, y in enumerate(Y[:, lo : lo + step]):
                yield (y.reshape(shape), *(t[b] for t in tables))
    else:
        tables = [np.ascontiguousarray(t.T) for t in tables]  # (bands, segments + 1)

        def bands(lo, shape, gathered):
            s = seg[lo : lo + step]
            for b, y in enumerate(Y[:, lo : lo + step]):
                yield (y, *(np.take(t[b], s, out=w[: s.size], mode="wrap")
                            for t, w in zip(tables, gathered)))

    def run(starts, term, gathered):
        for lo in starts:
            acc = out[lo : lo + step]
            acc = acc.reshape(-1, column.size) if by_column else acc
            yield acc, term[: acc.size].reshape(acc.shape), bands(lo, acc.shape, gathered)

    return [run(starts[r], np.empty(size), None if by_column else np.empty((len(tables), size)))
            for r in runs([min(step, seg.size - lo) for lo in starts])]


def mf_scores(Y, segment_map, mu, q, denom):
    """Score sum_b (y_b - mu[s, b]) q[s, b] / denom[s] of each pixel y of segment s.

    ``segment_map`` is (lines, samples), or flat. The score stays centred, so
    it keeps its precision when |y| >> |y - mu|.
    """
    seg = segment_map.ravel()
    out = np.zeros(seg.size)

    def score(chunks):
        for acc, t, bands in chunks:
            for y, m, w in bands:
                np.subtract(y, m, out=t)
                acc += np.multiply(t, w, out=t)

    in_parallel(score, _sweep(Y, segment_map, out, _padded(mu), _padded(q)))
    out /= _padded(denom, 1.0)[seg]
    out[seg < 0] = 0.0
    return out


def noise_variance(Y, segment_map, a, c, q, denom):
    """Per-pixel variance q' diag(a*max(y,0)+c) q / denom**2, with q and denom of its segment."""
    seg = segment_map.ravel()
    out = np.zeros(seg.size)

    def spread(chunks):
        for acc, t, bands in chunks:
            for y, w in bands:
                acc += np.multiply(np.maximum(y, 0.0, out=t), w, out=t)

    in_parallel(spread, _sweep(Y, segment_map, out, _padded(a * q * q)))
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
