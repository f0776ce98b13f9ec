"""Hot per-pixel kernels, written in numpy, and the thread pool of the whole-scene passes.

The matched filter, its noise propagation, and the k-means steps are the
only loops that touch every pixel of a scene, so they are the only code
here. The matched-filter kernels sweep the (bands, pixels) window slab in
pixel chunks, band by band, with per-segment tables looked up by each
pixel's segment (-1: nodata, which scores 0); the k-means kernels take
float64 (pixels, bands) arrays.

The whole-scene passes split their work into ``runs``, one per CPU, and
hand them to ``in_parallel``. The fixed-step passes (these sweeps, the
k-means label, distance and bound steps, the ctmf feature build, the
filters and the background match) go through ``in_chunks``; the passes
that split by weight (the moments pass, the k-means sums, the cube's payload
read and finite check) call ``in_parallel`` with their own runs. Each
element is computed by the same operations as in one run, so the outputs do
not depend on the CPU count.
"""

from __future__ import annotations

import ctypes
import functools
import os
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


@functools.cache
def _heap_trimmer():
    """glibc's ``malloc_trim``, which returns the heap's free pages to the system; a no-op elsewhere."""
    try:
        trim = ctypes.CDLL(None).malloc_trim  # the process's own symbols, the C library's among them
    except (AttributeError, OSError, TypeError):  # another C library, or no process handle (Windows)
        return lambda pad: 0
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def trim_heap() -> None:
    """Return the free memory at the top and inside the heap to the system (glibc ``malloc_trim(0)``).

    glibc gives back a heap's free top only once it exceeds its trim threshold,
    so a large free block under a small live one stays resident, and the next
    scene's arrays stack on top of it.
    """
    _heap_trimmer()(0)


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


@functools.cache
def _executor(threads: int, pid: int):
    """The pool, made on first use; a forked child (another ``pid``) makes its own."""
    from concurrent.futures import ThreadPoolExecutor  # here: importing plumeflux loads neither it nor logging

    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix="plumeflux-slab",
                              initializer=_blas_threads_setter(), initargs=(1,))


def in_parallel(fn, parts) -> list:
    """``[fn(part) for part in parts]``, the first part on the calling thread, the others on the pool.

    ``parts`` follow ``runs``, so there are at most ``workers()`` of them:
    with one CPU, the one part runs inline. Every part has ended when this
    returns or raises.
    """
    rest = [_executor(max(1, workers() - 1), os.getpid()).submit(fn, part) for part in parts[1:]]
    try:
        first = [fn(part) for part in parts[:1]]
    finally:
        for future in rest:  # one at a time: a wait() on the set took half as long again a call
            future.exception()
    return first + [future.result() for future in rest]


def in_chunks(fn, n: int, step: int, scratch) -> None:
    """``fn(lo, hi, *buffers)`` for each ``step``-item chunk [lo, hi) of n items, the chunks in ``runs``.

    Each run gets one set of buffers, ``scratch(min(step, n))``, made on the
    calling thread, so pool threads allocate nothing large; a chunk gets each
    buffer cut to its first ``hi - lo`` rows. The chunks of a run go in order
    on one thread (``in_parallel``). The chunk edges depend on ``step`` only,
    so a pass whose chunks each compute their own elements gives the same
    bytes on any number of CPUs.
    """
    starts = range(0, n, step)

    def run(part):
        chunks, buffers = part
        for lo in chunks:
            hi = min(lo + step, n)
            fn(lo, hi, *(b[: hi - lo] for b in buffers))

    sizes = [min(step, n - lo) for lo in starts]
    in_parallel(run, [(starts[r], scratch(min(step, n))) for r in runs(sizes)])


def _padded(table, fill=0.0):
    """Per-segment table with an entry for segment -1 appended."""
    return np.concatenate([table, np.full((1,) + table.shape[1:], fill)])


def _sweep(Y, segment_map, out, kernel, *tables):
    """``kernel(acc, term, bands)`` on each pixel chunk of the slab, through ``in_chunks``.

    ``acc`` is the chunk's view of ``out``, ``term`` a scratch array of its
    shape, and ``bands`` yields each band's values with every table's
    entries for the chunk's pixels. The tables are ``_padded`` (segments + 1,
    bands). When every valid pixel of a 2-D map carries its column's segment
    (a column partition, as in cmf and cwcmf), a chunk is whole lines, the
    values are (lines, samples) and an entry is its column's table row,
    broadcast; any other map gathers the entries pixel by pixel, each table
    into its own buffer.
    """
    seg = segment_map.ravel()
    column = segment_map.max(axis=0) if segment_map.ndim == 2 else None
    by_column = column is not None and bool(np.all((segment_map == column) | (segment_map < 0)))
    step = max(1, _PIXEL_CHUNK // column.size) * column.size if by_column else _PIXEL_CHUNK
    # per band: each column's entry (bands, samples), or every segment's to gather from
    tables = [np.ascontiguousarray((t[column] if by_column else t).T) for t in tables]

    def chunk(lo, hi, term, *gathered):
        acc, ys = out[lo:hi], Y[:, lo:hi]
        if by_column:
            acc = acc.reshape(-1, column.size)
            bands = ((y.reshape(acc.shape), *(t[b] for t in tables)) for b, y in enumerate(ys))
        else:
            s = seg[lo:hi]
            bands = ((y, *(np.take(t[b], s, out=w, mode="wrap") for t, w in zip(tables, gathered)))
                     for b, y in enumerate(ys))
        kernel(acc, term.reshape(acc.shape), bands)

    buffers = 1 if by_column else 1 + len(tables)  # the term, and one gather per table
    in_chunks(chunk, seg.size, step, lambda size: [np.empty(size) for _ in range(buffers)])


def mf_scores(Y, segment_map, mu, q, denom):
    """Score sum_b (y_b - mu[s, b]) q[s, b] / denom[s] of each pixel y of segment s.

    ``segment_map`` is (lines, samples), or flat. The score stays centred, so
    it keeps its precision when |y| >> |y - mu|.
    """
    seg = segment_map.ravel()
    out = np.zeros(seg.size)

    def score(acc, t, bands):
        for y, m, w in bands:
            np.subtract(y, m, out=t)
            acc += np.multiply(t, w, out=t)

    _sweep(Y, segment_map, out, score, _padded(mu), _padded(q))
    out /= _padded(denom, 1.0)[seg]
    out[seg < 0] = 0.0
    return out


def noise_variance(Y, segment_map, a, c, q, denom):
    """Per-pixel variance q' diag(a*max(y,0)+c) q / denom**2, with q and denom of its segment."""
    seg = segment_map.ravel()
    out = np.zeros(seg.size)

    def spread(acc, t, bands):
        for y, w in bands:
            acc += np.multiply(np.maximum(y, 0.0, out=t), w, out=t)

    _sweep(Y, segment_map, out, spread, _padded(a * q * q))
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
    centers: the full pass splits into runs of whole chunks. A subset of rows
    may round differently in the last bits, so it goes through in chunks of
    a quarter of ``label_step`` rows, which give up to four workers a share
    of a subset one ``label_step`` long.
    """
    n = X.shape[0] if rows is None else rows.size
    labels = np.empty(n, dtype=np.int64)
    d1, d2 = np.empty(n), np.empty(n)
    k, p = centers.shape
    step = label_step(k, p)
    if rows is not None:
        step = max(1, step // 4)
    c2 = np.einsum("kj,kj->k", centers, centers)

    def label(lo, hi, d, x2, t, gathered=None):
        block = X[lo:hi]
        if rows is not None:  # mode="clip" lets take write into the gather buffer unbuffered
            block = np.take(X, rows[lo:hi], axis=0, out=gathered, mode="clip")
        dist = np.matmul(block, centers.T, out=d)
        dist *= -2.0
        dist += c2
        dist += np.einsum("ij,ij->i", block, block, out=x2)[:, None]
        np.argmin(dist, axis=1, out=labels[lo:hi])
        # two smallest per row, one column at a time (a row reduction over k is slow)
        m1, m2 = d1[lo:hi], d2[lo:hi]
        m1[:], m2[:] = dist[:, 0], np.inf
        for col in dist.T[1:]:
            np.minimum(m2, np.maximum(m1, col, out=t), out=m2)
            np.minimum(m1, col, out=m1)

    in_chunks(label, n, step, lambda size: [np.empty((size, k)), np.empty(size), np.empty(size)]
              + ([] if rows is None else [np.empty((size, p))]))
    return labels, d1, d2


def cluster_sums(X, labels, k, rows=None):
    """Per-label feature sums and member counts of the rows of X, or of the rows X[rows].

    A sparse one-hot product: each sum adds its rows in row order, as a
    weighted ``bincount`` per column does, so the sums are bit-identical to
    it. With ``rows``, ``labels[i]`` labels row ``rows[i]``, which may repeat,
    and the product reads those rows in place: the values are those of
    ``cluster_sums(X[rows], labels, k)``. The clusters split into ``runs``
    by size, and each run adds its rows into its own rows of the result. One
    cluster's sum is one chain of additions and never splits, so a dominant
    cluster bounds the speed-up.
    """
    # csr_array @ X's kernel, which adds into a given array; imported here,
    # so runs without k-means never load scipy.sparse
    from scipy.sparse import _sparsetools

    X = np.ascontiguousarray(X, dtype=np.float64)
    n, p = X.shape
    flat = X.ravel()
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    # the CSR row of each cluster: its rows in order (a stable radix sort for k <= 65536)
    order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
    if rows is not None:  # the C kernel reads X at these indices unchecked
        rows = np.asarray(rows, dtype=np.intp)
        if rows.shape != labels.shape or (rows.size and not 0 <= rows.min() <= rows.max() < n):
            raise IndexError("cluster_sums: rows must be one index into X per label")
        order = rows[order]
    indptr = np.concatenate([[0], np.cumsum(counts)])
    ones = np.ones(order.size)
    sums = np.zeros((k, p))

    def add(r):
        _sparsetools.csr_matvecs(r.stop - r.start, n, p, indptr[r.start : r.stop + 1], order, ones,
                                 flat, sums[r].ravel())

    in_parallel(add, runs(counts))
    return sums, counts


_DIST_ROWS = 2048  # rows per chunk of min_sqdist_update; bounds each run's difference array


def min_sqdist_update(X, centers, d2, labels=None):
    """In-place d2 = min(d2, ||x - c||^2) per row x of X, in chunks of ``_DIST_ROWS`` rows.

    The center c is ``centers`` itself, one row (the k-means++ seeding), or
    with ``labels`` the row's own ``centers[label]`` (the empty-cluster reseed).
    Each row's value is computed alone, so the chunks do not change it.
    """
    n, p = X.shape

    def update(lo, hi, t, sq):
        x, d = X[lo:hi], d2[lo:hi]
        if labels is not None:
            np.subtract(x, np.take(centers, labels[lo:hi], axis=0, out=t, mode="clip"), out=t)
        else:
            np.subtract(x, centers, out=t)
        np.minimum(d, np.einsum("ij,ij->i", t, t, out=sq), out=d)

    in_chunks(update, n, _DIST_ROWS, lambda size: (np.empty((size, p)), np.empty(size)))
    return d2


def backend_name() -> str:
    """Name of the kernel backend, recorded in reports and benchmark results."""
    return "numpy"
