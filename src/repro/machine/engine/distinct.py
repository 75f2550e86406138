"""Vectorized offline reuse-distance machinery.

The stack-distance engine needs, for every access *i* of a trace, the
number of **distinct** lines touched strictly between the previous access
to the same line and *i* (the *reuse distance* ``delta``).  Mattson's
classic online algorithm maintains an LRU stack (or a Fenwick tree over
last-access flags) and is inherently sequential — a Python loop, which is
exactly what this subsystem exists to remove.

The offline identity used here turns the problem into pure NumPy:

    delta_i = #{ j : p_i < j < i, prev[j] <= p_i }

where ``prev[x]`` is the previous occurrence of the line accessed at
position *x* (``-1`` for a cold access) and ``p_i = prev[i]``.  A position
``j`` in the window counts exactly when it is the *first* occurrence of
its line inside the window.  Because every ``j <= p_i`` trivially has
``prev[j] < j <= p_i``, the window count simplifies to a *prefix* count:

    delta_i = #{ j < i : prev[j] <= prev[i] } - prev[i] - 1

i.e. "how many earlier positions have a previous-occurrence no later than
mine" — the number of non-inversions of the ``prev`` array.  That is
computed for all *i* simultaneously by a bottom-up merge sort where each
level counts left-block/right-block pairs with one stable ``argsort``
per level (O(n log^2 n) total, all vectorized).

When the values are previous-occurrence links (every value in
``[-1, n)``, which is all :func:`reuse_distances` ever passes), the count
runs instead in a compiled O(n log n) Fenwick-tree kernel
(:mod:`repro.machine.engine._kernels`), built lazily with the local C
compiler.  The NumPy merge count stays as the path for every other input,
the fallback when no compiler or build is available (see
:func:`kernel_info`), and the differential oracle the kernel is tested
against.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from . import _kernels

#: Sentinel reuse distance for cold (first-ever) accesses.
COLD = np.iinfo(np.int64).max


def previous_occurrences(keys: np.ndarray) -> np.ndarray:
    """For each position, the index of the previous occurrence of the same
    key (``-1`` if none).  Fully vectorized (stable argsort + group edges).
    """
    keys = np.ascontiguousarray(keys)
    n = keys.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")  # groups by key, index-ascending
    sk = keys[order]
    prev_sorted = np.full(n, -1, dtype=np.int64)
    same = sk[1:] == sk[:-1]
    prev_sorted[1:][same] = order[:-1][same]
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    return prev


#: Longest input the compiled kernel takes: its counters are int32.
_KERNEL_MAX_N = 2**31 - 2


def count_prior_leq(values: np.ndarray) -> np.ndarray:
    """``out[i] = #{ j < i : values[j] <= values[i] }`` for every *i*.

    Previous-occurrence links (``n < 2**31 - 2``, every value in
    ``[-1, n)``) go to the compiled Fenwick kernel when it is available;
    everything else to the NumPy merge count.  Both give identical output.
    """
    v = np.ascontiguousarray(values, dtype=np.int64)
    n = v.size
    if 1 < n < _KERNEL_MAX_N and v.min() >= -1 and v.max() < n:
        kernels, _ = _kernels.load()
        if kernels is not None:
            return kernels["count_prior_leq"](v)
    return _count_prior_leq_numpy(v)


def kernel_info() -> dict[str, Any]:
    """Which implementation :func:`count_prior_leq` uses for links:
    ``{"kernel": "c" | "numpy", "reason": str | None}``.  Builds or loads
    the compiled kernel if no call has yet."""
    return _kernels.kernels_info()["count_prior_leq"]


def _count_prior_leq_numpy(values: np.ndarray) -> np.ndarray:
    """:func:`count_prior_leq` for any int64 values.

    Bottom-up vectorized merge counting.  Values are first remapped to
    their rank under ``(value, index)`` order, which makes them a
    permutation (distinct), turns every ``<=`` between an earlier and a
    later position into a strict ``<``, and lets each merge level run as
    two flat ``searchsorted`` calls instead of a per-row sort: adjacent
    sorted blocks are given disjoint value offsets (``row * p``) so a
    single global ``searchsorted`` ranks every right-block element among
    its own left block.  Each (j, i) pair is counted exactly once, at the
    level where j and i sit in sibling blocks.
    """
    v = np.ascontiguousarray(values, dtype=np.int64)
    n = v.size
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    base = 32  # brute-force block width (must be a power of two)
    p = max(base, 1 << (n - 1).bit_length())
    dtype = np.int32 if p < 2**31 else np.int64
    vp = np.empty(p, dtype=np.int64)
    vp[:n] = v
    vp[n:] = v.max(initial=0) + 1  # padding sorts after every real value
    # Remap to the rank under (value, index): values become a permutation,
    # `<=` between an earlier and a later position becomes strict `<`, the
    # final merged layout is exactly `order`, and per-row radix argsorts
    # need no stability.
    order = np.argsort(vp, kind="stable")
    rank = np.empty(p, dtype=dtype)
    rank[order] = np.arange(p, dtype=dtype)

    # Base case: all-pairs counts inside blocks of `base`, one column at a
    # time (a 3D broadcast would materialize an n*base temporary).
    blocks = rank.reshape(-1, base)
    counts = np.zeros_like(blocks)
    for i in range(1, base):
        counts[:, i] = (blocks[:, :i] < blocks[:, i : i + 1]).sum(axis=1, dtype=dtype)
    horder = np.argsort(blocks, axis=1)
    vals = np.take_along_axis(blocks, horder, axis=1)
    counts = np.take_along_axis(counts, horder, axis=1)

    width = base
    while width < p:
        vals = vals.reshape(-1, 2 * width)
        counts = counts.reshape(-1, 2 * width)
        nrows = vals.shape[0]
        left, right = vals[:, :width], vals[:, width:]
        # Offsetting each row by `row * p` keeps the concatenation of all
        # (sorted) left blocks globally sorted, so one flat searchsorted
        # ranks every right element among its own left block — and vice
        # versa — with no per-row sort at all.
        row_off = (np.arange(nrows, dtype=np.int64) * p)[:, None]
        left_flat = (left + row_off).ravel()
        right_flat = (right + row_off).ravel()
        block_base = (np.arange(nrows, dtype=np.int64) * width)[:, None]
        in_left = np.searchsorted(left_flat, right_flat).reshape(nrows, width)
        in_left -= block_base  # smaller-left count per right element
        in_right = np.searchsorted(right_flat, left_flat).reshape(nrows, width)
        in_right -= block_base  # smaller-right count per left element
        # Merged position = index within own block + elements of the
        # sibling block that sort before (ranks are distinct, so no ties).
        cols = np.arange(width, dtype=np.int64)[None, :]
        row_base = (np.arange(nrows, dtype=np.int64) * 2 * width)[:, None]
        pos_left = (cols + in_right + row_base).ravel()
        pos_right = (cols + in_left + row_base).ravel()
        merged_v = np.empty_like(vals)
        merged_c = np.empty_like(counts)
        flat_v, flat_c = merged_v.reshape(-1), merged_c.reshape(-1)
        flat_v[pos_left] = left.ravel()
        flat_c[pos_left] = counts[:, :width].ravel()
        flat_v[pos_right] = right.ravel()
        flat_c[pos_right] = counts[:, width:].ravel() + in_left.astype(
            dtype
        ).ravel()
        vals, counts = merged_v, merged_c
        width *= 2
    # Element with rank k (sitting at merged position k) is the original
    # position order[k].
    out = np.empty(p, dtype=np.int64)
    out[order] = counts.reshape(-1)
    return out[:n]


def reuse_distances(keys: np.ndarray, prev: np.ndarray | None = None) -> np.ndarray:
    """Per-access LRU reuse distances of a key stream.

    ``out[i]`` is the number of distinct keys accessed strictly between the
    previous occurrence of ``keys[i]`` and position *i*; :data:`COLD` for
    first-ever accesses.  An access to a fully-associative LRU cache of
    capacity ``C`` hits iff ``out[i] < C``.
    """
    if prev is None:
        prev = previous_occurrences(keys)
    n = prev.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    delta = count_prior_leq(prev) - prev - 1
    delta[prev < 0] = COLD
    return delta
