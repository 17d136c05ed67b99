"""Axis passes over nodes-plus-slot arrays and their grids.

An ADD table (:func:`~dimdecomp.decomp.build_add`) is one C-ordered array
with, per axis, the Gauss nodes plus one slot, and its grid the target
values at the nodes.  Every pass over them maps, sums or adds along one
axis at a time.  The passes that read a built table or grid take runs of
index tuples of at least one leading axis, the trailing axes holding about
one block (:func:`_trailing_block` of `block`, ``decomp._BLOCK_VALUES``),
so a run holds the table, its grid and a few blocks whatever the orders.
"""
from __future__ import annotations

from math import prod
from typing import Callable, Sequence

import numpy as np


def _around(arr: np.ndarray, k: int) -> np.ndarray:
    """``(before, n_k, after)`` view of the C-contiguous `arr` around axis
    `k`; callers that write through it rely on the view."""
    shape = arr.shape
    return arr.reshape(prod(shape[:k]), shape[k], -1)


def _axis_map(matrix: np.ndarray, arr: np.ndarray, k: int, buf=None) -> np.ndarray:
    """`matrix` applied to the first ``matrix.shape[1]`` entries of axis `k`
    of the C-contiguous `arr` (one matmul), written to the front of the
    flat array `buf` if one is given; axis `k` gets ``len(matrix)``."""
    V = _around(arr, k)[:, : matrix.shape[1]]
    if buf is not None:
        buf = buf[: len(V) * len(matrix) * V.shape[2]].reshape(len(V), len(matrix), -1)
    out = np.matmul(matrix, V, out=buf)
    return out.reshape(arr.shape[:k] + (len(matrix),) + arr.shape[k + 1 :])


def _expectation(arr, weights: Sequence[np.ndarray]) -> float:
    """Gauss expectation of a subgrid array: axis ``k`` is integrated
    against ``weights[k]``, contracting the last axis first, one
    matrix-vector product per axis."""
    for k in reversed(range(np.ndim(arr))):
        arr = np.dot(arr.reshape(-1, arr.shape[-1]), weights[k]).reshape(arr.shape[:-1])
    return float(arr)


def _trailing_block(shape: Sequence[int], budget: int) -> int:
    """The first axis ``t`` of the longest run of last axes ``t..`` of
    `shape` that together hold at most `budget` values."""
    t, size = len(shape), 1
    while t and size * shape[t - 1] <= budget:
        t -= 1
        size *= shape[t]
    return t


def _kron_map(A: np.ndarray, rows: Sequence[np.ndarray], f: Callable, block: int) -> np.ndarray:
    """``(x)_j rows[j]`` applied to ``f(A)``, shape ``(len(rows[j]), ...)``,
    where ``f(piece, out)`` writes `f` of a piece of `A` into `out`.

    Per run of leading index tuples, ``f`` and the trailing axes' maps take
    turns in two reused buffers; chunks of mapped runs then meet their
    columns of the Kronecker matrix of the leading axes' rows in one
    matmul, each chunk array at most a block.
    """
    n = A.shape
    t = max(1, _trailing_block(n, block))
    lead, size = prod(n[:t]), prod(n[t:])
    M, R = prod(len(r) for r in rows[:t]), prod(len(r) for r in rows[t:])
    step = min(lead, max(1, block // size))
    chunk = min(lead, step * max(1, block // (step * max(M, R))))
    first = step * size // n[t] * len(rows[t]) if t < len(n) else 0
    bufs, G = [np.empty(step * size), np.empty(first)], np.empty((chunk, R))
    out = np.zeros((M, R))
    A = A.reshape(lead, size)
    for c0 in range(0, lead, chunk):
        c1 = min(c0 + chunk, lead)
        for start in range(c0, c1, step):
            L = min(step, c1 - start)
            z = f(A[start : start + L], bufs[0][: L * size].reshape(L, size)).reshape((L,) + n[t:])
            for k, r in enumerate(rows[t:], 1):
                z = _axis_map(r, z, k, bufs[k % 2])
            G[start - c0 : start - c0 + L] = z.reshape(L, R)
        K = np.ones((1, c1 - c0))
        for r, i in zip(rows, np.unravel_index(np.arange(c0, c1), n[:t])):
            K = (K[:, None] * r[:, i]).reshape(-1, c1 - c0)
        out += K @ G[: c1 - c0]
    return out.reshape([len(r) for r in rows])


def _largest_mean(weights: np.ndarray, V: np.ndarray, block: int) -> tuple[float, int]:
    """``(|m|, k)``: the largest magnitude of the Gauss sums
    ``m = weights @ V[b, :q]`` of the ``(batches, rows, cols)`` array `V`
    and its flat index ``k`` into their ``(batches, cols)``, the first
    NaN, else the first largest.  The sums go in C order into one reused
    buffer, in runs of whole batches or of `block` columns of one batch.
    """
    B, _, cols = V.shape
    step, width = max(1, block // cols), min(cols, block)
    out = np.empty(min(B, step) * width)
    pieces = [(b, c) for b in range(0, B, step) for c in range(0, cols, width)]
    best, at = 0.0, 0
    for b, c in pieces:
        piece = V[b : b + step, : len(weights), c : c + width]
        means = out[: len(piece) * piece.shape[2]].reshape(len(piece), 1, -1)
        np.matmul(weights[None, :], piece, out=means)
        k = int(np.abs(means, out=means).argmax())  # a NaN is the argmax
        if means.flat[k] > best or np.isnan(means.flat[k]):
            best, at = float(means.flat[k]), b * cols + c + k
            if np.isnan(best):
                break
    return best, at


def _grid_gap(T: np.ndarray, Y: np.ndarray, block: int):
    """The largest ``|recon - Y|`` over the grid, a NaN if any: ``recon``
    sums node and slot of the table `T` on every axis.  Per run of the
    last leading axis, the leading axes' corners (node or slot on each)
    are added, then node + slot on each trailing axis, in two reused
    buffers.
    """
    n, q = T.shape, Y.shape
    t = max(1, _trailing_block(n, block))
    lead, grid = T.reshape(n[:t] + (-1,)), Y.reshape(q[:t] + (-1,))
    size = lead.shape[-1]
    step = min(q[t - 1], max(1, block // size))
    bufs = [np.empty(step * size), np.empty(step * size)]
    gap = 0.0
    for p in np.ndindex(*q[: t - 1]):
        corners = np.ndindex((2,) * (t - 1))
        heads = [lead[tuple(-1 if c else i for c, i in zip(cs, p))] for cs in corners]
        for g in range(0, q[t - 1], step):
            run = slice(g, min(g + step, q[t - 1]))
            recon = bufs[0][: (run.stop - run.start) * size].reshape(-1, size)
            np.add(heads[0][run], heads[0][-1], out=recon)
            for h in heads[1:]:
                np.add(recon, h[run], out=recon)
                np.add(recon, h[-1], out=recon)
            recon = recon.reshape((-1,) + n[t:])
            for j in range(1, recon.ndim):
                V = _around(recon, j)
                shape = recon.shape[:j] + (V.shape[1] - 1,) + recon.shape[j + 1 :]
                into = bufs[j % 2][: prod(shape)].reshape(V.shape[0], -1, V.shape[2])
                recon = np.add(V[:, :-1], V[:, -1:], out=into).reshape(shape)
            np.subtract(recon, grid[p + (run,)].reshape(recon.shape), out=recon)
            gap = np.maximum(gap, np.abs(recon, out=recon).max())  # keeps a NaN
    return gap


def _lattice_values(T: np.ndarray, idx: np.ndarray, off: Sequence[int]) -> np.ndarray:
    """Entries of the C-ordered array `T`, row ``m`` for mask ``m`` at each
    point: the index ``idx[k, j]`` of point ``k`` on each axis ``j`` of the
    mask, the index ``off[j]`` on the axes off the mask (the slot of a
    nodes-plus-slot table, an anchor node of a grid).  The flat indices are
    built by mask from the all-off entry, doubling over the axes, with no
    subset-bit matrix, and the values are gathered into their memory: each
    index is read before its value is written, and ``mode="clip"`` (past
    one bounds check) keeps ``np.take`` from buffering a copy."""
    strides = np.array(T.strides) // T.itemsize
    steps = (idx - np.asarray(off)) * strides
    N = steps.shape[1]
    at = np.empty((1 << N, len(steps)), dtype=np.intp)
    at[0] = np.dot(off, strides)
    for j in range(N):
        np.add(at[: 1 << j], steps[:, j], out=at[1 << j : 2 << j])
    if at.size and not 0 <= at.min() <= at.max() < T.size:
        raise IndexError(f"lattice index outside the {T.size} table values")
    return np.take(T.ravel(), at, out=at.view(np.float64), mode="clip")
