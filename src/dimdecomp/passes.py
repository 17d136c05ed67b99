"""Axis passes over nodes-plus-slot arrays and their grids.

An ADD table (:func:`~dimdecomp.decomp.build_add`) is one C-ordered array
with, per axis, the Gauss nodes plus one slot, and its grid the target
values at the nodes.  Every pass over them maps, sums or adds along one
axis at a time.  The passes that read a built table or grid take them in
pieces of about one block of values (`block`, the package's
``decomp._BLOCK_VALUES``), so a run holds the table, its grid and a few
blocks whatever the orders, and every piece rounds each value as a pass
over whole slabs does: additions happen per value in the same order, and
a BLAS call on a run of columns (:func:`_runs`) gives each column the bits
the call on the whole range gives it.
"""
from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np


def _around(arr: np.ndarray, k: int) -> np.ndarray:
    """``(before, n_k, after)`` view of the C-contiguous `arr` around axis
    `k`; callers that write through it rely on the view."""
    shape = arr.shape
    return arr.reshape(prod(shape[:k]), shape[k], -1)


def _axis_map(matrix: np.ndarray, arr: np.ndarray, k: int) -> np.ndarray:
    """`matrix` applied to the first ``matrix.shape[1]`` entries of axis `k`
    of the C-contiguous `arr` (one matmul); axis `k` gets ``len(matrix)``."""
    out = np.matmul(matrix, _around(arr, k)[:, : matrix.shape[1]])
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


def _runs(n: int, per_item: int, block: int) -> list[slice]:
    """The fewest runs covering ``range(n)`` with about `block` values
    each, at `per_item` values an item.

    Every run but the last holds the same multiple of 16 items, and the
    last holds the rest, at least 16 unless it is the only run.  A BLAS
    call on a run then rounds each item as one call on the whole range
    does: single-threaded OpenBLAS rounds every column of a call alike but
    those of its last partial tile, and only the last run ends where the
    whole range does.
    """
    k = max(1, -(-n * per_item // block))
    width = 16 * -(-n // (16 * k))
    cuts = [start for start in range(0, n, width) if n - start >= 16] or [0]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:] + [n])]


def _largest_mean(weights: np.ndarray, V: np.ndarray, block: int) -> tuple[float, int]:
    """``(|m|, k)``: the largest magnitude of the Gauss sums
    ``m = weights @ V[b, :q]`` of the ``(batches, rows, cols)`` array `V`
    and its flat index ``k`` into their ``(batches, cols)``, the first
    NaN, else the first largest.

    The sums go in C order in pieces of about `block` of them: runs of
    whole batches while one holds at most a block, else each batch in the
    column runs of :func:`_runs`.
    """
    B, _, cols = V.shape
    if cols <= block:
        step = block // cols
        pieces = [(slice(b, b + step), slice(0, cols)) for b in range(0, B, step)]
    else:
        pieces = [(slice(b, b + 1), c) for b in range(B) for c in _runs(cols, 1, block)]
    best, at = 0.0, 0
    for b, c in pieces:
        means = np.matmul(weights[None, :], V[b, : len(weights), c])
        k = int(np.abs(means, out=means).argmax())  # a NaN is the argmax
        if means.flat[k] > best or np.isnan(means.flat[k]):
            best, at = float(means.flat[k]), b.start * cols + c.start + k
            if np.isnan(best):
                break
    return best, at


def _grid_gap(T: np.ndarray, Y: np.ndarray, block: int):
    """The largest ``|recon - Y|`` over the grid, a NaN if any: ``recon``
    sums node and slot of the table `T` on every axis, node + slot, first
    axis first, as one pass over whole slabs adds them.

    The grid goes in runs of its last leading axis, the trailing axes
    holding at most `block` table values; each run redoes its leading
    axes' sums (:func:`_corner_sum`), sharing those of the slot of the
    last leading axis, in two buffers that the trailing axes then take
    turns to read and write.
    """
    n, q = T.shape, Y.shape
    t = max(1, _trailing_block(n, block))
    lead, grid = T.reshape(n[:t] + (-1,)), Y.reshape(q[:t] + (-1,))
    size = lead.shape[-1]
    step = max(1, block // size)
    pair = [np.empty(min(step, q[t - 1]) * size) for _ in range(2)]
    spare = [pair[1]] + [np.empty(pair[1].size) for _ in range(t - 3)]
    slot_sums = np.empty(size) if t > 1 else None
    gap = 0.0
    for p in np.ndindex(*q[: t - 1]):
        slot = _corner_sum(lead, p, (-1,), slot_sums, spare)
        for g in range(0, q[t - 1], step):
            run = slice(g, min(g + step, q[t - 1]))
            recon = pair[0][: (run.stop - run.start) * size].reshape(-1, size)
            recon = np.add(_corner_sum(lead, p, (run,), recon, spare), slot, out=recon)
            recon = recon.reshape((-1,) + n[t:])
            for j in range(1, recon.ndim):
                V = _around(recon, j)
                shape = recon.shape[:j] + (V.shape[1] - 1,) + recon.shape[j + 1 :]
                into = pair[j % 2][: prod(shape)].reshape(V.shape[0], -1, V.shape[2])
                recon = np.add(V[:, :-1], V[:, -1:], out=into).reshape(shape)
            np.subtract(recon, grid[p + (run,)].reshape(recon.shape), out=recon)
            gap = np.maximum(gap, np.abs(recon, out=recon).max())  # keeps a NaN
    return gap


def _corner_sum(
    A: np.ndarray, prefix: tuple[int, ...], rest: tuple, out: np.ndarray, spare: list[np.ndarray]
) -> np.ndarray:
    """``A[..., *rest]`` summed over node ``prefix[m]`` and slot of each
    leading axis ``m``, node + slot, the first axis innermost: the adds of
    the grid reconstruction over those axes, written into `out` with one
    array of `spare` per axis after the first for partial sums.  With no
    `prefix` it is the view ``A[rest]``."""
    if not prefix:
        return A[rest]
    *head, node = prefix
    if not head:
        return np.add(A[(node,) + rest], A[(-1,) + rest], out=out)
    _corner_sum(A, head, (node,) + rest, out, spare)
    slots = spare[len(head) - 1][: out.size].reshape(out.shape)
    return np.add(out, _corner_sum(A, head, (-1,) + rest, slots, spare), out=out)


def _lattice_values(T: np.ndarray, masks: np.ndarray, steps: np.ndarray, base: int) -> np.ndarray:
    """Entries of the C-ordered nodes-plus-slot array `T`, row ``k`` for
    the component of mask ``masks[k]`` at each point: the all-slot entry
    `base` plus, per axis of the mask, that point's flat offset in
    `steps` (one row per point, one column per axis).  The flat indices
    are built by mask, doubling over the axes, with no subset-bit matrix."""
    N = steps.shape[1]
    at = np.empty((1 << N, len(steps)), dtype=np.intp)
    at[0] = base
    for j in range(N):
        np.add(at[: 1 << j], steps[:, j], out=at[1 << j : 2 << j])
    values = T.ravel()[at]
    del at
    return values[masks]
