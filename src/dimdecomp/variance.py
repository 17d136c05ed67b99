"""Variance components and global sensitivity indices.

Orthogonality of the integration-based decomposition makes second moments
additive: the variance of the target is the sum, over nonempty subsets, of
the mean squares of the components.  That split is computed here, along
with its normalized form (sensitivity indices) and, by a second route
from the grid values, the subset-sum variances that must equal sums of
component variances.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf, prod

import numpy as np

from dimdecomp import decomp
from dimdecomp.decomp import ComponentTable
from dimdecomp.passes import _axis_map, _expectation, _runs, _trailing_block
from dimdecomp.subsets import all_subsets_up_to

#: variance closure must hold this tightly (relative)
CLOSURE_RTOL = 1e-9


@dataclass(frozen=True)
class VarianceMap:
    """Variance split of a function over nonempty variable subsets.

    Attributes
    ----------
    dim : int
    y_empty : float
        Mean of the target under the input measure.
    sigma2 : dict
        Component variance per nonempty subset mask; keys cover all
        ``2**dim - 1`` nonempty subsets.
    total : float
        Sum of all component variances.
    """

    dim: int
    y_empty: float
    sigma2: dict[int, float]
    total: float

    def __post_init__(self) -> None:
        expected = (1 << self.dim) - 1
        if len(self.sigma2) != expected:
            raise ValueError(
                f"variance map must cover all {expected} nonempty subsets"
            )
        if any(m <= 0 or m >> self.dim for m in self.sigma2):
            raise ValueError("variance map keys must be nonempty in-range masks")
        if not all(0.0 <= v < inf for v in self.sigma2.values()):  # NaN fails too
            raise ValueError("component variances must be finite and nonnegative")

    @property
    def degenerate(self) -> bool:
        """True when the total variance is below roundoff relative to the
        output scale — i.e. the function is numerically constant.  An exactly
        constant input still leaves ~1e-32 of noise in the squared
        components, so comparing against literal zero is useless."""
        return self.total <= _variance_floor(self.y_empty)

    def cardinality_sums(self) -> dict[int, float]:
        """Total variance per cardinality: ``s -> sum_{|u|=s} sigma2_u``."""
        buckets: dict[int, list[float]] = {}
        for mask, v in self.sigma2.items():
            buckets.setdefault(mask.bit_count(), []).append(v)
        return {s: fsum(vals) for s, vals in sorted(buckets.items())}


def variance_components(table: ComponentTable, *, check_closure: bool = True) -> VarianceMap:
    """Mean squares of all nonempty components of an ADD table.

    Each component variance is its weighted sum of squares on its own
    subgrid, all from one :func:`_mean_squares` pass over the table array
    (see :func:`~dimdecomp.decomp.build_add`).  The total is cross-checked
    against direct quadrature of ``(y - y_empty)**2`` on the full grid;
    disagreement beyond ``CLOSURE_RTOL`` means the table is inconsistent
    and raises.  Pass ``check_closure=False`` to get the map anyway
    (diagnostic callers record the residual themselves via
    :func:`variance_closure_residual`).

    Gauss weights are positive, so every entry is a sum of nonnegative
    terms and no variance can come out negative.
    """
    sigma2 = _mean_squares(table._array, [r.weights for r in table.problem.rules])
    total = fsum(sigma2.values())
    vmap = VarianceMap(table.dim, table.y_empty, sigma2, total)
    if check_closure:
        _checked_closure(variance_closure_residual(table, vmap))
    return vmap


def _checked_closure(resid: float) -> float:
    """`resid`, or ``ArithmeticError`` when it exceeds ``CLOSURE_RTOL``."""
    if not resid <= CLOSURE_RTOL:  # a NaN residual violates it too
        raise ArithmeticError(f"variance closure violated: relative residual {resid:.3e}")
    return resid


def variance_closure_residual(table: ComponentTable, vmap: VarianceMap) -> float:
    """Relative gap between the subset-sum total and direct quadrature of
    ``(y - y_empty)**2`` on the full grid.

    Each slab of the grid is taken in runs of its leading index tuples
    (see :func:`~dimdecomp.passes._runs`), one run squared and integrated
    over the trailing axes at a time in two reused buffers, and the slab's
    leading axes integrated after, so no temporary exceeds about a block
    and every Gauss sum rounds as on the whole slab."""
    weights = [r.weights for r in table.problem.rules]
    Y = table._full_values
    q = Y.shape
    # trailing blocks of at most 1/32 block, so runs of 16 tuples fit one
    t = max(1, _trailing_block(q, decomp._BLOCK_VALUES // 32))
    lead, size = prod(q[1:t]), prod(q[t:])
    means = np.empty(lead)
    # per run: where its squares go, then each trailing Gauss sum's
    # operands, last axis first, in two buffers reused for every slab
    runs = _runs(lead, size, decomp._BLOCK_VALUES)
    width = max(r.stop - r.start for r in runs)
    squares, spare = np.empty(width * size), np.empty(width * size // q[-1])
    pieces = []
    for run in runs:
        L = run.stop - run.start
        z = squares[: L * size] if t < len(q) else means[run]
        src, dst, rows, sums = z, spare, L * size, []
        for k in reversed(range(t, len(q))):
            rows //= q[k]
            into = means[run] if k == t else dst[:rows]
            sums.append((src.reshape(rows, q[k]), weights[k], into))
            src, dst = into, src
        pieces.append((run, z.reshape(L, size), sums))
    slabs = []
    for y in Y.reshape(q[0], lead, size):
        for run, z, sums in pieces:
            np.square(np.subtract(y[run], table.y_empty, out=z), out=z)
            for a, w, into in sums:
                np.dot(a, w, out=into)
        slabs.append(_expectation(means.reshape(q[1:t]), weights[1:t]))
    direct = float(np.dot(weights[0], slabs))
    # floored so a (near-)constant function compares noise against noise
    # instead of dividing by it
    denom = max(direct, vmap.total, _variance_floor(table.y_empty))
    return abs(vmap.total - direct) / denom


def _variance_floor(mean: float) -> float:
    """Roundoff scale of a variance quadrature for a target of this mean:
    a variance at or below it is noise, and it floors relative residuals."""
    return 1e-14 * max(1.0, abs(mean)) ** 2


def sobol_indices(vmap: VarianceMap) -> dict[int, float]:
    """Normalized variance shares ``sigma2_u / total`` per nonempty mask.

    Raises for a degenerate (numerically constant) map: indices are
    undefined there, and quietly returning NaN would poison reports.
    """
    if vmap.degenerate:
        raise ValueError("total variance is zero; sensitivity indices are undefined")
    return {mask: v / vmap.total for mask, v in vmap.sigma2.items()}


def sobol_D(table: ComponentTable) -> dict[int, float]:
    """Subset-sum variance ``D_u`` of every nonempty subset, keyed by mask
    like ``VarianceMap.sigma2``: the Gauss mean square of ``E[z | X_u]``,
    ``z = y - E[y]``, which equals ``sum_{v ⊆ u, v != {}} sigma2_v``.

    All conditional means are one table-shaped array ``(x)_j [I; w_j^T] z``
    on the grid of target values that :func:`build_add` evaluated for
    `table`: the build's axis loop without its centering line.  It reads
    those values only, never the table array, and calls no target, so it
    stays a route independent of the build's centering passes.
    """
    Y = table._full_values
    weights = [r.weights for r in table.problem.rules]
    C = np.zeros(tuple(n + 1 for n in Y.shape))
    nodes = tuple(slice(0, n) for n in Y.shape)
    np.subtract(Y, _expectation(Y, weights), out=C[nodes])
    for j in reversed(range(Y.ndim)):
        V = C.reshape(C.shape[: j + 1] + (-1,))[nodes[:j]]
        np.matmul(weights[j], V[..., :-1, :], out=V[..., -1, :])  # P_j
    return _mean_squares(C, weights)


def _mean_squares(A: np.ndarray, weights: list[np.ndarray]) -> dict[int, float]:
    """Gauss mean square of each nonempty mask's entries of the
    nodes-plus-slot array `A`, by mask in (cardinality, mask) order: N axis
    maps take axis ``j`` to the slot and the Gauss sum over the nodes, so
    entry ``b`` of the ``(2,) * N`` result belongs to the mask with bits
    ``b``: axes 1, ..., N-1 slab by slab (:func:`_slab_maps`), then axis 0
    over the stacked slabs."""
    N = A.ndim
    # row 0 carries the slot ("j not in u"), row 1 sums the nodes ("j in u")
    split = [np.vstack((np.eye(1, len(w) + 1, len(w)), np.append(w, 0.0))) for w in weights]
    by_mask = _axis_map(split[0], _slab_maps(A, split), 0).reshape((2,) * N).ravel(order="F")
    return {u.mask: float(by_mask[u.mask]) for u in all_subsets_up_to(N, N) if not u.is_empty}


def _slab_maps(A: np.ndarray, split: list[np.ndarray]) -> np.ndarray:
    """``(len(A), 2**(N-1))``: each slab ``A[i]`` squared and mapped by
    ``split[j]`` on each of its axes ``j = 1, ..., N-1`` in turn.

    A slab's first ``s`` axes (:func:`_head_axes`) are squared and mapped
    in pieces that hold them whole and a run of the index tuples of the
    other axes (see :func:`~dimdecomp.passes._runs`), into one reused
    ``(2**s, rest)`` array that the other axes are then mapped on whole,
    so no temporary is slab-sized and each column of each map rounds as
    in one map of the whole slab."""
    N, n = A.ndim, A.shape
    s = _head_axes(n[1:])
    head, rest = prod(n[1 : s + 1]), prod(n[s + 1 :])
    X = np.empty((2**s, rest))
    # per run of the other axes' index tuples: where its squares go, and
    # the operands of each head map, views of two buffers that the maps
    # take turns to read and write, reused for every slab
    runs = _runs(rest, head, decomp._BLOCK_VALUES)
    width = max(r.stop - r.start for r in runs)
    buffers = [np.empty(head * width), np.empty(2 * head // n[1] * width)] if s else []
    pieces = []
    for c in runs:
        L = c.stop - c.start
        squares = buffers[0][: head * L].reshape(head, L) if s else X[:, c]
        src, maps = squares, []
        for j in range(1, s + 1):
            cols = prod(n[j + 1 : s + 1]) * L
            dst = X[:, c] if j == s else buffers[j % 2][: 2**j * cols]
            batches = 2 ** (j - 1)
            maps.append((split[j], src.reshape(batches, n[j], cols), dst.reshape(batches, 2, cols)))
            src = dst
        pieces.append((c, squares, maps))
    out = np.empty((n[0], 2 ** (N - 1)))
    for i in range(n[0]):
        slab = A[i].reshape(head, rest)
        for c, squares, maps in pieces:
            np.square(slab[:, c], out=squares)
            for matrix, a, b in maps:
                np.matmul(matrix, a, out=b)
        Z = X.reshape((2,) * s + n[s + 1 :])
        for j in range(s + 1, N):
            Z = _axis_map(split[j], Z, j - 1)
        out[i] = Z.ravel()
    return out


def _head_axes(shape: tuple[int, ...]) -> int:
    """The number ``s`` of first axes of a slab of `shape` that
    :func:`_mean_squares` maps in pieces: the smallest whose kept
    ``(2**s, rest)`` array and largest piece both hold at most a block,
    else the one that makes the larger of the two smallest."""

    def cost(s: int) -> int:
        head, rest = prod(shape[:s]), prod(shape[s:])
        runs = _runs(rest, head, decomp._BLOCK_VALUES)
        return max(2**s * rest, head * max(r.stop - r.start for r in runs))

    costs = []
    for s in range(len(shape) + 1):
        costs.append(cost(s))
        if costs[-1] <= decomp._BLOCK_VALUES:
            return s
    return costs.index(min(costs))
