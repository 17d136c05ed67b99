"""Variance components and global sensitivity indices.

Orthogonality of the integration-based decomposition makes second moments
additive: the variance of the target is the sum, over nonempty subsets, of
the mean squares of the components.  That split is computed here, along
with its normalized form (sensitivity indices) and, by a second route
from the grid values, the subset-sum variances that must equal sums of
component variances.  Each per-subset result is one read-only float array
of ``2**N`` entries indexed by subset mask, 0.0 at the empty set.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf

import numpy as np

from dimdecomp import decomp
from dimdecomp.decomp import ComponentTable
from dimdecomp.passes import _expectation, _kron_map
from dimdecomp.subsets import all_subsets_up_to  # noqa: F401 - a trace target

#: variance closure must hold this tightly (relative)
CLOSURE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class VarianceMap:
    """Variance split of a function over the subsets of its variables.

    Attributes
    ----------
    dim : int
    y_empty : float
        Mean of the target under the input measure.
    sigma2 : numpy.ndarray
        Component variance by subset mask, a read-only float array of
        ``2**dim`` entries; entry 0, the empty set, is 0.0.
    total : float
        Sum of all component variances.
    """

    dim: int
    y_empty: float
    sigma2: np.ndarray
    total: float

    def __post_init__(self) -> None:
        sigma2 = np.asarray(self.sigma2, dtype=float).view()
        if sigma2.shape != (1 << self.dim,) or sigma2[0] != 0.0:
            raise ValueError(
                f"variance map must hold {1 << self.dim} variances by mask, 0.0 at the empty set"
            )
        if not np.all((sigma2 >= 0.0) & (sigma2 < inf)):  # NaN fails too
            raise ValueError("component variances must be finite and nonnegative")
        sigma2.flags.writeable = False
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def degenerate(self) -> bool:
        """True when the total variance is below roundoff relative to the
        output scale — i.e. the function is numerically constant.  An exactly
        constant input still leaves ~1e-32 of noise in the squared
        components, so comparing against literal zero is useless."""
        return self.total <= _variance_floor(self.y_empty)

    def cardinality_sums(self) -> dict[int, float]:
        """Total variance per cardinality: ``s -> sum_{|u|=s} sigma2_u``,
        each an ``fsum`` over the masks of ``s`` bits."""
        bits = np.zeros(1 << self.dim, dtype=np.int8)
        for j in range(self.dim):
            np.add(bits[: 1 << j], 1, out=bits[1 << j : 2 << j])
        return {s: fsum(self.sigma2[bits == s]) for s in range(1, self.dim + 1)}


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
    total = fsum(sigma2)
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
    ``(y - y_empty)**2`` on the full grid, centered and squared in place
    piece by piece (:func:`~dimdecomp.passes._kron_map`)."""
    rows = [r.weights[None, :] for r in table.problem.rules]
    center = lambda y, out: np.square(np.subtract(y, table.y_empty, out=out), out=out)
    direct = _kron_map(table._full_values, rows, center, decomp._BLOCK_VALUES).item()
    # floored so a (near-)constant function compares noise against noise
    # instead of dividing by it
    denom = max(direct, vmap.total, _variance_floor(table.y_empty))
    return abs(vmap.total - direct) / denom


def _variance_floor(mean: float) -> float:
    """Roundoff scale of a variance quadrature for a target of this mean:
    a variance at or below it is noise, and it floors relative residuals."""
    return 1e-14 * max(1.0, abs(mean)) ** 2


def sobol_indices(vmap: VarianceMap) -> np.ndarray:
    """Normalized variance shares ``sigma2_u / total`` by mask, a read-only
    array like ``VarianceMap.sigma2`` (entry 0, the empty set, 0.0).

    Raises for a degenerate (numerically constant) map: indices are
    undefined there, and quietly returning NaN would poison reports.
    """
    if vmap.degenerate:
        raise ValueError("total variance is zero; sensitivity indices are undefined")
    indices = vmap.sigma2 / vmap.total
    indices.flags.writeable = False
    return indices


def sobol_D(table: ComponentTable) -> np.ndarray:
    """Subset-sum variance ``D_u`` of every subset, a read-only array by
    mask like ``VarianceMap.sigma2``: the Gauss mean square of
    ``E[z | X_u]``, ``z = y - E[y]``, which equals
    ``sum_{v ⊆ u, v != {}} sigma2_v`` (0.0 at the empty set).

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


def _mean_squares(A: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Gauss mean square of each mask's entries of the nodes-plus-slot
    array `A`, a read-only array by mask, 0.0 at the empty set: the maps of
    :func:`~dimdecomp.passes._kron_map` take axis ``j`` of the squares to
    the slot and the Gauss sum over the nodes, so entry ``b`` of the
    ``(2,) * N`` result belongs to the mask with bits ``b``."""
    # row 0 carries the slot ("j not in u"), row 1 sums the nodes ("j in u")
    split = [np.vstack((np.eye(1, len(w) + 1, len(w)), np.append(w, 0.0))) for w in weights]
    by_mask = _kron_map(A, split, np.square, decomp._BLOCK_VALUES).ravel(order="F")
    by_mask[0] = 0.0
    by_mask.flags.writeable = False
    return by_mask
