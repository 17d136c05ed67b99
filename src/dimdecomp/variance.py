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
from math import fsum, inf

import numpy as np

from dimdecomp.decomp import ComponentTable, _axis_map, _expectation
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
    ``(y - y_empty)**2`` on the full grid, taken one leading-axis slab of
    the grid at a time."""
    weights = [r.weights for r in table.problem.rules]
    slabs = [_expectation((y - table.y_empty) ** 2, weights[1:]) for y in table._full_values]
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
    ``b``.  One leading-axis slab is squared at a time (no table-sized
    temporary)."""
    N = A.ndim
    # row 0 carries the slot ("j not in u"), row 1 sums the nodes ("j in u")
    split = [np.vstack((np.eye(1, len(w) + 1, len(w)), np.append(w, 0.0))) for w in weights]
    slabs = []
    for i in range(len(A)):
        slab = np.square(A[i : i + 1])
        for j in range(1, N):
            slab = _axis_map(split[j], slab, j)
        slabs.append(slab)
    by_mask = _axis_map(split[0], np.concatenate(slabs), 0).ravel(order="F")
    return {u.mask: float(by_mask[u.mask]) for u in all_subsets_up_to(N, N) if not u.is_empty}
