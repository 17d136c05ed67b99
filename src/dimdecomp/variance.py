"""Variance components and global sensitivity indices.

Orthogonality of the integration-based decomposition makes second moments
additive: the variance of the target is the sum, over nonempty subsets, of
the mean squares of the components.  That split is computed here, along
with its normalized form (sensitivity indices) and the cross-covariance
subset-sum identity that connects anchored evaluations back to sums of
component variances.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import fsum

import numpy as np

from dimdecomp.decomp import ADD, ComponentTable, _expectation
from dimdecomp.subsets import VariableSubset, all_subsets_up_to

#: variance closure must hold this tightly (relative)
CLOSURE_RTOL = 1e-9

#: clamped negative variances larger than this (times scale^2) get a warning
CLAMP_WARN = 1e-12


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
        if any(v < 0.0 for v in self.sigma2.values()):
            raise ValueError("component variances must be nonnegative")

    def by_subset(self, u: VariableSubset) -> float:
        if u.dim != self.dim:
            raise ValueError(f"subset dimension {u.dim} != map dimension {self.dim}")
        if u.is_empty:
            raise ValueError("the empty subset carries no variance")
        return self.sigma2[u.mask]

    @property
    def degenerate(self) -> bool:
        """True when the total variance is below roundoff relative to the
        output scale — i.e. the function is numerically constant.  An exactly
        constant input still leaves ~1e-32 of noise in the squared
        components, so comparing against literal zero is useless."""
        return self.total <= 1e-14 * max(1.0, abs(self.y_empty)) ** 2

    def cardinality_sums(self) -> dict[int, float]:
        """Total variance per cardinality: ``s -> sum_{|u|=s} sigma2_u``."""
        buckets: dict[int, list[float]] = {}
        for mask, v in self.sigma2.items():
            buckets.setdefault(mask.bit_count(), []).append(v)
        return {s: fsum(vals) for s, vals in sorted(buckets.items())}


def variance_components(table: ComponentTable, *, check_closure: bool = True) -> VarianceMap:
    """Mean squares of all nonempty components of an ADD table.

    Each component variance is its weighted sum of squares on its own
    subgrid.  The total is cross-checked against direct quadrature of
    ``(y - y_empty)**2`` on the full grid; disagreement beyond
    ``CLOSURE_RTOL`` means the table is inconsistent and raises.  Pass
    ``check_closure=False`` to get the map anyway (diagnostic callers
    record the residual themselves via
    :func:`variance_closure_residual`).

    Gauss weights are positive, so the mean squares are nonnegative up to
    roundoff; any tiny negative value is clamped to zero (with a warning
    when the clamp is larger than ``CLAMP_WARN * scale**2``).
    """
    table._require(ADD)
    N = table.dim
    weights = [r.weights for r in table.problem.rules]
    sigma2: dict[int, float] = {}
    for u in all_subsets_up_to(N, N):
        if u.is_empty:
            continue
        val = _expectation(
            np.asarray(table.grid_values(u)) ** 2, [weights[j] for j in u.indices()]
        )
        if val < 0.0:
            if -val > CLAMP_WARN * table.scale**2:
                warnings.warn(
                    f"clamped negative variance {val:.3e} for subset {u.label()}",
                    stacklevel=2,
                )
            val = 0.0
        sigma2[u.mask] = val
    total = fsum(sigma2.values())
    vmap = VarianceMap(N, table.y_empty, sigma2, total)
    if check_closure:
        resid = variance_closure_residual(table, vmap)
        if resid > CLOSURE_RTOL:
            raise ArithmeticError(
                f"variance closure violated: relative residual {resid:.3e}"
            )
    return vmap


def variance_closure_residual(table: ComponentTable, vmap: VarianceMap) -> float:
    """Relative gap between the subset-sum total and direct quadrature of
    ``(y - y_empty)**2`` on the full grid."""
    table._require(ADD)
    weights = [r.weights for r in table.problem.rules]
    direct = _expectation((table._full_values - table.y_empty) ** 2, weights)
    # floor the denominator at the roundoff scale of the quadratures so a
    # (near-)constant function compares noise against noise instead of
    # dividing by it
    denom = max(direct, vmap.total, table.scale**2 * 1e-14)
    return abs(vmap.total - direct) / denom


def sobol_indices(vmap: VarianceMap) -> dict[int, float]:
    """Normalized variance shares ``sigma2_u / total`` per nonempty mask.

    Raises for a degenerate (numerically constant) map: indices are
    undefined there, and quietly returning NaN would poison reports.
    """
    if vmap.degenerate:
        raise ValueError("total variance is zero; sensitivity indices are undefined")
    return {mask: v / vmap.total for mask, v in vmap.sigma2.items()}


def sobol_D(table: ComponentTable, u: VariableSubset) -> float:
    """Subset-sum variance of `u` via the cross-covariance identity.

    Evaluates ``E[ y(X) * E[y | X_u] ] - (E[y])**2`` by nested tensor
    quadrature on the full grid of target values that :func:`build_add`
    evaluated for the ADD `table` — the inner conditional mean integrates
    over the complement coordinates, the outer expectation over everything.
    It reads those grid values only, never the components, so it stays an
    independent route and calls the target no further.  Equals
    ``sum_{v ⊆ u, v != {}} sigma2_v``; the test-suite pins that identity
    against :func:`variance_components`.
    """
    table._require(ADD)
    if u.dim != table.dim:
        raise ValueError(f"subset dimension {u.dim} != table dimension {table.dim}")
    if u.is_empty:
        return 0.0
    Y = table._full_values
    N = table.dim
    orders = table.problem.orders
    weights = [r.weights for r in table.problem.rules]
    own = set(u.indices())
    cond = Y
    for ax in reversed([j for j in range(N) if j not in own]):
        cond = np.tensordot(cond, weights[ax], axes=([ax], [0]))
    # broadcast conditional mean back over the full grid and take E[y * cond]
    shape = tuple(orders[j] if j in own else 1 for j in range(N))
    return _expectation(Y * cond.reshape(shape), weights) - _expectation(Y, weights) ** 2
