"""Product probability measures and probability-normalized Gauss quadrature.

Every integral in this package is taken against a product measure with
independent marginals, and every quadrature rule here is normalized so its
weights sum to one.  Expectations are then plain weighted sums and no
downstream code renormalizes.

Two marginal families are supported: ``uniform(lo, hi)`` and the standard
normal.  Both come with Gauss rules that integrate polynomials up to degree
``2n - 1`` exactly, which is what makes the decomposition and variance
machinery downstream quantitative rather than approximate.

Sampling uses :func:`numpy.random.default_rng` (PCG64).  Results are
deterministic for a fixed seed and call sequence within this package
version.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable

import numpy as np

GAUSS_MAX_ORDER = 64

_UNIFORM = "uniform"
_NORMAL = "standard_normal"
_KINDS = (_UNIFORM, _NORMAL)


@dataclass(frozen=True)
class MarginalMeasure:
    """One independent input coordinate: ``uniform(lo, hi)`` or standard normal.

    Instances are immutable; build them with :meth:`uniform` or
    :meth:`standard_normal` rather than the raw constructor.
    """

    kind: str
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown marginal kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == _UNIFORM:
            if self.lo is None or self.hi is None:
                raise ValueError("uniform marginal needs both lo and hi")
            lo, hi = _check_real(self.lo, "uniform lo"), _check_real(self.hi, "uniform hi")
            if not lo < hi:
                raise ValueError(f"uniform bounds must satisfy lo < hi, got [{lo}, {hi}]")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        else:
            if self.lo is not None or self.hi is not None:
                raise ValueError("standard_normal takes no bounds")

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "MarginalMeasure":
        return cls(_UNIFORM, lo, hi)

    @classmethod
    def standard_normal(cls) -> "MarginalMeasure":
        return cls(_NORMAL)

    def moment(self, k: int) -> float:
        """Exact raw moment ``E[X**k]``."""
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        if self.kind == _UNIFORM:
            lo, hi = self.lo, self.hi
            return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))
        if k % 2:
            return 0.0
        # even normal moment: (k - 1)!!
        out = 1.0
        for j in range(k - 1, 0, -2):
            out *= j
        return out

    def contains(self, x) -> np.ndarray:
        """True where `x` lies in the support."""
        arr = np.asarray(x, dtype=float)
        if self.kind == _UNIFORM:
            return (arr >= self.lo) & (arr <= self.hi)
        return np.isfinite(arr)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        if self.kind == _UNIFORM:
            return rng.uniform(self.lo, self.hi, size=size)
        return rng.standard_normal(size=size)


@dataclass(frozen=True)
class ProductMeasure:
    """Independent product of marginal measures, one per coordinate."""

    marginals: tuple[MarginalMeasure, ...]

    def __post_init__(self) -> None:
        if not self.marginals:
            raise ValueError("product measure needs at least one marginal")
        object.__setattr__(self, "marginals", tuple(self.marginals))

    @classmethod
    def iid(cls, marginal: MarginalMeasure, dim: int) -> "ProductMeasure":
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        return cls((marginal,) * dim)

    @property
    def dim(self) -> int:
        return len(self.marginals)

    def contains(self, x) -> np.ndarray:
        arr = _check_points(x, self.dim)
        out = np.ones(arr.shape[:-1], dtype=bool)
        for j, marg in enumerate(self.marginals):
            out &= marg.contains(arr[..., j])
        return out

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw one point ``(dim,)`` or a batch ``(size, dim)``.

        Columns are filled marginal-by-marginal in coordinate order, so a
        batch of draws is reproducible from the seed alone.  A batch is
        column-major: each column is one contiguous draw.
        """
        if size is None:
            return np.array([m.sample(rng) for m in self.marginals], dtype=float)
        out = np.empty((int(size), self.dim), order="F")
        for j, marg in enumerate(self.marginals):
            out[:, j] = marg.sample(rng, size=size)
        return out


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and probability-normalized weights for one coordinate."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def order(self) -> int:
        return len(self.nodes)


def gauss_rule(marginal: MarginalMeasure, order: int) -> QuadratureRule:
    """Gauss rule of a given order for one marginal measure.

    For ``uniform(lo, hi)`` the Gauss-Legendre nodes are mapped affinely to
    ``[lo, hi]`` and the weights rescaled to sum to one; for the standard
    normal the probabilists' Gauss-Hermite rule is normalized the same way.
    Either rule integrates polynomials up to degree ``2 * order - 1``
    exactly against its marginal.

    Parameters
    ----------
    marginal : MarginalMeasure
    order : int
        Number of nodes, ``1 <= order <= GAUSS_MAX_ORDER`` (64); the cap
        guards against accidentally huge rules.  Checked by
        :func:`_check_quad_orders`, so ``bool`` and non-integers raise
        ``ValueError``.

    Returns
    -------
    QuadratureRule
        Nodes ascending, weights positive and summing to one.
    """
    (order,) = _check_quad_orders((order,), 1)
    if marginal.kind == _UNIFORM:
        x, w = np.polynomial.legendre.leggauss(order)
        lo, hi = marginal.lo, marginal.hi
        nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        weights = 0.5 * w  # leggauss weights sum to 2
    else:
        nodes, w = np.polynomial.hermite_e.hermegauss(order)
        weights = w / np.sum(w)
    return QuadratureRule(nodes, weights)


def gauss_exactness_residual(marginal: MarginalMeasure, rule: QuadratureRule) -> float:
    """Worst relative error of the rule on monomials up to degree ``2n - 1``.

    The error of each moment is measured against ``max(1, E[|X|**k])`` so
    that exactly-zero odd moments do not blow up the ratio.
    """
    worst = 0.0
    for k in range(2 * rule.order):
        exact = marginal.moment(k)
        quad = float(np.dot(rule.weights, rule.nodes**k))
        denom = max(1.0, float(np.dot(rule.weights, np.abs(rule.nodes) ** k)))
        worst = max(worst, abs(quad - exact) / denom)
    return worst


def product_rules(
    measure: ProductMeasure, orders: int | Iterable[int]
) -> tuple[QuadratureRule, ...]:
    """One Gauss rule per coordinate; a scalar order is broadcast.

    `orders` is checked by :func:`_check_quad_orders`.  Coordinates with
    the same marginal and order share one rule, built once per call.
    """
    keys = list(zip(measure.marginals, _check_quad_orders(orders, measure.dim)))
    rules = {key: gauss_rule(*key) for key in dict.fromkeys(keys)}
    return tuple(rules[key] for key in keys)


def _check_quad_orders(orders, dim: int) -> tuple[int, ...]:
    """Gauss nodes per coordinate as `dim` ints, each in
    ``[1, GAUSS_MAX_ORDER]`` (the cap is read at call time).

    A scalar broadcasts to every coordinate.  Numpy integers pass (as a
    scalar or in a sequence); ``bool`` and non-integers raise
    ``ValueError``, so ``True`` is no 1-node rule.
    """
    try:
        orders = tuple(orders)
    except TypeError:
        orders = (orders,) * dim
    if len(orders) != dim:
        raise ValueError(f"got {len(orders)} orders for dimension {dim}")
    orders = tuple(_check_integer(n, "quadrature order") for n in orders)
    for n in orders:
        if n < 1:
            raise ValueError("quadrature orders must be at least 1")
        if n > GAUSS_MAX_ORDER:
            raise ValueError(f"quadrature order {n} exceeds the cap {GAUSS_MAX_ORDER}")
    return orders


def _check_real(value, what: str) -> float:
    """`value` as a finite float.  Any finite real number passes, numpy
    scalars included; ``bool`` and strings raise ``ValueError`` rather than
    being converted, so ``False`` is no 0.0 and ``"1"`` no 1.0, and so do
    NaN and ±inf."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{what} must be finite, got {out!r}")
    return out


def _check_integer(value, what: str) -> int:
    """`value` as an int.  Numpy integers pass; ``bool``, strings and
    non-integer numbers raise ``ValueError`` rather than being converted
    or truncated."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_points(x, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if dim != 1:
            raise ValueError(f"points have no last axis, expected {dim}")
        arr = arr.reshape(1)
    if arr.shape[-1] != dim:
        raise ValueError(f"points have last axis {arr.shape[-1]}, expected {dim}")
    return arr
