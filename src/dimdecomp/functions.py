"""Built-in test functions.

Each factory returns a vectorized callable mapping points of shape
``(..., dim)`` to values of shape ``(...,)``.  The registry names are the
ones accepted in run configs: ``product_linear``, ``sobol_g``, ``ishigami``
and ``poly``.
"""
from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from dimdecomp.measures import MarginalMeasure, _check_integer, _check_points, _check_real


def _vector(values, dim: int, check: Callable, what: str) -> np.ndarray:
    """`values` as an array of `dim` entries, each through `check`
    (:func:`~dimdecomp.measures._check_real` or ``_check_integer``), so
    bools and numeric strings raise ``ValueError`` instead of converting."""
    try:
        items = list(values)
    except TypeError:
        raise ValueError(f"{what} vector must be a sequence, got {values!r}") from None
    if len(items) != dim:
        raise ValueError(f"{what} vector must have length {dim}")
    return np.array([check(v, what) for v in items])


def product_linear(dim: int, a=None) -> Callable:
    """``y = prod_i (1 + a_i * x_i)``; defaults to ``a_i = 1``."""
    coeff = np.ones(dim) if a is None else _vector(a, dim, _check_real, "coefficient")

    def fn(x):
        t = coeff * _check_points(x, dim)  # the one working array
        t += 1.0
        return np.prod(t, axis=-1)

    return fn


def sobol_g(dim: int, a=None) -> Callable:
    """``y = prod_i (|4 x_i - 2| + a_i) / (1 + a_i)`` on the unit cube.

    Defaults to ``a_i = i`` (0-based), the classic strongly-interacting
    setting.  Piecewise linear in each coordinate: polynomial quadrature
    converges at a fixed algebraic rate here, not spectrally.
    """
    coeff = (
        np.arange(dim, dtype=float)
        if a is None
        else _vector(a, dim, _check_real, "coefficient")
    )
    if np.any(coeff < 0):
        raise ValueError("coefficients must be nonnegative")
    den = 1.0 + coeff

    def fn(x):
        t = 4.0 * _check_points(x, dim)  # the one working array
        t -= 2.0
        np.abs(t, out=t)
        t += coeff
        t /= den
        return np.prod(t, axis=-1)

    return fn


def ishigami(dim: int = 3, a: float = 7.0, b: float = 0.1) -> Callable:
    """``y = sin(x1) + a sin^2(x2) + b x3^4 sin(x1)``; requires dim == 3."""
    if dim != 3:
        raise ValueError("ishigami is defined for exactly 3 variables")
    a = _check_real(a, "ishigami a")
    b = _check_real(b, "ishigami b")

    def fn(x):
        arr = _check_points(x, 3)
        s1 = np.sin(arr[..., 0])
        return s1 + a * np.sin(arr[..., 1]) ** 2 + b * arr[..., 2] ** 4 * s1

    return fn


def poly(dim: int, terms) -> Callable:
    """Sparse multivariate polynomial ``y = sum_t c_t * prod_i x_i**e_ti``.

    `terms` is a sequence of mappings with exactly the keys ``coeff``
    (a number) and ``exponents`` (length-`dim` list of nonnegative ints);
    bools, strings and non-integer exponents raise ``ValueError``.  A term
    reads only the coordinates of its nonzero exponents.
    """
    parsed = []
    for t in terms:
        if not isinstance(t, Mapping) or set(t) != {"coeff", "exponents"}:
            raise ValueError(f"a poly term needs exactly the keys coeff and exponents, got {t!r}")
        c = _check_real(t["coeff"], "poly coeff")
        e = _vector(t["exponents"], dim, _check_integer, "exponent")
        if np.any(e < 0):
            raise ValueError("exponents must be nonnegative")
        own = np.flatnonzero(e)
        parsed.append((c, own, e[own]))
    if not parsed:
        raise ValueError("poly needs at least one term")

    def fn(x):
        arr = _check_points(x, dim)
        out = np.zeros(arr.shape[:-1], dtype=float)
        for c, own, e in parsed:
            out += c * np.prod(arr[..., own] ** e, axis=-1)
        return out

    return fn


# Each run-config name: its factory and the marginal used when a run
# config names the function but no measure.
_REGISTRY = {
    "product_linear": (product_linear, MarginalMeasure.uniform(-1.0, 1.0)),
    "sobol_g": (sobol_g, MarginalMeasure.uniform(0.0, 1.0)),
    "ishigami": (ishigami, MarginalMeasure.uniform(-math.pi, math.pi)),
    "poly": (poly, MarginalMeasure.uniform(-1.0, 1.0)),
}


def _entry(name: str) -> tuple[Callable, MarginalMeasure]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown function {name!r}; choose from {function_names()}"
        ) from None


def function_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_function(name: str, dim: int, **params) -> Callable:
    """Instantiate a registry function by name."""
    return _entry(name)[0](dim, **params)


def default_marginal(name: str) -> MarginalMeasure:
    """The marginal measure conventionally paired with a registry function."""
    return _entry(name)[1]
