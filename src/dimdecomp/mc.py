"""Monte Carlo estimators for truncation errors.

Every estimator here targets a quantity the analytic modules compute
exactly, so each one doubles as an end-to-end check of the whole stack:
sample the squared gap between target and surrogate, and the mean must
land within sampling noise of the closed-form budget.

Sampling draws from the problem's product measure via
:func:`numpy.random.default_rng`; identical (seed, n) give identical
estimates.  Every estimator runs the one sampling loop, :func:`_sampled`:
samples accumulate in chunks of ``DEFAULT_CHUNK`` rows (read at call time)
through a count-weighted mean/variance merge.  A non-finite target value
raises ``ValueError`` at the draw that produced it (see
:meth:`ProblemSpec.evaluate`).

:func:`check_optimality_split` samples the projection identity behind the
paper's two claims, that the integration-based surrogate has the least
error of its order and the anchored one does worse: for any S-variate
competitor ``r``, ``E[(y - r)**2] = e_add + E[(yhat_S - r)**2]``, here
with ``r`` the anchored surrogate at a random anchor.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from numbers import Integral
from typing import Sequence

import numpy as np

from dimdecomp.decomp import (
    CheckResult,
    ComponentTable,
    ProblemSpec,
    _check_anchor,
    rdd_direct,
    rdd_direct_sums,
)
from dimdecomp.errors import rdd_expected_error
from dimdecomp.subsets import _check_orders
from dimdecomp.variance import variance_components

MIN_SAMPLES = 1_000
MIN_PAIRS = 10_000
DEFAULT_CHUNK = 200_000


@dataclass(frozen=True)
class McEstimate:
    """A sample mean with its standard error and provenance."""

    mean: float
    std_error: float
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("an estimate needs at least 2 samples")
        if not self.std_error >= 0.0:
            raise ValueError("standard error must be nonnegative")

    def within(self, target: float) -> bool:
        """True when `target` lies inside mean ± 3 * std_error."""
        return abs(self.mean - target) <= 3.0 * self.std_error


def _mc_gate(name: str, est: McEstimate, target: float) -> CheckResult:
    """A sampled estimate against its analytic target, gated at 3 standard
    errors (:meth:`McEstimate.within`)."""
    return CheckResult(
        name,
        abs(est.mean - target),
        3.0 * est.std_error,
        est.within(target),
        f"sampled {float(est.mean):.12g} vs analytic {float(target):.12g} at n={est.n}",
    )


class _Accumulator:
    """Streaming count-weighted mean/variance (chunk-merged Welford)."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, batch: np.ndarray) -> None:
        b = np.asarray(batch, dtype=float).reshape(-1)
        if b.size == 0:
            return
        n1, n2 = self.n, b.size
        n = n1 + n2
        m = float(np.mean(b))
        delta = m - self.mean
        self.mean += delta * n2 / n
        self.m2 += float(np.sum((b - m) ** 2)) + delta * delta * n1 * n2 / n
        self.n = n

    def result(self, seed: int) -> McEstimate:
        if self.n < 2:
            raise ValueError("need at least 2 samples")
        var = self.m2 / (self.n - 1)
        return McEstimate(self.mean, sqrt(max(var, 0.0) / self.n), self.n, seed)


def _check_n(n: int, minimum: int, label: str) -> None:
    if n < minimum:
        raise ValueError(f"{label} needs at least {minimum} samples, got {n}")


def _sampled(n: int, seed: int, count: int, values) -> list[McEstimate]:
    """The one sampling loop: means of sampled values over `n` draws, in
    chunks of ``DEFAULT_CHUNK`` rows.

    ``values(rng, m)`` draws a chunk of `m` rows from the one generator
    ``default_rng(seed)`` of the call and returns (or yields) `count` value
    arrays, one per accumulator.  Each estimate is the count-weighted merge
    of its chunk means and carries `seed`.
    """
    rng = np.random.default_rng(seed)
    accs = [_Accumulator() for _ in range(count)]
    left = int(n)
    while left > 0:
        m = min(DEFAULT_CHUNK, left)
        for acc, v in zip(accs, values(rng, m), strict=True):
            acc.update(v)
        left -= m
    return [acc.result(seed) for acc in accs]


def mc_add_error(
    table: ComponentTable,
    order: int | Sequence[int],
    n: int = 100_000,
    seed: int = 0,
) -> McEstimate | list[McEstimate]:
    """Sampled mean-square error of the S-variate integration-based surrogate.

    Points and target values come from ``table.problem``, and the
    surrogate is the ADD `table` interpolated at the sampled (off-grid)
    points.  `order` is one truncation order, which returns one estimate,
    or a sequence of them, which returns one estimate per entry.  All
    orders share every draw, the target values and one pass over the
    components (see :meth:`ComponentTable.truncated_sums`), and each
    estimate is bit-for-bit what a single-order call with the same seed
    gives.  Orders are checked before any draw.
    """
    _check_n(n, MIN_SAMPLES, "mc_add_error")
    single = isinstance(order, Integral)
    orders = _check_orders((order,) if single else order, table.dim)
    problem = table.problem

    def squared_gaps(rng, m):
        X = problem.measure.sample(rng, m)
        y = problem.evaluate(X)
        return ((y - t) ** 2 for t in table.truncated_sums(orders, X))

    ests = _sampled(n, seed, len(orders), squared_gaps)
    return ests[0] if single else ests


def mc_rdd_error(
    problem: ProblemSpec,
    order: int,
    anchor,
    n: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Sampled mean-square error of the anchored surrogate at a fixed anchor."""
    _check_n(n, MIN_SAMPLES, "mc_rdd_error")
    _check_orders((order,), problem.dim - 1)
    c = _check_anchor(problem, anchor)

    def squared_gap(rng, m):
        X = problem.measure.sample(rng, m)
        return [(problem.evaluate(X) - rdd_direct(problem, order, c, X)) ** 2]

    return _sampled(n, seed, 1, squared_gap)[0]


def mc_expected_rdd_error(
    problem: ProblemSpec,
    order: int,
    n_pairs: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Anchored-surrogate error averaged over random anchors.

    Each pair draws a point X and an anchor C independently from the input
    measure (in that order within every chunk) and samples
    ``(y(X) - yhat_S(X; C))**2`` — the double expectation the exact budget
    ``sum_{s>S} (1 + b_S(s)) V_s`` predicts.  The single-order case of
    :func:`mc_expected_rdd_errors`.
    """
    return mc_expected_rdd_errors(problem, (order,), n_pairs, seed)[0]


def mc_expected_rdd_errors(
    problem: ProblemSpec, orders: Sequence[int], n_pairs: int, seed: int
) -> list[McEstimate]:
    """:func:`mc_expected_rdd_error` at several orders, one estimate per
    entry of `orders`.

    All orders share every draw of X and C, the target values and one
    anchored pass over the ``|u| <= max(orders)`` subsets (see
    :func:`rdd_direct_sums`), so each pair costs
    ``1 + count_up_to(N, max(orders))`` target evaluations, and each
    estimate is bit-for-bit what a single-order call with the same seed
    gives.  Orders are checked before any draw.
    """
    _check_n(n_pairs, MIN_PAIRS, "mc_expected_rdd_error")
    orders = _check_orders(orders, problem.dim - 1)

    def squared_gaps(rng, m):
        X = problem.measure.sample(rng, m)
        C = problem.measure.sample(rng, m)
        y = problem.evaluate(X)
        return ((y - r) ** 2 for r in rdd_direct_sums(problem, orders, C, X))

    return _sampled(n_pairs, seed, len(orders), squared_gaps)


def check_optimality_split(
    table: ComponentTable, orders: Sequence[int], n: int, seed: int
) -> list[CheckResult]:
    """Sampled check that the anchored surrogate never beats the
    integration-based one, two gates per entry of `orders`.

    With ``yhat`` the truncated sum of the ADD `table` and ``r`` the
    anchored surrogate at a random anchor C (both of order S), the
    projection identity ``E[(y - r)**2] = e_add + E[(yhat - r)**2]``
    splits the anchored error.  Each chunk of :func:`_sampled` draws X and
    then one anchor C per row, as :func:`mc_expected_rdd_errors` does, and
    per order streams ``(y - r)**2 - (yhat - r)**2`` and ``(yhat - r)**2``.
    Gate ``optimality_split_S{S}`` holds the first to the exact ``e_add``,
    and gate ``rdd_excess_S{S}`` the second to the exact
    ``e_rdd_expected - e_add``, at least ``(2**(S+1) - 1) * e_add``: the
    dominance of ADD and the size of the gap at once.  Each pair costs
    ``1 + count_up_to(N, max(orders))`` target evaluations, and every
    order's gates are bit-for-bit those of a single-order call.

    The sampled identity holds only where Gauss interpolation of the target
    is exact (a polynomial of degree below ``q_j`` in each coordinate
    ``j``): off the nodes the interpolated table is not the projection.
    """
    problem = table.problem
    orders = _check_orders(orders, problem.dim - 1)
    _check_n(n, MIN_PAIRS, "check_optimality_split")
    vmap = variance_components(table)
    budgets = [rdd_expected_error(s, vmap) for s in orders]

    def split_and_excess(rng, m):
        X = problem.measure.sample(rng, m)
        C = problem.measure.sample(rng, m)
        y = problem.evaluate(X)
        yhats = table.truncated_sums(orders, X)
        for yhat, r in zip(yhats, rdd_direct_sums(problem, orders, C, X)):
            excess = (yhat - r) ** 2
            yield (y - r) ** 2 - excess
            yield excess

    ests = _sampled(n, seed, 2 * len(orders), split_and_excess)
    checks = []
    for b, split, excess in zip(budgets, ests[::2], ests[1::2]):
        checks.append(_mc_gate(f"optimality_split_S{b.order}", split, b.e_add))
        checks.append(_mc_gate(f"rdd_excess_S{b.order}", excess, b.e_rdd_expected - b.e_add))
    return checks
