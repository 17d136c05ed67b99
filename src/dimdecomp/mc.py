"""Monte Carlo estimators for truncation errors.

Every estimator here targets a quantity the analytic modules compute
exactly, so each one doubles as an end-to-end check of the whole stack:
sample a product of gaps between target and surrogate, and the mean must
land within sampling noise of the closed-form budget.

Sampling draws from the problem's product measure via
:func:`numpy.random.default_rng`; identical (seed, n) give identical
estimates.  Every estimator runs the one sampling loop, :func:`_sampled`:
samples accumulate in chunks of ``DEFAULT_CHUNK`` rows (read at call time)
through a count-weighted mean/variance merge.  A non-finite target value
raises ``ValueError`` at the draw that produced it (see
:meth:`ProblemSpec.evaluate`).

The anchor-averaged estimators share one draw body, :func:`_anchor_averaged`,
built on the anchor average of the operator form, ``yhat_S(X) = E_C[r(X;
C)]`` with ``r`` the S-variate anchored surrogate (Kuo, Sloan, Wasilkowski
& Wozniakowski, *Math. Comp.* 2010).  Given X, the surrogates ``r_i = r(X;
C_i)`` at independent anchors are i.i.d. with mean ``yhat_S(X)``, so
``E[(y - r1) * (y - r2)] = e_add``, ``E[((y - r1)**2 + (y - r2)**2) / 2]
= e_rdd_expected`` and ``E[(r1 - r2)**2 / 2] = e_rdd_expected - e_add``:
two anchors price all three budgets, and no estimator builds a grid or
interpolates a table.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np

from dimdecomp.decomp import CheckResult, ProblemSpec, _check_anchor, rdd_direct, rdd_direct_sums
from dimdecomp.errors import ErrorBudget
from dimdecomp.measures import _check_integer
from dimdecomp.subsets import _check_orders

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


def _mc_gate(kind: str, order: int, est: McEstimate, target: float) -> CheckResult:
    """A sampled estimate against its analytic target, gated at 3 standard
    errors (:meth:`McEstimate.within`), named ``mc_gate_{kind}_S{order}``."""
    return CheckResult(
        f"mc_gate_{kind}_S{order}",
        abs(est.mean - target),
        3.0 * est.std_error,
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
        dev = b - m
        self.m2 += float(np.sum(np.square(dev, out=dev))) + delta * delta * n1 * n2 / n
        self.n = n

    def result(self, seed: int) -> McEstimate:
        if self.n < 2:
            raise ValueError("need at least 2 samples")
        var = self.m2 / (self.n - 1)
        return McEstimate(self.mean, sqrt(max(var, 0.0) / self.n), self.n, seed)


def _check_draws(n, seed, minimum: int, label: str, name: str) -> tuple[int, int]:
    """The sample count (the caller's parameter `name`) and the seed as
    ints, checked before any draw: numpy integers pass, while ``bool``,
    strings and non-integers raise ``ValueError`` naming the parameter
    instead of being truncated; a count below `minimum` raises too."""
    n = _check_integer(n, name)
    if n < minimum:
        raise ValueError(f"{label} needs at least {minimum} samples, got {n}")
    return n, _check_integer(seed, "seed")


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
    left = n
    while left > 0:
        m = min(DEFAULT_CHUNK, left)
        for acc, v in zip(accs, values(rng, m), strict=True):
            acc.update(v)
        left -= m
    return [acc.result(seed) for acc in accs]


def _anchor_averaged(
    problem: ProblemSpec,
    orders: tuple[int, ...],
    n: int,
    seed: int,
    k: int,
    statistics,
    per_order: int = 1,
) -> list[McEstimate]:
    """The one draw body of the anchor-averaged estimators, run by :func:`_sampled`.

    Each chunk draws its points X, evaluates ``y(X)`` once, then draws `k`
    anchor batches in turn, each just before its anchored pass ``r_i =
    rdd_direct_sums(problem, orders, C_i, X)``, so a chunk holds X and one
    anchor batch.  Per order, ``statistics(y, r_1, ..., r_k)`` yields
    `per_order` value arrays, each taken up before the next is formed, so
    it may reuse its own arrays in place but never `y` or the ``r_i``;
    estimates come order by order, in the order yielded.  A point costs
    ``1 + k * count_up_to(N, max(orders))`` target rows, and each order's
    estimates are bit-for-bit those of a single-order call with the same
    seed.
    """

    def values(rng, m):
        X = problem.measure.sample(rng, m)
        y = problem.evaluate(X)
        passes = [
            rdd_direct_sums(problem, orders, problem.measure.sample(rng, m), X)
            for _ in range(k)
        ]
        for r in zip(*passes):
            yield from statistics(y, *r)

    return _sampled(n, seed, len(orders) * per_order, values)


def _squared_gap(y, r):
    """``(y - r)**2``, squared in place."""
    gap = y - r
    yield np.square(gap, out=gap)


def _split(y, r1, r2):
    """The one statistics body of the two-anchor draw, the three of
    :func:`check_optimality_split` from ``y - r1``, ``y - r2`` and ``r1 -
    r2``, each formed once: ``(y - r1) * (y - r2)`` (all that
    :func:`mc_add_error` keeps), then ``((y - r1)**2 + (y - r2)**2) / 2``
    and ``(r1 - r2)**2 / 2`` in place, the same operations in the same
    order as the written-out forms."""
    a, b = y - r1, y - r2
    yield a * b
    np.square(a, out=a)
    a += np.square(b, out=b)
    a /= 2
    yield a
    d = r1 - r2
    np.square(d, out=d)
    d /= 2
    yield d


def mc_add_error(
    problem: ProblemSpec,
    order: int,
    n: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Sampled mean-square error of the S-variate integration-based surrogate.

    Samples ``(y - r1) * (y - r2)``, ``r_i`` the anchored surrogate at an
    independent random anchor (see :func:`_anchor_averaged`): given X its
    mean is ``(y - yhat_S)**2``, so the estimate is unbiased for ``e_add``.
    A point costs ``1 + 2 * count_up_to(N, S)`` target evaluations.  The
    one integer `order`, `n` and `seed` are checked before any draw.
    """
    n, seed = _check_draws(n, seed, MIN_SAMPLES, "mc_add_error", "n")
    orders = _check_orders((order,), problem.dim - 1)
    return _anchor_averaged(problem, orders, n, seed, 2, _split, 3)[0]


def mc_rdd_error(
    problem: ProblemSpec,
    order: int,
    anchor,
    n: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Sampled mean-square error of the anchored surrogate at a fixed anchor."""
    n, seed = _check_draws(n, seed, MIN_SAMPLES, "mc_rdd_error", "n")
    _check_orders((order,), problem.dim - 1)
    c = _check_anchor(problem, anchor)

    def squared_gap(rng, m):
        X = problem.measure.sample(rng, m)
        return _squared_gap(problem.evaluate(X), rdd_direct(problem, order, c, X))

    return _sampled(n, seed, 1, squared_gap)[0]


def mc_expected_rdd_error(
    problem: ProblemSpec,
    order: int,
    n_pairs: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Anchored-surrogate error averaged over random anchors.

    The one-anchor case of :func:`_anchor_averaged`: each pair draws a
    point X and an anchor C independently from the input measure (in that
    order within every chunk) and samples ``(y(X) - yhat_S(X; C))**2`` —
    the double expectation the exact budget ``sum_{s>S} (1 + b_S(s)) V_s``
    predicts.  A pair costs ``1 + count_up_to(N, S)`` target evaluations.
    The one integer `order`, `n_pairs` and `seed` are checked before any
    draw.
    """
    n_pairs, seed = _check_draws(n_pairs, seed, MIN_PAIRS, "mc_expected_rdd_error", "n_pairs")
    orders = _check_orders((order,), problem.dim - 1)
    return _anchor_averaged(problem, orders, n_pairs, seed, 1, _squared_gap)[0]


def check_optimality_split(
    problem: ProblemSpec, budgets: Sequence[ErrorBudget], n: int, seed: int
) -> list[CheckResult]:
    """The sampled gates of the exact `budgets`, three per budget, from one
    two-anchor draw.

    With ``r1``, ``r2`` the anchored surrogates of order S at two
    independent anchors (see :func:`_anchor_averaged`), gate
    ``mc_gate_add_S{S}`` holds the mean of ``(y - r1) * (y - r2)`` to
    ``e_add``, ``mc_gate_rdd_S{S}`` that of ``((y - r1)**2 + (y - r2)**2) /
    2`` to ``e_rdd_expected``, and ``mc_gate_excess_S{S}`` that of ``(r1 -
    r2)**2 / 2`` to ``e_rdd_expected - e_add``, at least ``(2**(S+1) - 1) *
    e_add``: the least error of ADD and the size of the gap at once.  Per
    sample the rdd value is the add value plus the excess one.  Each add
    gate is bit-for-bit :func:`mc_add_error` at its order with the same `n`
    and `seed`.  The budgets supply only the targets, so no grid is needed;
    they must be a nonempty sequence of :class:`ErrorBudget` of distinct
    orders in ``[0, dim - 1]`` and of the problem's dimension, checked
    with `n` and `seed` before any draw.  A point costs ``1 + 2 *
    count_up_to(N, S_max)`` target evaluations.
    """
    if not isinstance(budgets, Sequence) or not all(isinstance(b, ErrorBudget) for b in budgets):
        raise ValueError(f"budgets must be a sequence of ErrorBudget, got {budgets!r}")
    orders = _check_orders([b.order for b in budgets], problem.dim - 1)
    if len(set(orders)) < len(orders):
        raise ValueError(f"budget orders must be distinct, got {list(orders)}")
    for b in budgets:
        if max(b.per_cardinality, default=0) != problem.dim:
            raise ValueError(f"budget of order {b.order} is not of dimension {problem.dim}")
    n, seed = _check_draws(n, seed, MIN_PAIRS, "check_optimality_split", "n")
    ests = _anchor_averaged(problem, orders, n, seed, 2, _split, 3)
    checks = []
    for b, add, rdd, excess in zip(budgets, ests[::3], ests[1::3], ests[2::3]):
        checks.append(_mc_gate("add", b.order, add, b.e_add))
        checks.append(_mc_gate("rdd", b.order, rdd, b.e_rdd_expected))
        checks.append(_mc_gate("excess", b.order, excess, b.e_rdd_expected - b.e_add))
    return checks
