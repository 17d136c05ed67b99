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
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from numbers import Integral
from typing import Sequence

import numpy as np

from dimdecomp.decomp import (
    ComponentTable,
    ProblemSpec,
    _check_anchor,
    rdd_direct,
    rdd_direct_sums,
)
from dimdecomp.errors import add_error
from dimdecomp.subsets import _check_orders, all_subsets_up_to
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


def worker_seed(base_seed: int, worker_index: int) -> int:
    """Seed of independent stream `worker_index`: ``base_seed + worker_index``."""
    if worker_index < 0:
        raise ValueError("worker index must be nonnegative")
    return int(base_seed) + int(worker_index)


def _check_n(n: int, minimum: int, label: str) -> None:
    if n < minimum:
        raise ValueError(f"{label} needs at least {minimum} samples, got {n}")


def _sampled(
    n: int, rng: np.random.Generator, seed: int, count: int, values
) -> list[McEstimate]:
    """The one sampling loop: means of sampled values over `n` draws, in
    chunks of ``DEFAULT_CHUNK`` rows.

    ``values(rng, m)`` draws a chunk of `m` rows from the caller's
    generator `rng` and returns (or yields) `count` value arrays, one per
    accumulator — the squared gaps of the estimators here.  Each estimate
    is the count-weighted merge of its chunk means and carries `seed`.
    """
    accs = [_Accumulator() for _ in range(count)]
    left = int(n)
    while left > 0:
        m = min(DEFAULT_CHUNK, left)
        for acc, v in zip(accs, values(rng, m), strict=True):
            acc.update(v)
        left -= m
    return [acc.result(seed) for acc in accs]


def mc_add_error(
    problem: ProblemSpec,
    table: ComponentTable,
    order: int | Sequence[int],
    n: int = 100_000,
    seed: int = 0,
) -> McEstimate | list[McEstimate]:
    """Sampled mean-square error of the S-variate integration-based surrogate.

    `table` is an ADD table of `problem`; the surrogate is interpolated at
    the sampled (off-grid) points.  `order` is one truncation order, which
    returns one estimate, or a sequence of them, which returns one estimate
    per entry.  All orders share every draw, the target values and one pass
    over the components (see :meth:`ComponentTable.truncated_sums`), and
    each estimate is bit-for-bit what a single-order call with the same
    seed gives.  Orders are checked before any draw.
    """
    _check_n(n, MIN_SAMPLES, "mc_add_error")
    single = isinstance(order, Integral)
    orders = _check_orders((order,) if single else order, table.dim)

    def squared_gaps(rng, m):
        X = problem.measure.sample(rng, m)
        y = problem.evaluate(X)
        return ((y - t) ** 2 for t in table.truncated_sums(orders, X))

    ests = _sampled(n, np.random.default_rng(seed), seed, len(orders), squared_gaps)
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

    return _sampled(n, np.random.default_rng(seed), seed, 1, squared_gap)[0]


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

    return _sampled(n_pairs, np.random.default_rng(seed), seed, len(orders), squared_gaps)


@dataclass(frozen=True)
class PerturbationProbe:
    """One perturbed surrogate measured against the unperturbed optimum."""

    error: McEstimate  # E[(y - y_perturbed)^2]
    excess: McEstimate  # E[(y_best - y_perturbed)^2]
    split_gap: float  # mean of (error - excess) minus the exact e_add
    split_se: float
    dominates: bool
    split_holds: bool


@dataclass(frozen=True)
class OptimalityReport:
    """Evidence that no same-order surrogate beats the integration-based one.

    For every probe, the measured error of the perturbed surrogate must
    stay above the exact optimum ``e_add`` (within 3 combined standard
    errors), and the error must split additively as
    ``E[(y - y_pert)^2] = e_add + E[(y_best - y_pert)^2]`` — orthogonality
    in sampled form.
    """

    order: int
    e_add: float
    probes: tuple[PerturbationProbe, ...]
    all_dominate: bool
    all_split_hold: bool


def optimality_probe(
    problem: ProblemSpec,
    table: ComponentTable,
    order: int,
    n_perturbations: int = 20,
    seed: int = 0,
    *,
    n_samples: int = 20_000,
    amplitude: float = 0.25,
) -> OptimalityReport:
    """Probe mean-square optimality of the S-variate truncation.

    Each probe adds independent uniform perturbations (bounded by
    `amplitude` times the table scale) to every stored component with
    ``|u| <= S`` — including the constant — and samples both the error of
    the perturbed surrogate and its excess over the unperturbed one.
    Probe ``k`` draws from a generator seeded ``worker_seed(seed, k)``:
    its perturbations first, then the sample chunks of :func:`_sampled`.
    With ``amplitude = 0`` the perturbed surrogate *is* the optimum and the
    excess is identically zero.
    """
    (order,) = _check_orders((order,), table.dim - 1)
    if n_perturbations < 1:
        raise ValueError("need at least one perturbation")
    _check_n(n_samples, MIN_SAMPLES, "optimality_probe")
    e_add = add_error(order, variance_components(table))
    nonempty = [u for u in all_subsets_up_to(table.dim, order) if not u.is_empty]
    bound = amplitude * table.scale
    probes = []
    for k in range(n_perturbations):
        rng = np.random.default_rng(worker_seed(seed, k))
        delta0 = float(rng.uniform(-bound, bound)) if bound > 0.0 else 0.0
        deltas = {
            u.mask: rng.uniform(-bound, bound, size=np.shape(table.grid_values(u)))
            for u in nonempty
        }

        def error_excess_split(rng, m):
            X = problem.measure.sample(rng, m)
            y = problem.evaluate(X)
            y_best = table.truncated(order, X)
            shift = table._interpolated_sums(deltas, delta0, (order,), X)[order]
            err = (y - y_best - shift) ** 2
            exc = shift**2
            return err, exc, err - exc

        err_est, exc_est, split = _sampled(n_samples, rng, seed, 3, error_excess_split)
        dominates = err_est.mean >= e_add - 3.0 * err_est.std_error
        split_holds = abs(split.mean - e_add) <= 3.0 * split.std_error
        probes.append(
            PerturbationProbe(
                error=err_est,
                excess=exc_est,
                split_gap=split.mean - e_add,
                split_se=split.std_error,
                dominates=dominates,
                split_holds=split_holds,
            )
        )
    return OptimalityReport(
        order=order,
        e_add=e_add,
        probes=tuple(probes),
        all_dominate=all(p.dominates for p in probes),
        all_split_hold=all(p.split_holds for p in probes),
    )
