"""Seeded workloads of the dimdecomp benchmark.

A workload is a fixed list of tasks built from the workload seed; the
benchmark runs that list over and over in one closed loop.  Each task is one
unit of program work (the timed part) plus a check of its answer against an
exact value.  Where a closed form exists the exact value is computed here,
independently of the code under test:

* ``product_linear`` ``y = prod_i (1 + a_i x_i)`` on ``U(-1, 1)^N`` has
  component variances ``prod_{j in u} a_j^2 / 3``, so the per-cardinality
  sums are the elementary symmetric polynomials ``V_s = e_s(a^2 / 3)``.
* ``sobol_g`` is a product of univariate factors too, so on the Gauss grid
  its discrete-measure sums are ``prod_j mu_j^2 * e_s(v_j / mu_j^2)`` with
  ``mu_j`` and ``v_j`` the one-dimensional Gauss mean and variance.
* The anchored error of a product function at one (point, anchor) pair is
  the degree ``> S`` part of ``prod_j (alpha_j + t beta_j)`` with
  ``alpha_j = 1 + a_j c_j`` and ``beta_j = a_j (x_j - c_j)``; replaying the
  estimator's draws gives its sample mean exactly.

Monte Carlo 3-sigma gates are recorded per task as a z-score.  A gate miss
is not a task failure: the replay above already proves the sample mean
exact, and on heavy-tailed shapes the sampled standard error understates
the spread (see README.md).
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import dimdecomp as dd
from dimdecomp import cli
from dimdecomp.mc import DEFAULT_CHUNK

REL_TOL = 1e-9  # agreement with an exact value, relative
BOUND_SLACK = 1e-12  # relative slack on the exact pinch lower <= e_rdd <= upper

# Coefficients of product_linear are drawn from U(0.5, 1.0): the range spans
# the two settings (a = 0.5 and a = 1) at which the anchored MC gate was first
# seen to miss at N = 20.
LINEAR_COEFF = (0.5, 1.0)
# sobol_g coefficients from U(0, 5) cover its default a_i = i at N = 6.
SOBOL_G_COEFF = (0.0, 5.0)


@dataclass
class Verdict:
    """Outcome of one task's checks."""

    problems: list[str] = field(default_factory=list)
    z: float | None = None  # largest |z| of the task's MC gates, if any
    gate_misses: int = 0


@dataclass
class Task:
    shape: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


def elementary_symmetric(values) -> list[float]:
    """``[e_0, e_1, ..., e_n]`` of the given values."""
    e = [1.0] + [0.0] * len(values)
    for v in values:
        for k in range(len(e) - 1, 0, -1):
            e[k] += v * e[k - 1]
    return e


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _coeffs(seed: int, shape_index: int, n: int, bounds) -> list[float]:
    rng = np.random.default_rng([seed, shape_index])
    return rng.uniform(*bounds, size=n).tolist()


def _mc_seed(seed: int, shape_index: int) -> int:
    return int(np.random.default_rng([seed, shape_index, 1]).integers(2**31))


# -- add_grid ---------------------------------------------------------------

ADD_SHAPES = (("product_linear", 6, 10), ("sobol_g", 6, 10), ("product_linear", 10, 3))


def _exact_cardinality_sums(name: str, a: list[float], q: int) -> list[float]:
    """Exact ``V_s`` (index s) on the q-point Gauss grid of the default measure."""
    if name == "product_linear":
        # Gauss with q >= 2 nodes is exact for the quadratic integrands here.
        return elementary_symmetric([aj * aj / 3.0 for aj in a])
    x, w = np.polynomial.legendre.leggauss(q)
    t, w = 0.5 * (x + 1.0), 0.5 * w  # Gauss-Legendre on [0, 1]
    mu2, ratios = 1.0, []
    for aj in a:
        g = (np.abs(4.0 * t - 2.0) + aj) / (1.0 + aj)
        mu = float(w @ g)
        var = float(w @ (g * g)) - mu * mu
        mu2 *= mu * mu
        ratios.append(var / (mu * mu))
    return [mu2 * e for e in elementary_symmetric(ratios)]


def _add_task(index: int, seed: int, name: str, N: int, q: int) -> Task:
    marginal = dd.default_marginal(name)
    bounds = LINEAR_COEFF if name == "product_linear" else SOBOL_G_COEFF
    a = _coeffs(seed, index, N, bounds)
    measure = dd.ProductMeasure.iid(marginal, N)
    exact = _exact_cardinality_sums(name, a, q)
    dd.ProblemSpec(dd.make_function(name, N, a=a), measure, q).rules  # warm Gauss rules

    def run():
        problem = dd.ProblemSpec(dd.make_function(name, N, a=a), measure, q)
        table = dd.build_add(problem)
        vmap = dd.variance_components(table)
        checks = dd.check_add_structure(table)
        budgets = [dd.rdd_expected_error(S, vmap) for S in range(N)]
        return vmap, checks, budgets

    def check(out) -> Verdict:
        vmap, checks, budgets = out
        v = Verdict()
        got = vmap.cardinality_sums()
        for s in range(1, N + 1):
            if _rel(got.get(s, 0.0), exact[s]) > REL_TOL:
                v.problems.append(f"V_{s} = {got.get(s, 0.0)!r}, exact {exact[s]!r}")
        v.problems += [f"structure check {c.name} failed" for c in checks if not c.passed]
        for b in budgets:
            tail = math.fsum(exact[b.order + 1 :])
            if _rel(b.e_add, tail) > REL_TOL:
                v.problems.append(f"e_add(S={b.order}) = {b.e_add!r}, exact {tail!r}")
            if not b.lower * (1 - BOUND_SLACK) <= b.e_rdd_expected <= b.upper * (1 + BOUND_SLACK):
                v.problems.append(f"e_rdd(S={b.order}) outside its exact pinch")
        return v

    return Task(f"{name} N={N} q={q}", run, check)


# -- rdd_mc -----------------------------------------------------------------

RDD_SHAPES = ((6, 3, 100_000), (10, 3, 50_000), (20, 2, 20_000))


@dataclass
class _Replay:
    """Exact sample mean of the anchored error over the estimator's own draws."""

    a: np.ndarray
    order: int
    n_pairs: int
    mc_seed: int

    @cached_property
    def mean(self) -> float:
        # mc_expected_rdd_error draws X then C per chunk, each column by
        # column from U(-1, 1); one chunk covers n_pairs <= DEFAULT_CHUNK.
        N, n = len(self.a), self.n_pairs
        rng = np.random.default_rng(self.mc_seed)
        X = np.column_stack([rng.uniform(-1.0, 1.0, size=n) for _ in range(N)])
        C = np.column_stack([rng.uniform(-1.0, 1.0, size=n) for _ in range(N)])
        alpha, beta = 1.0 + self.a * C, self.a * (X - C)
        P = np.zeros((n, N + 1))
        P[:, 0] = 1.0
        for j in range(N):
            P[:, 1:] = alpha[:, j, None] * P[:, 1:] + beta[:, j, None] * P[:, :-1]
            P[:, 0] *= alpha[:, j]
        gap = P[:, self.order + 1 :].sum(axis=1)
        return float(np.mean(gap * gap))


def _rdd_task(index: int, seed: int, N: int, S: int, n_pairs: int) -> Task:
    if n_pairs > DEFAULT_CHUNK:
        raise ValueError("the exact replay assumes a single sampling chunk")
    a = _coeffs(seed, index, N, LINEAR_COEFF)
    mc_seed = _mc_seed(seed, index)
    measure = dd.ProductMeasure.iid(dd.default_marginal("product_linear"), N)
    sums = elementary_symmetric([aj * aj / 3.0 for aj in a])
    target = dd.rdd_expected_error(
        S, dd.CardinalitySums(N, {s: sums[s] for s in range(1, N + 1)})
    ).e_rdd_expected
    replay = _Replay(np.asarray(a), S, n_pairs, mc_seed)

    def run():
        problem = dd.ProblemSpec(dd.make_function("product_linear", N, a=a), measure)
        return dd.mc_expected_rdd_error(problem, S, n_pairs, mc_seed)

    def check(est) -> Verdict:
        v = Verdict(z=abs(est.mean - target) / est.std_error)
        v.gate_misses = 0 if est.within(target) else 1
        if est.n != n_pairs:
            v.problems.append(f"estimate used {est.n} pairs, asked for {n_pairs}")
        if _rel(est.mean, replay.mean) > REL_TOL:
            v.problems.append(f"sample mean {est.mean!r}, exact replay {replay.mean!r}")
        return v

    return Task(f"N={N} S={S} pairs={n_pairs}", run, check)


# -- cli_report ---------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _cli_task(command: str, workdir: Path, config: dict | None, check_outputs) -> Task:
    out = workdir / command
    argv = [command, "--out", str(out)]
    if config is not None:
        path = workdir / f"{command}.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out.mkdir(parents=True, exist_ok=True)

    def run():
        for old in out.iterdir():  # a stale file must not pass a check
            old.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        return rc, stderr.getvalue()

    def check(result) -> Verdict:
        rc, stderr = result
        v = Verdict()
        try:
            check_outputs(rc, out, v)
        except (OSError, KeyError, ValueError) as exc:
            v.problems.append(f"unreadable output: {exc!r}")
        if v.problems and stderr:
            v.problems.append(f"stderr: {stderr.strip()[-300:]}")
        return v

    return Task(command, run, check)


def _linear_config(a: list[float], q: int, **extra) -> dict:
    return {
        "function": {"name": "product_linear", "a": a},
        "dim": len(a),
        "quad_order": q,
        **extra,
    }


def _expect_ok(rc: int, v: Verdict) -> None:
    if rc != 0:
        v.problems.append(f"exit code {rc}")


def _decompose_task(seed: int, workdir: Path) -> Task:
    a = _coeffs(seed, 0, 6, LINEAR_COEFF)

    def check_outputs(rc, out, v):
        _expect_ok(rc, v)
        if not json.loads((out / "properties.json").read_text())["passed"]:
            v.problems.append("properties.json reports a failed check")
        rows = _read_csv(out / "components.csv")
        if len(rows) != 2 ** len(a) - 1:
            v.problems.append(f"components.csv has {len(rows)} rows")
        for row in rows:
            idx = [int(i) - 1 for i in row["subset"].strip("[]").split(",")]
            want = math.prod(a[j] ** 2 / 3.0 for j in idx)
            if _rel(float(row["sigma2"]), want) > REL_TOL:
                v.problems.append(f"sigma2{row['subset']} = {row['sigma2']}, exact {want!r}")

    return _cli_task("decompose", workdir, _linear_config(a, 10), check_outputs)


def _errors_task(seed: int, workdir: Path) -> Task:
    a = _coeffs(seed, 1, 6, LINEAR_COEFF)
    N = len(a)
    sums = elementary_symmetric([aj * aj / 3.0 for aj in a])
    exact = dd.CardinalitySums(N, {s: sums[s] for s in range(1, N + 1)})

    def check_outputs(rc, out, v):
        _expect_ok(rc, v)
        rows = _read_csv(out / "errors.csv")
        if [int(r["order"]) for r in rows] != list(range(N)):
            v.problems.append("errors.csv does not list every order 0..N-1")
        for r in rows:
            S = int(r["order"])
            want = dd.rdd_expected_error(S, exact)
            if _rel(float(r["e_add"]), math.fsum(sums[S + 1 :])) > REL_TOL:
                v.problems.append(f"e_add(S={S}) = {r['e_add']}")
            if _rel(float(r["e_rdd_expected"]), want.e_rdd_expected) > REL_TOL:
                v.problems.append(f"e_rdd_expected(S={S}) = {r['e_rdd_expected']}")

    return _cli_task("errors", workdir, _linear_config(a, 10), check_outputs)


def _verify_task(seed: int, workdir: Path) -> Task:
    a = _coeffs(seed, 2, 5, LINEAR_COEFF)
    mc = {"n_samples": 100_000, "seed": _mc_seed(seed, 2)}

    def check_outputs(rc, out, v):
        report = json.loads((out / "verify_report.json").read_text())
        gates = [c for c in report["checks"] if c["name"].startswith("mc_gate_")]
        # tolerance is 3 standard errors, so z = 3 * residual / tolerance
        v.z = max((3.0 * c["residual"] / c["tolerance"] for c in gates), default=None)
        v.gate_misses = sum(not c["passed"] for c in gates)
        exact_failed = [
            c["name"] for c in report["checks"]
            if not c["passed"] and not c["name"].startswith("mc_gate_")
        ]
        if exact_failed:
            v.problems.append(f"failed checks: {', '.join(exact_failed)}")
        if not gates:
            v.problems.append("verify_report.json has no MC gates")
        # exit code 2 means "a check failed"; a gate miss alone is tolerated
        if rc != 0 and not (rc == 2 and v.gate_misses and not exact_failed):
            v.problems.append(f"exit code {rc}")
        if rc == 0 and not report["passed"]:
            v.problems.append("exit code 0 but verify_report.json says passed: false")

    return _cli_task("verify", workdir, _linear_config(a, 6, mc=mc), check_outputs)


def _pmin_residual(p: float, N: int) -> float:
    """Relative residual of the threshold condition
    ``2/p = (N-1) (1 + 1/p)**N / (1 + p)**2`` at rate p."""
    rhs = (N - 1) * math.exp(N * math.log1p(1.0 / p)) / (1.0 + p) ** 2
    return abs(rhs - 2.0 / p) / (2.0 / p)


def _figure1_task(seed: int, workdir: Path) -> Task:
    rng = np.random.default_rng([seed, 3])
    rates = sorted(rng.uniform(2.0, 60.0, size=2).tolist())
    n_min, n_max, right_dim = 3, 100, 100
    pmin = {}

    def check_outputs(rc, out, v):
        _expect_ok(rc, v)
        left = _read_csv(out / "figure1_left.csv")
        if [int(r["dim"]) for r in left] != list(range(n_min, n_max + 1)):
            v.problems.append("figure1_left.csv does not list every dimension")
        for r in left:
            N = int(r["dim"])
            if N not in pmin:
                pmin[N] = dd.pmin_for_N(N)
            if r["p_min"] != f"{pmin[N]:.12g}":
                v.problems.append(f"p_min({N}) = {r['p_min']}, pmin_for_N gives {pmin[N]:.12g}")
            # 12 printed digits move the residual by ~N * 1e-12
            if _pmin_residual(float(r["p_min"]), N) > 1e-8:
                v.problems.append(f"p_min({N}) = {r['p_min']} misses the threshold condition")
        right = _read_csv(out / "figure1_right.csv")
        if len(right) != len(rates) * right_dim:
            v.problems.append(f"figure1_right.csv has {len(right)} rows")
        for r in right:
            p, S = float(r["rate"]), int(r["order"])
            terms = [math.comb(right_dim, s) * p**-s for s in range(right_dim + 1)]
            want = math.fsum(terms[S + 1 :]) / math.expm1(right_dim * math.log1p(1.0 / p))
            if _rel(float(r["e_add_normalized"]), want) > REL_TOL:
                v.problems.append(f"e_add_normalized(p={r['rate']}, S={S}) = {r['e_add_normalized']}")

    config = {"figure1": {"n_min": n_min, "n_max": n_max, "right_dim": right_dim, "rates": rates}}
    return _cli_task("figure1", workdir, config, check_outputs)


def _contrived_task(workdir: Path) -> Task:
    def check_outputs(rc, out, v):
        _expect_ok(rc, v)
        rep = json.loads((out / "contrived.json").read_text())
        if rep["inversion"] is not True:
            v.problems.append("contrived.json does not report the inversion")
        if not rep["e_rdd_order2"] > rep["e_rdd_order1"]:
            v.problems.append("anchored budget does not grow from order 1 to 2")
        for key in ("e_add_order1", "e_add_order2"):
            # only the full 100-way interaction (share 1 - 0.999) lies above S = 1, 2
            if _rel(rep[key], 1.0 - 0.999) > REL_TOL:
                v.problems.append(f"{key} = {rep[key]!r}, exact 0.001")

    return _cli_task("contrived", workdir, None, check_outputs)


# -- registry -------------------------------------------------------------------

WORKLOADS = ("add_grid", "rdd_mc", "cli_report")

# Seconds per pass over each task list on the reference machine (2 cores,
# Python 3.11, numpy 2.4, one BLAS thread); sets how many passes a run makes.
NOMINAL_PASS_S = {"add_grid": 2.5, "rdd_mc": 1.7, "cli_report": 6.0}


def build(workload: str, seed: int, workdir: Path) -> list[Task]:
    """The fixed task list of `workload`: one task per shape, in cycle order."""
    if workload == "add_grid":
        return [_add_task(i, seed, *shape) for i, shape in enumerate(ADD_SHAPES)]
    if workload == "rdd_mc":
        return [_rdd_task(i, seed, *shape) for i, shape in enumerate(RDD_SHAPES)]
    if workload == "cli_report":
        return [
            _decompose_task(seed, workdir),
            _errors_task(seed, workdir),
            _verify_task(seed, workdir),
            _figure1_task(seed, workdir),
            _contrived_task(workdir),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
