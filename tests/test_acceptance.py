"""End-to-end acceptance battery.

Each test exercises one headline guarantee of the package at its stated
tolerance and reports a single ``[acceptance] <name>: PASS/FAIL`` line
(shown in the terminal summary, or inline with ``-s``).  Monte Carlo
gates run at fixed seeds, so outcomes are reproducible.
"""
from __future__ import annotations

import csv
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dimdecomp import (
    CardinalitySums,
    add_error,
    build_add,
    build_rdd,
    check_add_structure,
    check_form_equivalence,
    check_optimality_split,
    check_rdd_on_grid,
    check_rdd_structure,
    coeff_b,
    contrived_example,
    dim_for_pmin,
    error_bounds,
    mc_add_error,
    mc_expected_rdd_error,
    pmin_for_N,
    rdd_expected_error,
    variance_components,
)
from dimdecomp.cli import main
from tests.conftest import (
    ishigami_problem,
    poly_problem,
    product_linear_problem,
    sobol_g_problem,
)


def test_c01_coefficient_closed_forms(criterion):
    with criterion("c01_coefficient_closed_forms"):
        for s in range(31):
            assert coeff_b(1, s) == s * s - s + 1
            num = s**4 - 2 * s**3 - s**2 + 2 * s + 4
            assert num % 4 == 0 and coeff_b(2, s) == num // 4
        for order in range(16):
            for s in range(order + 1):
                assert coeff_b(order, s) == 1
        for order in range(21):
            assert 1 + coeff_b(order, order + 1) == 2 ** (order + 1)


def test_c02_zero_order_expected_error(criterion, plin3, plin3_vmap):
    with criterion("c02_zero_order_expected_error"):
        t0 = time.perf_counter()
        target = 74.0 / 27.0
        budget = rdd_expected_error(0, plin3_vmap)
        assert budget.e_rdd_expected == pytest.approx(
            2.0 * plin3_vmap.total, rel=1e-12
        )
        assert budget.e_rdd_expected == pytest.approx(target, rel=1e-12)
        est = mc_expected_rdd_error(plin3, 0, n_pairs=1_000_000, seed=42)
        assert est.within(target)
        assert time.perf_counter() - t0 <= 30.0


def test_c03_expected_error_vs_sampling(criterion, plin_vmaps):
    with criterion("c03_expected_error_vs_sampling"):
        t0 = time.perf_counter()
        pinned = rdd_expected_error(1, plin_vmaps[3]).e_rdd_expected
        assert pinned == pytest.approx(44.0 / 27.0, rel=1e-12)
        for dim in (3, 4, 5, 6):
            problem = product_linear_problem(dim)
            vmap = plin_vmaps[dim]
            for order in range(dim):
                analytic = rdd_expected_error(order, vmap).e_rdd_expected
                est = mc_expected_rdd_error(
                    problem,
                    order,
                    n_pairs=1_000_000,
                    seed=1000 + 10 * dim + order,
                )
                assert est.within(analytic), (dim, order, analytic, est)
        assert time.perf_counter() - t0 <= 300.0


def test_c04_integration_error_sampling(criterion, plin3, plin3_vmap, plin4, plin4_vmap):
    with criterion("c04_integration_error_sampling"):
        pinned = add_error(1, plin3_vmap)
        assert pinned == pytest.approx(10.0 / 27.0, rel=1e-12)
        est = mc_add_error(plin3, 1, n=1_000_000, seed=42)
        assert est.within(pinned)
        for problem, vmap in ((plin3, plin3_vmap), (plin4, plin4_vmap)):
            for order in range(problem.dim):
                analytic = add_error(order, vmap)
                est = mc_add_error(problem, order, n=200_000, seed=2000 + order)
                assert est.within(analytic), (problem.dim, order, analytic, est)


def _battery_problems():
    for dim in (2, 3, 4, 5):
        yield product_linear_problem(dim, quad_order=8), 0.1
        yield sobol_g_problem(dim, quad_order=8), 0.37
    yield ishigami_problem(), 0.3
    yield poly_problem(4), -0.2


def test_c05_structure_battery(criterion):
    with criterion("c05_structure_battery"):
        for problem, fill in _battery_problems():
            table = build_add(problem)
            anchor = np.full(problem.dim, fill)
            rdd = build_rdd(problem, anchor)
            # stated tolerances: absolute residuals scale with the output
            # magnitude (squared for the pairwise inner products), the
            # exactness checks are relative
            stated = {
                "add_zero_mean": 1e-10 * table.scale,
                "add_orthogonality": 1e-10 * table.scale**2,
                "add_grid_exactness": 1e-10,
                "rdd_full_sum_exactness": 1e-10,
                "rdd_grid_agreement": 1e-10,
            }
            for c in [
                *check_add_structure(table),
                *check_rdd_structure(rdd, seed=5),
                check_rdd_on_grid(table, seed=5),
            ]:
                assert c.tolerance == stated[c.name], c.name
                assert c.passed, (c.name, c.residual, c.detail)
        # the two anchored-expansion routes agree pointwise
        for dim in range(2, 9):
            problem = product_linear_problem(dim)
            for order in range(min(3, dim - 1) + 1):
                res = check_form_equivalence(problem, order, seed=100 * dim + order)
                assert res.tolerance == 1e-10
                assert res.passed, (dim, order, res.residual)
        res = check_form_equivalence(sobol_g_problem(3), 1, seed=77)
        assert res.passed


def test_c06_subset_sum_identity(criterion):
    from dimdecomp import all_subsets_up_to, sobol_D

    with criterion("c06_subset_sum_identity"):
        for factory in (product_linear_problem, sobol_g_problem):
            for dim in (2, 3, 4, 5):
                problem = factory(dim, quad_order=8)
                table = build_add(problem)
                vmap = variance_components(table)
                D = sobol_D(table)
                for u in all_subsets_up_to(dim, dim):
                    if u.is_empty:
                        continue
                    direct = D[u.mask]
                    summed = math.fsum(
                        vmap.sigma2[v.mask]
                        for v in all_subsets_up_to(dim, dim)
                        if not v.is_empty and v.mask & ~u.mask == 0
                    )
                    assert direct == pytest.approx(summed, rel=1e-8, abs=1e-12), (
                        factory.__name__,
                        dim,
                        u.label(),
                    )


def test_c07_bound_ordering(criterion):
    with criterion("c07_bound_ordering"):
        cases = [product_linear_problem(d, quad_order=8) for d in range(2, 7)]
        cases += [sobol_g_problem(d, quad_order=8) for d in range(2, 7)]
        cases += [ishigami_problem(), poly_problem(4)]
        checked = 0
        for problem in cases:
            vmap = variance_components(build_add(problem))
            sums = vmap.cardinality_sums()
            for order in range(problem.dim):
                e_add = sum(
                    (Fraction(sums.get(s, 0.0)) for s in range(order + 1, problem.dim + 1)),
                    Fraction(0),
                )
                if e_add <= 0:
                    continue
                e_rdd = sum(
                    (
                        (1 + coeff_b(order, s)) * Fraction(sums.get(s, 0.0))
                        for s in range(order + 1, problem.dim + 1)
                    ),
                    Fraction(0),
                )
                lo, hi = error_bounds(order, problem.dim)
                assert lo == 2 ** (order + 1)
                assert lo * e_add <= e_rdd <= hi * e_add, (problem.dim, order)
                checked += 1
        assert checked >= 30  # the sweep actually covered the grid of cases


def test_c08_threshold_rate(criterion):
    with criterion("c08_threshold_rate"):
        p20 = pmin_for_N(20)
        assert p20 == pytest.approx(21.5187, abs=5e-4)
        resid = (20 - 1) * (1.0 + 1.0 / p20) ** 20 / (1.0 + p20) ** 2 - 2.0 / p20
        assert abs(resid) <= 1e-10
        assert abs(dim_for_pmin(p20) - 20.0) <= 1e-6
        rates = [pmin_for_N(n) for n in range(3, 101)]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        for n, rate in zip(range(3, 101), rates):
            assert abs(dim_for_pmin(rate) - n) <= 1e-6


def test_c09_decay_curve_shapes(criterion, tmp_path):
    with criterion("c09_decay_curve_shapes"):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            '{"out": "%s", "figure1": {"n_min": 3, "n_max": 20, "right_dim": 20, '
            '"rates": [5, 50]}}' % (tmp_path / "out")
        )
        assert main(["figure1", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / "figure1_right.csv"
        assert path.exists()
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for rate in ("5", "50"):
            adds = [float(r["e_add_normalized"]) for r in rows if r["rate"] == rate]
            assert len(adds) == 20
            assert all(a > b for a, b in zip(adds, adds[1:])), rate
        slow = [float(r["e_rdd_normalized"]) for r in rows if r["rate"] == "5"]
        assert slow[1] > slow[0]
        fast = [float(r["e_rdd_normalized"]) for r in rows if r["rate"] == "50"]
        assert all(a > b for a, b in zip(fast, fast[1:]))


def test_c10_two_scale_stress_case(criterion):
    with criterion("c10_two_scale_stress_case"):
        rep = contrived_example()
        assert rep.e_rdd_order1 == pytest.approx((1 + coeff_b(1, 100)) * 0.001, rel=1e-9)
        assert rep.e_rdd_order2 == pytest.approx((1 + coeff_b(2, 100)) * 0.001, rel=1e-9)
        assert rep.e_rdd_order1 == pytest.approx(9.902, rel=1e-9)
        assert rep.e_rdd_order2 == pytest.approx(24497.552, rel=1e-9)
        assert rep.inversion is True


def test_c11_optimality_split(criterion, plin4, plin4_vmap):
    with criterion("c11_optimality_split"):
        budgets = [rdd_expected_error(s, plin4_vmap) for s in range(4)]
        checks = check_optimality_split(plin4, budgets, 100_000, 42)
        assert len(checks) == 12
        failed = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
        assert not failed, failed


def test_c12_vanishing_top_order_error(criterion):
    with criterion("c12_vanishing_top_order_error"):
        prev = math.inf
        for dim in range(2, 21):
            sums = CardinalitySums(
                dim, {s: math.comb(dim, s) / 3.0**s for s in range(1, dim + 1)}
            )
            top = rdd_expected_error(dim - 1, sums).e_rdd_expected
            assert top == pytest.approx(2.0**dim / 3.0**dim, rel=1e-12)
            assert top < prev
            prev = top
