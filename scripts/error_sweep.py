#!/usr/bin/env python3
"""Analytic truncation-error budgets vs Monte Carlo, per truncation order.

Builds the integration-based decomposition of a builtin test function,
prints one line per order S with the exact error of the S-variate
integration-based surrogate, the exact expected error of the anchored
surrogate (anchor drawn from the input measure), its bracketing bounds,
and sampled estimates of both — flagged when an estimate strays past
three standard errors (it should not).

Example:
    python scripts/error_sweep.py --function product_linear --dim 4 --n 200000
"""
from __future__ import annotations

import argparse

from dimdecomp import (
    ProblemSpec,
    ProductMeasure,
    add_error,
    build_add,
    default_marginal,
    function_names,
    make_function,
    mc_add_error,
    mc_expected_rdd_error,
    rdd_expected_error,
    variance_components,
    worker_seed,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--function", default="product_linear", choices=function_names())
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--quad-order", type=int, default=10)
    ap.add_argument("--n", type=int, default=200_000, help="samples per estimate")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    problem = ProblemSpec(
        make_function(args.function, args.dim),
        ProductMeasure.iid(default_marginal(args.function), args.dim),
        args.quad_order,
    )
    table = build_add(problem)
    vmap = variance_components(table)
    print(f"{args.function}, dim {args.dim}, quad order {args.quad_order}, "
          f"total variance {vmap.total:.6g}")
    print(f"{'S':>3} {'e_add':>12} {'mc_add':>12} {'e_rdd_exp':>12} "
          f"{'mc_rdd_exp':>12} {'lower':>12} {'upper':>12}  verdict")
    for order in range(args.dim):
        exact_add = add_error(order, vmap)
        budget = rdd_expected_error(order, vmap)
        est_add = mc_add_error(
            problem, table, order, n=args.n, seed=worker_seed(args.seed, order)
        )
        est_rdd = mc_expected_rdd_error(
            problem, order, n_pairs=max(args.n, 10_000),
            seed=worker_seed(args.seed, 100 + order),
        )
        ok = est_add.within(exact_add) and est_rdd.within(budget.e_rdd_expected)
        print(f"{order:>3} {exact_add:>12.6g} {est_add.mean:>12.6g} "
              f"{budget.e_rdd_expected:>12.6g} {est_rdd.mean:>12.6g} "
              f"{budget.lower:>12.6g} {budget.upper:>12.6g}  "
              f"{'ok' if ok else 'OUTSIDE 3 SIGMA'}")


if __name__ == "__main__":
    main()
