from __future__ import annotations

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimdecomp import (
    ADD,
    RDD,
    AnchoredApprox,
    MarginalMeasure,
    ProblemSpec,
    ProductMeasure,
    VariableSubset,
    all_subsets_up_to,
    build_add,
    build_rdd,
    check_add_structure,
    check_form_equivalence,
    check_rdd_structure,
    count_up_to,
    explicit_component,
    make_function,
    mc_add_error,
    rdd_direct,
    strict_subsets,
    subsets_of_cardinality,
)
from dimdecomp import decomp
from dimdecomp.cli import main
from tests.conftest import (
    counted,
    ishigami_problem,
    poly_problem,
    product_linear_problem,
    sobol_g_problem,
)


# outside U(-1, 1)^3 and not finite: every anchor validator rejects it
BAD_ANCHOR = np.array([5.0, np.nan, 0.0])


def rng(seed=0):
    return np.random.default_rng(seed)


class TestAddBuild:
    def test_constant_function(self):
        m = ProductMeasure.iid(MarginalMeasure.uniform(0.0, 1.0), 3)
        p = ProblemSpec(lambda x: np.full(x.shape[:-1], 4.5), m, 5)
        t = build_add(p)
        assert t.y_empty == pytest.approx(4.5)
        for mask in t.masks():
            np.testing.assert_allclose(
                t.grid_values(VariableSubset(mask, 3)), 0.0, atol=1e-14
            )

    def test_product_linear_components_are_monomials(self, plin3, plin3_table):
        # for y = prod(1 + x_i) under uniform(-1,1) the component of u is
        # prod_{i in u} x_i, so grid values are outer products of the nodes
        t = plin3_table
        assert t.y_empty == pytest.approx(1.0, abs=1e-14)
        nodes = [r.nodes for r in plin3.rules]
        u = VariableSubset.from_indices([1], 3)
        np.testing.assert_allclose(t.grid_values(u), nodes[1], atol=1e-13)
        u = VariableSubset.from_indices([0, 2], 3)
        np.testing.assert_allclose(
            t.grid_values(u), np.outer(nodes[0], nodes[2]), atol=1e-13
        )
        u = VariableSubset.full(3)
        expect = np.einsum("i,j,k->ijk", *nodes)
        np.testing.assert_allclose(t.grid_values(u), expect, atol=1e-13)

    def test_additive_function_has_no_interactions(self):
        m = ProductMeasure.iid(MarginalMeasure.uniform(-1.0, 1.0), 3)
        p = ProblemSpec(lambda x: x[..., 0] + 2.0 * x[..., 1] - x[..., 2], m, 8)
        t = build_add(p)
        for mask in t.masks():
            u = VariableSubset(mask, 3)
            if u.cardinality >= 2:
                np.testing.assert_allclose(t.grid_values(u), 0.0, atol=1e-13)

    def test_against_bruteforce_lattice_oracle(self):
        # independent slow oracle: conditional means by explicit loops over
        # the complement grid, components by textbook recursion; the mixed
        # orders on a non-symmetric target catch any mix-up of axes
        for p in (
            product_linear_problem(3, quad_order=5),
            poly_problem(4, quad_order=(2, 3, 4, 5)),
        ):
            self._check_against_oracle(p)

    @staticmethod
    def _check_against_oracle(p):
        N = p.dim
        t = build_add(p)
        nodes = [r.nodes for r in p.rules]
        weights = [r.weights for r in p.rules]

        def cond_mean(coords, vals):
            rest = [j for j in range(N) if j not in coords]
            total = 0.0
            for multi in itertools.product(*[range(len(nodes[j])) for j in rest]):
                x = np.empty(N)
                w = 1.0
                for j, v in zip(coords, vals):
                    x[j] = v
                for j, i in zip(rest, multi):
                    x[j] = nodes[j][i]
                    w *= weights[j][i]
                total += w * float(p.evaluate(x[None, :])[0])
            return total

        def oracle(coords, vals):
            out = cond_mean(coords, vals)
            for r in range(len(coords)):
                for sub in itertools.combinations(range(len(coords)), r):
                    out -= oracle(
                        tuple(coords[i] for i in sub), tuple(vals[i] for i in sub)
                    )
            return out

        g = rng(11)
        for _ in range(10):
            size = int(g.integers(1, N + 1))
            coords = tuple(sorted(g.choice(N, size=size, replace=False).tolist()))
            idx = tuple(int(g.integers(len(nodes[j]))) for j in coords)
            vals = tuple(float(nodes[j][i]) for j, i in zip(coords, idx))
            u = VariableSubset.from_indices(coords, N)
            got = float(t.component(u, np.array(vals)))
            assert got == pytest.approx(oracle(coords, vals), abs=1e-12)

        # every stored value against the alternating-sum route
        for mask in t.masks():
            u = VariableSubset(mask, N)
            grid = t.grid_values(u)
            assert grid.shape == tuple(len(nodes[j]) for j in u.indices())
            for idx in np.ndindex(grid.shape):
                x_u = [nodes[j][i] for j, i in zip(u.indices(), idx)]
                assert grid[idx] == pytest.approx(
                    explicit_component(p, u, ADD, x_u), abs=1e-12
                )

        checks = check_add_structure(t)
        assert "add_orthogonality" in [c.name for c in checks]
        for c in checks:
            assert c.passed, (c.name, c.residual)

    def test_structure_checks_pass(self, plin3_table):
        for c in check_add_structure(plin3_table):
            assert c.passed, (c.name, c.residual)

    def test_grid_budget_enforced(self):
        # the grid and the table budgets are both checked before the target
        # is evaluated even once
        cases = [
            (product_linear_problem(6, quad_order=64), {}),
            (product_linear_problem(3, quad_order=10), {"max_grid_points": 999}),
            # 2**20 grid points fit the grid budget; the 3**20-value table does not
            (product_linear_problem(20, quad_order=2), {}),
        ]
        for problem, kwargs in cases:
            p, seen = counted(problem)
            with pytest.raises(ValueError, match="budget"):
                build_add(p, **kwargs)
            assert seen == []

    def test_evaluates_each_grid_point_once(self):
        # prod(q_j) evaluations, the paper's cost of ADD, over several chunks
        p, seen = counted(product_linear_problem(5, quad_order=10))
        build_add(p)
        assert len(seen) > 1
        rows = np.concatenate(seen)
        assert rows.shape == (10**5, 5)
        for j, r in enumerate(p.rules):
            assert np.all(np.isin(rows[:, j], r.nodes))
        assert len(np.unique(rows, axis=0)) == 10**5

    def test_nonfinite_values_rejected(self):
        m = ProductMeasure.iid(MarginalMeasure.uniform(-1.0, 1.0), 2)
        p = ProblemSpec(
            lambda x: np.where(x[..., 0] > 0.0, np.nan, 1.0), m, 4
        )
        with pytest.raises(ValueError, match="finite"):
            build_add(p)


class TestAddEvaluation:
    def test_truncated_full_order_reproduces_grid_points(self, plin3, plin3_table):
        nodes = [r.nodes for r in plin3.rules]
        pts = np.array(
            [[nodes[0][2], nodes[1][7], nodes[2][4]], [nodes[0][0], nodes[1][0], nodes[2][9]]]
        )
        np.testing.assert_allclose(
            plin3_table.truncated(3, pts), plin3.evaluate(pts), rtol=1e-12
        )

    def test_truncated_zero_order_is_the_mean(self, plin3_table):
        x = np.array([0.3, -0.2, 0.9])
        assert plin3_table.truncated(0, x) == pytest.approx(plin3_table.y_empty)

    def test_interpolation_exact_for_polynomials(self, plin3, plin3_table):
        X = rng(5).uniform(-1.0, 1.0, (50, 3))
        np.testing.assert_allclose(
            plin3_table.truncated(3, X), plin3.evaluate(X), rtol=1e-12, atol=1e-14
        )

    def test_component_interpolation_matches_grid(self, plin3):
        # at a node every cardinal matrix is one-hot, so interpolation
        # returns the stored grid values bit for bit
        table = build_add(plin3)
        nodes = [r.nodes for r in plin3.rules]
        idx = rng(8).integers(0, 10, (40, 3))
        X = np.column_stack([nodes[j][idx[:, j]] for j in range(3)])

        def on_grid(u):
            if u.is_empty:
                return table.grid_values(u)
            return table.grid_values(u)[tuple(idx[:, list(u.indices())].T)]

        for u in all_subsets_up_to(3, 3):
            if not u.is_empty:
                got = table.component(u, X[:, list(u.indices())])
                assert np.array_equal(got, on_grid(u))
        for order in range(4):
            want = np.zeros(len(X))
            for u in all_subsets_up_to(3, order):
                want += on_grid(u)
            assert np.array_equal(table.truncated(order, X), want)

    def test_order_out_of_range(self, plin3_table):
        with pytest.raises(ValueError):
            plin3_table.truncated(4, np.zeros(3))
        with pytest.raises(ValueError):
            plin3_table.truncated(-1, np.zeros(3))
        with pytest.raises(ValueError, match="integer"):
            plin3_table.truncated(1.5, np.zeros(3))
        with pytest.raises(ValueError, match="at least one"):
            plin3_table.truncated_sums((), np.zeros(3))

    def test_truncated_sums_equal_one_call_per_order(self, plin3, plin3_table):
        # one pass with a copy at each cardinality boundary, unsorted orders
        # with repeats, ADD (off and on the grid) and RDD tables alike
        X = rng(8).uniform(-1.0, 1.0, (30, 3))
        nodes = [r.nodes for r in plin3.rules]
        on_grid = np.column_stack([nodes[j][[0, 4, 9]] for j in range(3)])
        orders = (2, 0, 3, 0, 1)
        for table, pts in (
            (plin3_table, X),
            (build_add(plin3), on_grid),
            (build_rdd(plin3, np.array([0.2, -0.4, 0.6])), X),
        ):
            got = table.truncated_sums(orders, pts)
            for s, y in zip(orders, got):
                assert np.array_equal(y, table.truncated(s, pts))
            assert table.truncated_sums(orders, pts[0]) == [
                table.truncated(s, pts[0]) for s in orders
            ]


def unblocked_fold(vals, mats):
    """Off-grid ADD evaluation with both contractions over all rows at once."""
    out = np.einsum("mi,i...->m...", mats[0], vals)
    for L in mats[1:]:
        out = np.einsum("mi,mi...->m...", L, out)
    return out


def cardinal_matrices(problem, X):
    """Per-coordinate (m, q_j) cardinal matrices of the points `X`."""
    return [
        decomp._cardinal_matrix(r.nodes, decomp._bary_weights(r.nodes), X[:, j]).T
        for j, r in enumerate(problem.rules)
    ]


def assert_agrees(got, want, table):
    """Agreement to roundoff: relative, or against the table's scale where
    a value cancels towards zero."""
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * table.scale)


def reference_sums(table, mats, top, rows=None):
    """Truncated sums up to `top` through `unblocked_fold`, one per order;
    `rows` caps the rows per einsum chain to bound its intermediates."""
    m = mats[0].shape[0]
    rows = rows or m
    sums = []
    acc = np.full(m, table.y_empty)
    for u in all_subsets_up_to(table.dim, top):
        if u.cardinality > len(sums):
            sums.append(acc.copy())
        if not u.is_empty:
            vals = table.grid_values(u)
            for start in range(0, m, rows):
                block = [mats[j][start : start + rows] for j in u.indices()]
                acc[start : start + rows] += unblocked_fold(vals, block)
    return sums + [acc]


class TestInterpolationBlocks:
    # GEMMs round a row differently for other numbers of rows, so the
    # bilinear kernel agrees with the einsum reference to roundoff only.
    # q = 4 at N = 5.  Truncated sums: a row of a block holds at most
    # 20 + 160 + 640 factor values plus a 16-value GEMM output, 836
    # values.  One component of k coordinates holds its head and tail
    # factors with their prefixes and its output: 5, 12, 28, 56 and 120
    # values for k = 1..5.  The default budget takes all 2503 rows in one
    # block; a budget of 1000 makes one-row blocks for truncated sums and
    # blocks of 200, 83, 35, 17 and 8 rows for components, each with a
    # ragged last block; a budget of 1 one-row blocks (checked on the
    # first 37 rows)
    @pytest.fixture(scope="class")
    def setup(self):
        p = sobol_g_problem(5, quad_order=4)
        table = build_add(p)
        X = rng(5).uniform(0.0, 1.0, (2503, 5))
        return table, X, cardinal_matrices(p, X)

    @pytest.mark.parametrize("budget,m", [(None, 2503), (1000, 2503), (1, 37)])
    def test_component_equals_unblocked_kernel(self, setup, budget, m, monkeypatch):
        table, X, mats = setup
        X, mats = X[:m], [L[:m] for L in mats]
        if budget is not None:
            monkeypatch.setattr(decomp, "_BLOCK_VALUES", budget)
        for u in all_subsets_up_to(5, 5):
            if u.is_empty:
                continue
            coords = list(u.indices())
            want = unblocked_fold(table.grid_values(u), [mats[j] for j in coords])
            assert_agrees(table.component(u, X[:, coords]), want, table)

    @pytest.mark.parametrize("budget,m", [(None, 2503), (1000, 2503), (1, 37)])
    def test_truncated_equals_unblocked_kernel(self, setup, budget, m, monkeypatch):
        table, X, mats = setup
        X, mats = X[:m], [L[:m] for L in mats]
        if budget is not None:
            monkeypatch.setattr(decomp, "_BLOCK_VALUES", budget)
        want = reference_sums(table, mats, 5)
        for order, got in enumerate(table.truncated_sums(range(1, 6), X), start=1):
            assert_agrees(got, want[order], table)

    # 836 values per row (see above): a budget of 41 800 values makes
    # 50-row blocks with a ragged last one, a budget of 1 one-row blocks;
    # the blocks do not depend on the orders asked for, so every sum is
    # bit-for-bit its own truncated call
    @pytest.mark.parametrize("budget,m,rows", [(41_800, 2503, 50), (1, 37, 1)])
    def test_truncated_sums_in_row_blocks(self, setup, budget, m, rows, monkeypatch):
        table, X, mats = setup
        X, mats = X[:m], [L[:m] for L in mats]
        monkeypatch.setattr(decomp, "_BLOCK_VALUES", budget)
        seen = []
        kernel = decomp._cardinal_matrix

        def recorded(nodes, bw, t):
            seen.append(t.shape[0])
            return kernel(nodes, bw, t)

        monkeypatch.setattr(decomp, "_cardinal_matrix", recorded)
        orders = (2, 0, 5, 0, 1)
        got = table.truncated_sums(orders, X)
        assert max(seen) == rows
        want = reference_sums(table, mats, 5)
        for order, sums in zip(orders, got):
            assert_agrees(sums, want[order], table)
            assert np.array_equal(sums, table.truncated(order, X))

    def test_ragged_orders(self, monkeypatch):
        # q = (3, 5, 2, 4): heads and tails of unequal lengths; a row holds
        # e_1 + e_2 = 14 + 71 factor values plus a 5 * 4 output, 105 values,
        # so a budget of 735 makes 7-row blocks that the cache must fit
        p = sobol_g_problem(4, quad_order=(3, 5, 2, 4))
        table = build_add(p)
        X = rng(9).uniform(0.0, 1.0, (300, 4))
        mats = cardinal_matrices(p, X)
        monkeypatch.setattr(decomp, "_BLOCK_VALUES", 735)
        held = []
        call = decomp._Interpolant.__call__

        def recorded(self, vals, coords):
            out = call(self, vals, coords)
            held.append(sum(K.size for K in self._factors.values()))
            return out

        monkeypatch.setattr(decomp._Interpolant, "__call__", recorded)
        got = table.truncated_sums(range(5), X)
        assert 0 < max(held) <= 735 - 7 * 20
        for order, want in enumerate(reference_sums(table, mats, 4)):
            assert_agrees(got[order], want, table)
        for u in all_subsets_up_to(4, 4):
            if not u.is_empty:
                coords = list(u.indices())
                want = unblocked_fold(table.grid_values(u), [mats[j] for j in coords])
                assert_agrees(table.component(u, X[:, coords]), want, table)

    def test_univariate_components_have_no_tail(self, setup):
        # |u| = 1: the head is the whole subset and the GEMM a matrix-vector
        # product; at the nodes the cardinal matrix is one-hot
        table, X, mats = setup
        nodes = table.problem.rules[2].nodes
        u = VariableSubset.from_indices([2], 5)
        want = unblocked_fold(table.grid_values(u), [mats[2]])
        assert_agrees(table.component(u, X[:, [2]]), want, table)
        assert np.array_equal(table.component(u, nodes[:, None]), table.grid_values(u))

    def test_six_variables_order_ten(self):
        # the verify shape whose 5-variate components dominate its cost
        p = product_linear_problem(6, quad_order=10)
        table = build_add(p)
        X = rng(12).uniform(-1.0, 1.0, (2000, 6))
        got = table.truncated_sums(range(6), X)
        want = reference_sums(table, cardinal_matrices(p, X), 5, rows=200)
        for order in range(6):
            assert_agrees(got[order], want[order], table)

    def test_add_error_cardinal_matrices_stay_small(self):
        # one whole-chunk set of cardinal matrices is 5 x (100 000, 6)
        # float64 values, 23 MiB, and put the peak at 39 MiB
        p = product_linear_problem(5, quad_order=6)
        table = build_add(p)
        tracemalloc.start()
        try:
            mc_add_error(p, table, range(5), 100_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_verify_at_six_variables_order_ten_stays_small(self, tmp_path, capsys):
        # unblocked, the 5-variate components left a (2000, 10**4)
        # intermediate per chunk: a 190 MiB peak here, and an OOM kill at
        # the default 100 000 samples
        config = tmp_path / "verify.json"
        config.write_text(
            json.dumps(
                {
                    "function": {"name": "product_linear"},
                    "dim": 6,
                    "quad_order": 10,
                    "mc": {"n_samples": 2000},
                }
            )
        )
        tracemalloc.start()
        try:
            rc = main(["verify", "--config", str(config), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 96 * 2**20


class TestRddBuild:
    def test_product_components_at_zero_anchor(self, plin3):
        t = build_rdd(plin3, np.zeros(3))
        assert t.y_empty == pytest.approx(1.0)
        x = np.array([0.7])
        u = VariableSubset.from_indices([1], 3)
        assert t.component(u, x) == pytest.approx(0.7)
        u = VariableSubset.from_indices([0, 2], 3)
        # (1+x0)(1+x2) - 1 - x0 - x2 = x0 x2
        assert t.component(u, np.array([0.5, -0.4])) == pytest.approx(-0.2)

    def test_annihilation_at_anchor_coordinate(self, plin3):
        c = np.array([0.3, -0.1, 0.8])
        t = build_rdd(plin3, c)
        u = VariableSubset.from_indices([0], 3)
        assert t.component(u, np.array([c[0]])) == pytest.approx(0.0, abs=1e-14)
        u = VariableSubset.from_indices([0, 1], 3)
        # pinning either own coordinate kills the component
        assert t.component(u, np.array([c[0], 0.9])) == pytest.approx(0.0, abs=1e-13)
        assert t.component(u, np.array([0.9, c[1]])) == pytest.approx(0.0, abs=1e-13)

    def test_telescoping_sum_equals_anchored_value(self, plin3):
        # sum over the sublattice of u reproduces y(x_u, c_{-u})
        c = np.array([0.2, 0.4, -0.6])
        t = build_rdd(plin3, c)
        g = rng(3)
        for _ in range(10):
            mask = int(g.integers(1, 8))
            u = VariableSubset(mask, 3)
            coords = u.indices()
            x_u = g.uniform(-1.0, 1.0, u.cardinality)
            z = c.copy()
            z[list(coords)] = x_u
            anchored = float(plin3.evaluate(z[None, :])[0])
            total = t.y_empty
            for v in strict_subsets(u):
                if v.is_empty:
                    continue
                pos = [coords.index(j) for j in v.indices()]
                total += float(t.component(v, x_u[pos]))
            total += float(t.component(u, x_u))
            assert total == pytest.approx(anchored, rel=1e-12)

    def test_structure_checks_pass(self, plin3):
        t = build_rdd(plin3, np.array([0.1, 0.2, 0.3]))
        for c in check_rdd_structure(t, seed=7):
            assert c.passed, (c.name, c.residual)

    @pytest.mark.parametrize(
        "make,seed",
        [
            (lambda: product_linear_problem(5, quad_order=6), 5),
            (lambda: poly_problem(4), 1),
            (lambda: sobol_g_problem(6), 8),
            (ishigami_problem, 3),
        ],
    )
    def test_annihilation_batched_by_subset(self, make, seed):
        # the rows of each drawn subset share one recursion; the per-row
        # route below (one recursion per row, as the check once ran) must
        # give the same residual and label, bit for bit, from the same
        # target rows
        problem, seen = counted(make())
        N = problem.dim
        anchor = problem.measure.sample(rng(seed))
        table = build_rdd(problem, anchor)
        seen.clear()
        results = {c.name: c for c in check_rdd_structure(table, seed=seed)}
        batched_rows = sum(len(x) for x in seen)

        seen.clear()
        g = np.random.default_rng(seed)
        X = problem.measure.sample(g, 100)
        worst, label = 0.0, ""
        for row in range(100):
            size = int(g.integers(1, N + 1))
            coords = tuple(sorted(g.choice(N, size=size, replace=False).tolist()))
            u = VariableSubset.from_indices(coords, N)
            x_u = X[row, list(coords)].copy()
            pin = int(g.integers(size))
            x_u[pin] = anchor[coords[pin]]
            r = abs(float(table.component(u, x_u)))
            if r > worst:
                worst, label = r, f"subset {u.label()}, pinned coordinate {coords[pin] + 1}"
        per_row_rows = sum(len(x) for x in seen)

        got = results["rdd_annihilation"]
        assert (got.residual, got.detail) == (worst, label)
        # pinning makes each evaluation equal its partner without the
        # pinned coordinate, so the recursion cancels to exactly zero; a
        # wrong pin in either route shows as a nonzero residual
        assert worst == 0.0
        # the full-sum check adds 100 rows per subset of all N, plus 100
        assert batched_rows == per_row_rows + 100 * 2**N + 100

    def test_annihilation_catches_a_broken_recursion(self, plin3, monkeypatch):
        # a recursion that forgets to subtract the constant component leaves
        # y(c) in every univariate component at its own anchor coordinate
        real = decomp.strict_subsets
        monkeypatch.setattr(
            decomp, "strict_subsets", lambda u: (v for v in real(u) if not v.is_empty)
        )
        t = build_rdd(plin3, np.array([0.1, 0.2, 0.3]))
        results = {c.name: c for c in check_rdd_structure(t, seed=7)}
        got = results["rdd_annihilation"]
        assert not got.passed
        assert got.residual > 1e3 * got.tolerance
        assert re.fullmatch(r"subset \[[1-3](,[1-3])*\], pinned coordinate [1-3]", got.detail)

    def test_structure_checks_need_a_point(self, plin3):
        t = build_rdd(plin3, np.zeros(3))
        with pytest.raises(ValueError, match="at least 1 point"):
            check_rdd_structure(t, n_points=0)

    def test_anchor_validation(self, plin3):
        with pytest.raises(ValueError):
            build_rdd(plin3, np.zeros(4))
        with pytest.raises(ValueError):
            build_rdd(plin3, BAD_ANCHOR)
        p = sobol_g_problem(3)
        with pytest.raises(ValueError, match="support"):
            build_rdd(p, np.array([0.5, 0.5, -0.5]))


class TestRddDirect:
    def test_matches_handwritten_low_order_formulas(self):
        p = product_linear_problem(4)
        g = rng(9)
        c = g.uniform(-1.0, 1.0, 4)
        x = g.uniform(-1.0, 1.0, 4)

        def anchored(coords):
            z = c.copy()
            z[list(coords)] = x[list(coords)]
            return float(p.evaluate(z[None, :])[0])

        # S=1: sum_i y(x_i, c_-i) - (N-1) y(c)
        expect1 = sum(anchored((i,)) for i in range(4)) - 3.0 * anchored(())
        assert rdd_direct(p, 1, c, x) == pytest.approx(expect1, rel=1e-12)
        # S=2: pair sum - (N-2) singles + C(N-1,2) y(c)
        expect2 = (
            sum(anchored(pair) for pair in itertools.combinations(range(4), 2))
            - 2.0 * sum(anchored((i,)) for i in range(4))
            + 3.0 * anchored(())
        )
        assert rdd_direct(p, 2, c, x) == pytest.approx(expect2, rel=1e-12)
        # S=0 is the anchored value itself
        assert rdd_direct(p, 0, c, x) == pytest.approx(anchored(()), rel=1e-14)

    def test_equals_truncated_component_sum(self, plin4_or_none=None):
        p = product_linear_problem(4)
        g = rng(21)
        for order in range(4):
            c = g.uniform(-1.0, 1.0, 4)
            x = g.uniform(-1.0, 1.0, 4)
            t = build_rdd(p, c)
            assert rdd_direct(p, order, c, x) == pytest.approx(
                t.truncated(order, x), rel=1e-11
            )

    def test_exact_for_low_order_targets(self):
        # a sum of at-most-bivariate terms is reproduced exactly at S=2
        p = poly_problem(4)
        has_trivariate = True  # poly_problem includes a 3-way term
        g = rng(13)
        X = g.uniform(-1.0, 1.0, (20, 4))
        c = g.uniform(-1.0, 1.0, 4)
        y3 = rdd_direct(p, 3, c, X)
        np.testing.assert_allclose(y3, p.evaluate(X), rtol=1e-11)
        if has_trivariate:
            assert not np.allclose(rdd_direct(p, 2, c, X), p.evaluate(X), rtol=1e-6)
        # drop the trivariate term: S=2 becomes exact
        terms = [
            {"coeff": 1.0, "exponents": [2, 0, 0, 0]},
            {"coeff": -0.5, "exponents": [1, 1, 0, 0]},
            {"coeff": 0.25, "exponents": [0, 0, 1, 2]},
        ]
        m = ProductMeasure.iid(MarginalMeasure.uniform(-1.0, 1.0), 4)
        p2 = ProblemSpec(make_function("poly", 4, terms=terms), m, 6)
        np.testing.assert_allclose(rdd_direct(p2, 2, c, X), p2.evaluate(X), rtol=1e-11)

    def test_batch_anchors(self):
        p = product_linear_problem(3)
        g = rng(2)
        X = g.uniform(-1.0, 1.0, (5, 3))
        C = g.uniform(-1.0, 1.0, (5, 3))
        rows = rdd_direct(p, 1, C, X)
        for i in range(5):
            assert rows[i] == pytest.approx(rdd_direct(p, 1, C[i], X[i]), rel=1e-13)

    def test_validation(self):
        p = product_linear_problem(3)
        for bad, msg in (
            (3, r"outside \[0, 2\]"), (-1, "outside"), (1.5, "integer"), (True, "integer")
        ):
            with pytest.raises(ValueError, match=msg):
                rdd_direct(p, bad, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            rdd_direct(p, 1, np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            rdd_direct(p, 1, BAD_ANCHOR, np.zeros(3))
        with pytest.raises(ValueError):
            rdd_direct(p, 1, np.stack([np.zeros(3), BAD_ANCHOR]), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            rdd_direct(p, 1, np.zeros((3, 3)), np.zeros((2, 3)))
        ps = sobol_g_problem(3)
        with pytest.raises(ValueError, match="support"):
            rdd_direct(ps, 1, np.array([-0.5, 0.5, 0.5]), np.full(3, 0.5))


def reference_rdd_direct(problem, order, anchor, X):
    """The collapsed anchored sum with a C-ordered batch refilled from the
    anchor for every subset, subsets in (cardinality descending, mask) order."""
    N = problem.dim
    C = np.broadcast_to(anchor, X.shape)
    out = np.zeros(X.shape[0])
    Z = np.empty_like(X)
    for k in range(order + 1):
        w = (-1) ** k * math.comb(N - order + k - 1, k)
        subsets = sorted(
            itertools.combinations(range(N), order - k),
            key=lambda cols: sum(1 << j for j in cols),
        )
        for cols in subsets:
            Z[:] = C
            Z[:, list(cols)] = X[:, list(cols)]
            out += w * problem.evaluate(Z)
    return out


class TestAnchoredKernel:
    @pytest.mark.parametrize("make", [product_linear_problem, sobol_g_problem])
    @pytest.mark.parametrize("dim,order", [(6, 3), (20, 2)])
    def test_bitwise_equal_to_refilled_reference(self, make, dim, order):
        p = make(dim)
        lo = -1.0 if make is product_linear_problem else 0.0
        g = rng(dim + order)
        X = g.uniform(lo, 1.0, (300, dim))
        C = g.uniform(lo, 1.0, (300, dim))
        for anchor in (C[0], C):
            got = rdd_direct(p, order, anchor, X)
            assert np.array_equal(got, reference_rdd_direct(p, order, anchor, X))

    @pytest.mark.parametrize("dim,order", [(6, 3), (20, 2)])
    def test_one_call_of_m_rows_per_subset(self, dim, order):
        # count_up_to(N, S) target calls of m rows each, the paper's cost
        m = 40
        p, seen = counted(product_linear_problem(dim))
        g = rng(dim)
        X = g.uniform(-1.0, 1.0, (m, dim))
        C = g.uniform(-1.0, 1.0, (m, dim))
        want = [(m, dim)] * count_up_to(dim, order)
        rdd_direct(p, order, C, X)
        assert [b.shape for b in seen] == want
        table = build_rdd(p, C[0])
        seen.clear()
        table.truncated(order, X)
        assert [b.shape for b in seen] == want
        seen.clear()
        rdd_direct(p, order, C[0], X)
        assert [b.shape for b in seen] == want

    @pytest.mark.parametrize("block_rows", [7, 1])
    def test_ragged_row_blocks_change_no_value(self, monkeypatch, block_rows):
        # 50 rows fit one block by default; 7-row blocks leave a ragged last
        # block of 1 row, and 1-row blocks are the smallest the budget allows
        dim, order, m = 5, 2, 50
        p = product_linear_problem(dim)
        g = rng(31)
        X = g.uniform(-1.0, 1.0, (m, dim))
        C = g.uniform(-1.0, 1.0, (m, dim))
        table = build_rdd(p, C[0])
        u = VariableSubset.from_indices([1, 3, 4], dim)

        def routes():
            return (
                table.truncated_sums(range(dim + 1), X),
                table.component(u, X[:, [1, 3, 4]]),
                check_form_equivalence(p, order, n_pairs=m, seed=5).residual,
            )

        whole = routes()
        monkeypatch.setattr(decomp, "_ANCHOR_BLOCK_VALUES", block_rows * dim)
        for anchor in (C[0], C):
            got = rdd_direct(p, order, anchor, X)
            assert np.array_equal(got, reference_rdd_direct(p, order, anchor, X))
        sums, component, residual = routes()
        assert all(np.array_equal(a, b) for a, b in zip(sums, whole[0], strict=True))
        assert np.array_equal(component, whole[1])
        assert residual == whole[2]

    @pytest.mark.parametrize("block_rows", [7, 1])
    def test_blocks_see_every_subset_in_order(self, monkeypatch, block_rows):
        # each target call holds one block of rows, and every block runs
        # through the subsets in the kernel's order: m * count_up_to(N, S)
        # rows in all, the paper's cost
        dim, order, m = 5, 2, 50
        monkeypatch.setattr(decomp, "_ANCHOR_BLOCK_VALUES", block_rows * dim)
        p, seen = counted(product_linear_problem(dim))
        g = rng(32)
        X = g.uniform(-1.0, 1.0, (m, dim))
        C = g.uniform(-1.0, 1.0, (m, dim))

        def batches(subsets, anchor):
            anchor = np.broadcast_to(anchor, X.shape)
            out = []
            for start in range(0, m, block_rows):
                rows = slice(start, start + block_rows)
                for u in subsets:
                    own = np.isin(np.arange(dim), u.indices())
                    out.append(np.where(own, X[rows], anchor[rows]))
            return out

        descending = [u for s in range(order, -1, -1) for u in subsets_of_cardinality(dim, s)]
        for anchor in (C, C[0]):
            seen.clear()
            rdd_direct(p, order, anchor, X)
            assert max(len(b) for b in seen) <= block_rows
            assert sum(len(b) for b in seen) == m * count_up_to(dim, order)
            want = batches(descending, anchor)
            assert len(seen) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(seen, want))
        table = build_rdd(p, C[0])
        seen.clear()
        table.truncated(order, X)
        want = batches(list(all_subsets_up_to(dim, order)), C[0])
        assert len(seen) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(seen, want))

    def test_row_blocks_bound_the_transient_memory(self):
        # the whole batch is never copied: one (m, N) Fortran buffer of
        # 200k rows with per-row anchors took a 22.9 MiB peak, blocks 3.7
        dim, order, m = 6, 3, 200_000
        p = product_linear_problem(dim)
        g = rng(8)
        X = g.uniform(-1.0, 1.0, (m, dim))
        C = g.uniform(-1.0, 1.0, (m, dim))
        tracemalloc.start()
        try:
            rdd_direct(p, order, C, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_no_dimension_cap(self):
        # N = 40 is past the full-lattice cap; S = 2 needs 821 evaluations
        # per point.  For a product target the anchored S-variate surrogate
        # is the degree <= S part in t of prod_j (1 + a_j c_j + t a_j (x_j - c_j)).
        dim, order, m = 40, 2, 200
        g = rng(40)
        a = g.uniform(-1.0, 1.0, dim)
        measure = ProductMeasure.iid(MarginalMeasure.uniform(-1.0, 1.0), dim)
        p = ProblemSpec(make_function("product_linear", dim, a=a), measure, 2)
        X = g.uniform(-1.0, 1.0, (m, dim))
        C = g.uniform(-1.0, 1.0, (m, dim))

        def closed_form(anchor):
            coeffs = np.zeros((order + 1, m))
            coeffs[0] = 1.0
            for j in range(dim):
                alpha = 1.0 + a[j] * anchor[..., j]
                beta = a[j] * (X[:, j] - anchor[..., j])
                coeffs[1:] = alpha * coeffs[1:] + beta * coeffs[:-1]
                coeffs[0] *= alpha
            return coeffs.sum(axis=0)

        for anchor in (C, C[0]):
            want = closed_form(anchor)
            got = rdd_direct(p, order, anchor, X)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-9

    def test_target_writing_into_its_batch_raises(self, plin3):
        # the kernel reuses its buffer: a target that wrote into it would
        # corrupt later evaluations, so it sees a read-only view
        def clobbering(x):
            x[..., 0] = 0.0
            return np.ones(x.shape[:-1])

        p = ProblemSpec(clobbering, plin3.measure, 3)
        X = rng(4).uniform(-1.0, 1.0, (5, 3))
        c = np.zeros(3)
        with pytest.raises(ValueError, match="read-only"):
            rdd_direct(p, 1, c, X)
        with pytest.raises(ValueError, match="read-only"):
            build_rdd(p, c)
        u = VariableSubset.from_indices([0, 2], 3)
        with pytest.raises(ValueError, match="read-only"):
            explicit_component(p, u, RDD, X[0, [0, 2]], anchor=c)

    def test_target_returning_a_view_of_its_batch(self, plin3):
        # y = x_1 is returned as a column of the buffer itself; the kernel
        # must not let the next subset overwrite it
        p = ProblemSpec(lambda x: x[..., 0], plin3.measure, 3)
        X = rng(6).uniform(-1.0, 1.0, (7, 3))
        c = np.array([0.25, -0.5, 0.75])
        np.testing.assert_array_equal(rdd_direct(p, 2, c, X), X[:, 0])
        np.testing.assert_array_equal(build_rdd(p, c).truncated(1, X), X[:, 0])


class TestExplicitComponent:
    def test_add_route_agrees_with_table(self, plin3, plin3_table):
        nodes = [r.nodes for r in plin3.rules]
        g = rng(17)
        for _ in range(10):
            size = int(g.integers(1, 4))
            coords = tuple(sorted(g.choice(3, size=size, replace=False).tolist()))
            u = VariableSubset.from_indices(coords, 3)
            x_u = np.array([nodes[j][int(g.integers(10))] for j in coords])
            direct = explicit_component(plin3, u, ADD, x_u)
            recursive = float(plin3_table.component(u, x_u))
            assert direct == pytest.approx(recursive, abs=1e-12)

    def test_rdd_route_agrees_with_table(self):
        p = sobol_g_problem(4)
        g = rng(19)
        c = g.uniform(0.0, 1.0, 4)
        t = build_rdd(p, c)
        for _ in range(50):
            size = int(g.integers(1, 5))
            coords = tuple(sorted(g.choice(4, size=size, replace=False).tolist()))
            u = VariableSubset.from_indices(coords, 4)
            x_u = g.uniform(0.0, 1.0, size)
            direct = explicit_component(p, u, RDD, x_u, anchor=c)
            recursive = float(t.component(u, x_u))
            assert direct == pytest.approx(recursive, rel=1e-10, abs=1e-12)

    def test_empty_subset_gives_the_mean(self, plin3):
        u = VariableSubset.empty(3)
        got = explicit_component(plin3, u, ADD, np.array([]))
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_validation(self, plin3):
        u = VariableSubset.from_indices([0], 3)
        with pytest.raises(ValueError):
            explicit_component(plin3, u, "XDD", np.array([0.1]))
        with pytest.raises(ValueError):
            explicit_component(plin3, u, ADD, np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            explicit_component(plin3, u, RDD, np.array([0.1]), anchor=np.zeros(2))
        with pytest.raises(ValueError):
            explicit_component(plin3, u, RDD, np.array([0.1]), anchor=BAD_ANCHOR)


def reference_form_residual(problem, order, n_pairs, seed):
    """The pair-by-pair form check: one RDD table and one point per pair."""
    g = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        c = problem.measure.sample(g)
        x = problem.measure.sample(g)
        a = build_rdd(problem, c).truncated(order, x)
        b = rdd_direct(problem, order, c, x)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst


class TestFormEquivalence:
    @pytest.mark.parametrize("dim,order", [(4, 0), (4, 2), (6, 3)])
    def test_routes_agree(self, dim, order):
        p = product_linear_problem(dim)
        res = check_form_equivalence(p, order, n_pairs=20, seed=dim * 10 + order)
        assert res.passed, res

    @pytest.mark.parametrize(
        "make,orders",
        [
            (lambda: product_linear_problem(5), (0, 1, 2, 3)),
            (lambda: sobol_g_problem(4), (1, 2, 3)),
            (ishigami_problem, (1, 2)),
        ],
    )
    def test_batch_equals_pair_by_pair_reference(self, make, orders):
        p = make()
        for order in orders:
            res = check_form_equivalence(p, order, n_pairs=50, seed=order + 3)
            assert res.residual == reference_form_residual(p, order, 50, order + 3)
            assert res.passed, res

    @pytest.mark.parametrize("dim,order", [(3, 0), (5, 2), (6, 3)])
    def test_one_target_call_per_subset_and_route(self, dim, order):
        p, seen = counted(product_linear_problem(dim))
        check_form_equivalence(p, order, n_pairs=17, seed=1)
        assert [b.shape for b in seen] == [(17, dim)] * (2 * count_up_to(dim, order))

    def test_needs_a_pair(self, plin3):
        for n_pairs in (0, -1):
            with pytest.raises(ValueError, match="at least 1 pair"):
                check_form_equivalence(plin3, 1, n_pairs=n_pairs)


class TestAnchoredApprox:
    def test_callable_and_validated(self, plin3):
        c = np.zeros(3)
        f = AnchoredApprox(plin3, 1, c)
        x = np.array([0.4, -0.3, 0.1])
        assert f(x) == pytest.approx(rdd_direct(plin3, 1, np.zeros(3), x))
        # the surrogate freezes its own copy, not the caller's array
        assert c.flags.writeable and not f.anchor.flags.writeable
        for bad in (3, -1, 1.5, True):
            with pytest.raises(ValueError, match="truncation order"):
                AnchoredApprox(plin3, bad, np.zeros(3))
        assert type(AnchoredApprox(plin3, np.int64(1), c).order) is int
        with pytest.raises(ValueError):
            AnchoredApprox(plin3, 1, BAD_ANCHOR)
        p = sobol_g_problem(3)
        with pytest.raises(ValueError, match="support"):
            AnchoredApprox(p, 1, np.array([2.0, 0.5, 0.5]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 15), st.data())
def test_rdd_annihilation_property(mask, data):
    # pin one own coordinate of a random component at the anchor: it dies
    p = product_linear_problem(4)
    c = np.array([0.15, -0.35, 0.55, -0.75])
    t = build_rdd(p, c)
    u = VariableSubset(mask, 4)
    coords = u.indices()
    x_u = np.array(
        [data.draw(st.floats(-1.0, 1.0, allow_nan=False)) for _ in coords]
    )
    pin = data.draw(st.integers(0, len(coords) - 1))
    x_u[pin] = c[coords[pin]]
    assert abs(float(t.component(u, x_u))) <= 1e-12


def test_problem_spec_validation():
    m = ProductMeasure.iid(MarginalMeasure.uniform(-1.0, 1.0), 2)
    with pytest.raises(ValueError):
        ProblemSpec(make_function("product_linear", 2), m, 0)
    with pytest.raises(ValueError):
        ProblemSpec(make_function("product_linear", 2), m, (3, 4, 5))
    with pytest.raises(ValueError):
        ProblemSpec("not callable", m, 3)


def test_problem_spec_quadrature_orders():
    m = ProductMeasure.iid(MarginalMeasure.uniform(-1.0, 1.0), 3)
    f = make_function("product_linear", 3)
    for good, want in (
        (np.int64(6), (6, 6, 6)),
        ((4, np.int32(5), 6), (4, 5, 6)),
        (np.array([4, 5, 6]), (4, 5, 6)),
        ([2, 3, 4], (2, 3, 4)),
    ):
        orders = ProblemSpec(f, m, good).orders
        assert orders == want and all(type(n) is int for n in orders)
    for bad in (True, 5.5, np.float64(6.0), (4, 5.5, 6), (True, 2, 3), "abc", None):
        with pytest.raises(ValueError, match="must be an integer"):
            ProblemSpec(f, m, bad)
    for bad in (0, (4, 0, 6), np.int64(-1)):
        with pytest.raises(ValueError, match="at least 1"):
            ProblemSpec(f, m, bad)


def test_output_shape_contract(plin3, plin3_table):
    # an (m, 1) output would broadcast against (m,) arrays downstream
    p = ProblemSpec(lambda x: plin3.function(x)[..., None], plin3.measure, 3)
    X = rng(7).uniform(-1.0, 1.0, (20, 3))
    match = r"returned shape \(\d+, 1\) .* expected \(\d+,\)"
    with pytest.raises(ValueError, match=match):
        mc_add_error(p, plin3_table, 1, 1000)
    with pytest.raises(ValueError, match=match):
        rdd_direct(p, 1, np.zeros(3), X)
    with pytest.raises(ValueError, match=match):
        build_add(p)
