from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimdecomp import (
    GAUSS_MAX_ORDER,
    AnchoredTable,
    ComponentTable,
    MarginalMeasure,
    ProblemSpec,
    ProductMeasure,
    VariableSubset,
    all_subsets_up_to,
    build_add,
    build_rdd,
    check_add_structure,
    check_form_equivalence,
    check_optimality_split,
    check_rdd_on_grid,
    check_rdd_structure,
    count_up_to,
    explicit_component,
    make_function,
    mc_add_error,
    mc_expected_rdd_error,
    mc_rdd_error,
    rdd_direct,
    rdd_direct_sums,
    rdd_expected_error,
    strict_subsets,
    sobol_D,
    subsets_of_cardinality,
    variance_closure_residual,
    variance_components,
)
from dimdecomp import decomp, passes, variance
from dimdecomp.cli import main
from dimdecomp.mc import MIN_PAIRS
from tests.conftest import (
    counted,
    ishigami_problem,
    node_anchored_table,
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
        for mask in range(1, 1 << 3):
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
        for mask in range(1, 1 << 3):
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
            got = float(t.grid_values(u)[idx])
            assert got == pytest.approx(oracle(coords, vals), abs=1e-12)

        # every stored value against the alternating-sum route
        for mask in range(1, 1 << N):
            u = VariableSubset(mask, N)
            grid = t.grid_values(u)
            assert grid.shape == tuple(len(nodes[j]) for j in u.indices())
            for idx in np.ndindex(grid.shape):
                x_u = [nodes[j][i] for j, i in zip(u.indices(), idx)]
                assert grid[idx] == pytest.approx(
                    explicit_component(p, u, x_u), abs=1e-12
                )

        checks = check_add_structure(t)
        assert "add_orthogonality" in [c.name for c in checks]
        for c in checks:
            assert c.passed, (c.name, c.residual)

    def test_structure_checks_pass(self, plin3_table):
        for c in check_add_structure(plin3_table):
            assert c.passed, (c.name, c.residual)

    def test_grid_budget_enforced(self, monkeypatch):
        # the grid and the table budgets are both checked before the target
        # is evaluated even once
        def rejected_before_any_evaluation(problem):
            p, seen = counted(problem)
            with pytest.raises(ValueError, match="budget"):
                build_add(p)
            assert seen == []

        rejected_before_any_evaluation(product_linear_problem(6, quad_order=64))
        # 2**20 grid points fit the grid budget; the 3**20-value table does not
        rejected_before_any_evaluation(product_linear_problem(20, quad_order=2))
        # the grid budget is read at call time
        monkeypatch.setattr(decomp, "DEFAULT_MAX_GRID_POINTS", 999)
        rejected_before_any_evaluation(product_linear_problem(3, quad_order=10))

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

    def test_nonfinite_error_names_the_first_bad_point(self):
        # the count of bad values in the call, and the first with its row
        m = ProductMeasure.iid(MarginalMeasure.uniform(-1.0, 1.0), 3)

        def function(x):
            return np.where(x[..., 0] > 0.8, np.nan, np.where(x[..., 1] < -0.9, -np.inf, 1.0))

        p = ProblemSpec(function, m, 3)
        X = np.array([[0.1, 0.2, 0.3], [0.95, -0.95, 0.0], [0.9, 1 / 3, 0.0], [0.0, -1.0, 0.5]])
        want = "function returned 3 non-finite values, the first nan at x = [0.95, -0.95, 0]"
        with pytest.raises(ValueError, match=re.escape(want)):
            p.evaluate(X)
        want = "function returned 1 non-finite values, the first -inf at x = [0, -1, 0.5]"
        with pytest.raises(ValueError, match=re.escape(want)):
            p.evaluate(X[3])


# mixed orders catch any mix-up of axes; N=10 has 1023 components
ARRAY_SHAPES = [(6, (3, 4, 2, 5, 3, 2)), (10, 3)]


@pytest.mark.parametrize("dim, quad_order", ARRAY_SHAPES, ids=["N6-mixed", "N10-q3"])
class TestAddTableArray:
    """All components are views of one array, and the checks read it."""

    def test_components_are_views_of_one_array(self, dim, quad_order):
        p = sobol_g_problem(dim, quad_order=quad_order)
        t = build_add(p)
        q = p.orders
        assert t._array.shape == tuple(n + 1 for n in q)
        assert t._array[q] == t.y_empty
        for mask in range(1, 1 << dim):
            u = VariableSubset(mask, dim)
            grid = t.grid_values(u)
            assert grid.shape == tuple(q[j] for j in u.indices())
            assert np.shares_memory(grid, t._array)
        for c in check_add_structure(t):
            assert c.passed, (c.name, c.residual)

    def test_mean_shift_is_caught_and_named(self, dim, quad_order):
        t = build_add(sobol_g_problem(dim, quad_order=quad_order))
        u = VariableSubset.from_indices([0, 2, 5], dim)
        t.grid_values(u)[...] += 1e-3
        checks = {c.name: c for c in check_add_structure(t)}
        zero_mean = checks["add_zero_mean"]
        assert not zero_mean.passed
        assert zero_mean.residual == pytest.approx(1e-3, rel=1e-9)
        # the shift is the mean along each of the three coordinates alike
        assert re.fullmatch(r"subset \[1,3,6\], coordinate [136]", zero_mean.detail)
        assert not checks["add_grid_exactness"].passed

    @pytest.mark.parametrize("first", [1, 0])
    def test_mean_along_one_coordinate_is_caught_and_named(self, dim, quad_order, first):
        # a perturbation of y_{first+1, 4} that varies along coordinate 4
        # only, with zero Gauss mean there: only its mean along the first
        # coordinate is not zero.  Without coordinate 1 the fault sits in
        # the slot slab of the table's leading axis; with it, only the sum
        # over that axis sees it.
        p = sobol_g_problem(dim, quad_order=quad_order)
        t = build_add(p)
        u = VariableSubset.from_indices([first, 3], dim)
        w = p.rules[3].weights
        h = np.zeros(len(w))
        h[0], h[1] = w[1], -w[0]
        t.grid_values(u)[...] += 1e-3 * h
        checks = {c.name: c for c in check_add_structure(t)}
        zero_mean = checks["add_zero_mean"]
        assert not zero_mean.passed
        assert zero_mean.residual == pytest.approx(1e-3 * max(w[0], w[1]), rel=1e-9)
        assert zero_mean.detail == f"subset [{first + 1},4], coordinate {first + 1}"
        assert not checks["add_grid_exactness"].passed

    def test_a_nan_fails_and_is_named(self, dim, quad_order):
        t = build_add(sobol_g_problem(dim, quad_order=quad_order))
        u = VariableSubset.from_indices([1, 3], dim)
        t.grid_values(u)[0, 1] = np.nan
        checks = {c.name: c for c in check_add_structure(t)}
        assert not checks["add_zero_mean"].passed
        assert checks["add_zero_mean"].detail.startswith("subset [2,4], coordinate ")
        assert not checks["add_grid_exactness"].passed


def test_a_nan_fails_orthogonality():
    # the pair loop skipped a NaN residual and passed at 2.7e-17
    t = build_add(product_linear_problem(3, quad_order=4))
    t.grid_values(VariableSubset.from_indices([0, 1], 3))[0, 0] = np.nan
    checks = {c.name: c for c in check_add_structure(t)}
    assert math.isnan(checks["add_zero_mean"].residual)
    orthogonality = checks["add_orthogonality"]
    assert math.isnan(orthogonality.residual)
    assert not orthogonality.passed
    assert orthogonality.detail.startswith("pair ")


def test_a_perturbed_two_way_node_fails_orthogonality():
    # y_{12} raised at one node is no longer orthogonal to y_1 and y_2:
    # only a pair holding [1,2] can carry the worst residual
    t = build_add(product_linear_problem(4, quad_order=4))
    t.grid_values(VariableSubset.from_indices([0, 1], 4))[1, 2] += 0.5
    orthogonality = {c.name: c for c in check_add_structure(t)}["add_orthogonality"]
    assert orthogonality.residual > 1e3 * orthogonality.tolerance
    assert not orthogonality.passed
    assert orthogonality.detail.startswith("pair ") and "[1,2]" in orthogonality.detail


# -- whole-slab references: the passes over the table before they took
# block-sized pieces, kept to hold the pieces to roundoff of them


def whole_slab_mean_squares(A, weights):
    split = [np.vstack((np.eye(1, len(w) + 1, len(w)), np.append(w, 0.0))) for w in weights]
    slabs = []
    for i in range(len(A)):
        slab = np.square(A[i : i + 1])
        for j in range(1, A.ndim):
            slab = passes._axis_map(split[j], slab, j)
        slabs.append(slab)
    by_mask = passes._axis_map(split[0], np.concatenate(slabs), 0).ravel(order="F")
    by_mask[0] = 0.0
    return by_mask


def whole_slab_closure(table, vmap):
    weights = [r.weights for r in table.problem.rules]
    slabs = [passes._expectation((y - table.y_empty) ** 2, weights[1:]) for y in table._full_values]
    direct = float(np.dot(weights[0], slabs))
    floor = variance._variance_floor(table.y_empty)
    return abs(vmap.total - direct) / max(direct, vmap.total, floor)


def whole_slab_structure(table):
    """(zero-mean residual, its label, grid-exactness residual)."""
    N, q, T = table.dim, table.problem.orders, table._array
    weights = [r.weights for r in table.problem.rules]
    parts = itertools.chain(
        [(0, 0, T)], ((i, j, T[i : i + 1]) for i in range(len(T)) for j in range(1, N))
    )
    worst, label = 0.0, ""
    for i, j, part in parts:
        means = passes._axis_map(weights[j][None, :], part, j)
        k = int(np.abs(means, out=means).argmax())
        r = float(means.flat[k])
        if r > worst or np.isnan(r):
            at = list(np.unravel_index(k, means.shape))
            at[0] += i
            u = VariableSubset.from_indices([c for c in range(N) if at[c] < q[c]], N)
            worst, label = r, f"subset {u.label()}, coordinate {j + 1}"
    Y = table._full_values
    r = 0.0
    for i in range(q[0]):
        recon = T[i : i + 1] + T[-1:]
        for j in range(1, N):
            V = passes._around(recon, j)
            shape = recon.shape[:j] + (q[j],) + recon.shape[j + 1 :]
            recon = (V[:, :-1] + V[:, -1:]).reshape(shape)
        np.subtract(recon, Y[i : i + 1], out=recon)
        r = np.maximum(r, np.abs(recon, out=recon).max())
    return worst, label, float(r) / max(1.0, float(Y.max()), -float(Y.min()))


@pytest.mark.parametrize(
    "make, dim, q, block",
    [
        # slabs of 1.2, 2 and 1.35 MiB in runs of one block: the add_grid shapes
        (product_linear_problem, 6, 10, None),
        (product_linear_problem, 10, 3, None),
        (product_linear_problem, 12, 2, None),
        # a 17-point axis after the first, and a slab of 107 100 values
        (sobol_g_problem, 6, (1, 16, 5, 14, 6, 9), None),
        # a 64-value block splits every pass of small tables many ways: four
        # leading axes in the exactness sums, head maps of four axes
        (product_linear_problem, 7, 2, 64),
        (sobol_g_problem, 4, 8, 64),
        (poly_problem, 4, 6, 64),
        (ishigami_problem, 3, 24, 64),
    ],
)
def test_block_passes_round_as_whole_slab_passes(monkeypatch, make, dim, q, block):
    if make is ishigami_problem:
        p = make(quad_order=q)
    elif make is sobol_g_problem:
        # the default a_j = j - 1 but a_1 = 0.5: a one-node axis 1 (node 0.5,
        # where |4x - 2| = 0) with a_1 = 0 makes the target 0 on the grid
        p = make(dim, quad_order=q, a=[0.5, *range(1, dim)])
    else:
        p = make(dim, quad_order=q)
    t = build_add(p)
    assert variance_components(t, check_closure=False).total > 0.0
    if block:
        monkeypatch.setattr(decomp, "_BLOCK_VALUES", block)
    assert_near_whole_slab_passes(t)


def assert_near_whole_slab_passes(t):
    # every variance within 1e-14 of the total, the closure, zero-mean and
    # exactness residuals within 1e-15 of the whole-slab passes' and the
    # zero-mean label equal: the pieces move values by roundoff only
    vmap = variance_components(t, check_closure=False)
    want = whole_slab_mean_squares(t._array, [r.weights for r in t.problem.rules])
    assert vmap.sigma2.shape == want.shape
    assert np.abs(vmap.sigma2 - want).max() <= 1e-14 * vmap.total
    assert abs(variance_closure_residual(t, vmap) - whole_slab_closure(t, vmap)) <= 1e-15
    checks = {c.name: c for c in check_add_structure(t)}
    zero, label, exact = whole_slab_structure(t)
    assert abs(checks["add_zero_mean"].residual - zero) <= 1e-15
    assert checks["add_zero_mean"].detail == label
    assert abs(checks["add_grid_exactness"].residual - exact) <= 1e-15


def skip_second_piece(real):
    def run(A, rows, f, block):
        pieces = itertools.count()

        def skipping(piece, out):
            out = f(piece, out)
            if next(pieces) == 1:
                out[...] = 0.0
            return out

        return real(A, rows, skipping, block)

    return run


def drop_a_leading_weight(real):
    # axis 0 is always a leading axis: its node 0 leaves the Gauss sums
    def run(A, rows, f, block):
        first = rows[0].copy()
        first[-1, 0] = 0.0
        return real(A, [first, *rows[1:]], f, block)

    return run


def take_a_wrong_corner(real):
    # the slot of axis 0, a leading axis, read from its node 0
    def run(T, Y, block):
        T = T.copy()
        T[-1] = T[0]
        return real(T, Y, block)

    return run


@pytest.mark.parametrize(
    "module, name, fault",
    [
        (variance, "_kron_map", skip_second_piece),
        (variance, "_kron_map", drop_a_leading_weight),
        (decomp, "_grid_gap", take_a_wrong_corner),
    ],
)
def test_roundoff_bounds_catch_a_faulty_piece(monkeypatch, module, name, fault):
    t = build_add(sobol_g_problem(4, quad_order=8))
    monkeypatch.setattr(decomp, "_BLOCK_VALUES", 64)
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    with pytest.raises(AssertionError):
        assert_near_whole_slab_passes(t)


@pytest.mark.parametrize("block", [None, 64])
def test_block_zero_means_keep_the_label_of_a_nan(monkeypatch, block):
    # NaN entries in two slabs, and in slab 7 two whose subsets differ, far
    # apart in the last part of that slab: the whole-slab pass names that
    # part's first NaN
    t = build_add(product_linear_problem(6, quad_order=10))
    t._array[2, 3, 1, 0, 4, 5] = np.nan
    t._array[7, 1, 2, 3, 0, 9] = np.nan
    t._array[7, 6, 2, 10, 0, 9] = np.nan
    if block:
        monkeypatch.setattr(decomp, "_BLOCK_VALUES", block)
    got = check_add_structure(t)[0]
    zero, label, _ = whole_slab_structure(t)
    assert math.isnan(got.residual) and math.isnan(zero)
    assert got.detail == label


@pytest.mark.parametrize(
    "name", ["variance_components", "variance_closure_residual", "check_add_structure"]
)
def test_table_passes_hold_a_few_blocks_above_table_and_grid(name):
    # 3**12 and 11**6 table values, slabs of 1.35 and 1.23 MiB: each pass
    # holds at most four blocks (2 MiB) beyond the table and its grid, the
    # variances' result included, where whole-slab passes took 2.3-2.7 MiB
    for N, q in [(12, 2), (6, 10)]:
        t = build_add(product_linear_problem(N, quad_order=q))
        vmap = variance_components(t)
        run = {
            "variance_components": lambda: variance_components(t, check_closure=False),
            "variance_closure_residual": lambda: variance_closure_residual(t, vmap),
            "check_add_structure": lambda: check_add_structure(t),
        }[name]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * decomp._BLOCK_VALUES * 8, (N, q)


def test_kron_map_chunks_stay_within_a_block_at_every_admitted_shape():
    # at every shape build_add admits, both chunk arrays of _kron_map for
    # the split rows stay within a block: the Kronecker columns (2**t rows
    # by the chunk's leading tuples) and the mapped runs (the chunk's
    # tuples by 2**(N - t)).  One witness of the fewest axes in
    # [2, GAUSS_MAX_ORDER + 1] stands for each trailing size s <= block;
    # in front of it, the shortest last leading axis n with n * s > block
    # and as many leading 2s as the table budget allows give the most rows
    # (with no such n, t = 1)
    block, cap = decomp._BLOCK_VALUES, decomp.MAX_TABLE_VALUES
    axes = range(2, GAUSS_MAX_ORDER + 2)
    witness, frontier = {}, {1: ()}
    while frontier:
        frontier = {
            s * n: (n,) + w
            for s, w in frontier.items()
            for n in axes
            if s * n <= block and s * n not in witness
        }
        witness.update(frontier)
    largest = 0
    for s, w in witness.items():
        n = block // s + 1
        heads = [(2,) * ((cap // (n * s)).bit_length() - 1) + (n,)] if n in axes else []
        for shape in [w] + [head + w for head in heads]:
            t = max(1, passes._trailing_block(shape, block))
            lead, size = math.prod(shape[:t]), math.prod(shape[t:])
            M, R = 2**t, 2 ** (len(shape) - t)
            step = min(lead, max(1, block // size))
            chunk = min(lead, step * max(1, block // (step * max(M, R))))
            largest = max(largest, M * chunk, chunk * R)
    assert largest <= block


def test_table_passes_keep_no_reference_to_the_table():
    # with the cyclic collector off, the table array goes as soon as its
    # last owner drops it: no pass leaves a cycle holding a view of it
    t = build_add(product_linear_problem(7, quad_order=2))
    array = weakref.ref(t._array)
    gc.disable()
    try:
        vmap = variance_components(t)
        check_add_structure(t)
        sobol_D(t)
        check_rdd_on_grid(t, seed=1)
        del t
        assert array() is None
    finally:
        gc.enable()
    assert vmap.total > 0


@pytest.mark.parametrize(
    "N, S", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (6, 2), (10, 3), (70, 2)]
)
def test_axis_passes_pair_each_subset_with_its_partner(N, S):
    # the (hold, drop) arrays of a list-built reference, on full lattices
    # and truncated ones in (cardinality, mask) order, masks past 62 bits too
    masks = [u.mask for u in all_subsets_up_to(N, S)]
    at = {m: k for k, m in enumerate(masks)}
    pairs = [[(k, at[m ^ 1 << j]) for k, m in enumerate(masks) if m >> j & 1] for j in range(N)]
    want = [tuple(np.array(p).T) for p in pairs if p]
    got = decomp._axis_passes(masks, N)
    assert len(got) == len(want) == N
    for (hold, drop), (h, d) in zip(got, want):
        np.testing.assert_array_equal(hold, h)
        np.testing.assert_array_equal(drop, d)


@pytest.mark.parametrize("block", [1, 13, 1 << 16])
def test_axis_passes_in_slices_give_the_whole_pass_components(monkeypatch, block):
    # a pass reads no entry it writes, so slices of its pairs of about one
    # block give every component bit for bit as the whole-array pass of
    # the reference, whatever the row blocks: 1 row and 1 pair a slice,
    # 2 rows and 6 pairs, or one block for all
    problem = sobol_g_problem(6, a=[0.0, 1.0, 2.0, 4.0, 9.0, 99.0])
    X = problem.measure.sample(rng(2), 5)
    c = problem.measure.sample(rng(3))
    masks = [u.mask for u in all_subsets_up_to(6, 4)]
    ((_, values),) = decomp._anchored(problem, c, X, masks)
    want = np.array(list(values))
    for hold, drop in decomp._axis_passes(masks, 6):
        want[hold] -= want[drop]
    monkeypatch.setattr(decomp, "_BLOCK_VALUES", block)
    got = np.full_like(want, np.nan)
    for rows, comps in decomp._rdd_components(problem, c, X, masks):
        got[:, rows] = comps
    assert np.array_equal(got, want)


@pytest.mark.parametrize("N", [3, 5])
def test_anchored_checks_take_points_in_groups_of_the_table_budget(monkeypatch, N):
    # a budget of 7 points' components: 15 groups of the 100 points, every
    # residual and label bit for bit as one group gives them, and one
    # kernel pass of 2**N calls per group
    problem, seen = counted(product_linear_problem(N, quad_order=4))
    rdd = build_rdd(problem, problem.measure.sample(rng(3)))
    add = build_add(problem)
    want = check_rdd_structure(rdd, seed=3) + [check_rdd_on_grid(add, seed=3)]
    monkeypatch.setattr(decomp, "MAX_TABLE_VALUES", 7 << N)
    seen.clear()
    got = check_rdd_structure(rdd, seed=3) + [check_rdd_on_grid(add, seed=3)]
    assert [(c.residual, c.detail) for c in got] == [(c.residual, c.detail) for c in want]
    calls = [rows for rows in [7] * 14 + [2] for _ in range(2**N)]
    assert [len(x) for x in seen] == calls + [100] + calls


@pytest.mark.parametrize(
    "name, arrays, N, q, points",
    [
        ("check_rdd_structure", 1, 14, 1, 100),
        ("check_rdd_on_grid", 2, 14, 1, 100),
        ("check_rdd_on_grid", 2, 10, 4, 100),
        ("check_rdd_structure", 1, 14, 1, 50),
        ("check_rdd_on_grid", 2, 14, 1, 50),
    ],
)
def test_anchored_checks_hold_their_lattice_arrays_and_little_more(
    monkeypatch, name, arrays, N, q, points
):
    # one (2**N, points) float array is 12.5 MiB at N = 14 and 100 points:
    # the full sum holds the components, the grid check the gathered grid
    # values too.  6 MiB of slack cover the rest: the axis passes' index
    # pairs (1.75 MiB), the mask list and the points.  Per-subset objects
    # and full-size pass temporaries took the peaks to 38 and 50 MiB; a
    # table-sized reference at N = 10, q = 4 to 76 MiB.  With a budget of
    # 50 points' components, the 100 points go in two groups, and each
    # group's arrays are dropped before the next group's are made
    problem = product_linear_problem(N, quad_order=q)
    if name == "check_rdd_structure":
        check, table = check_rdd_structure, build_rdd(problem, problem.measure.sample(rng(0)))
    else:
        check, table = check_rdd_on_grid, build_add(problem)
    monkeypatch.setattr(decomp, "MAX_TABLE_VALUES", points << N)
    tracemalloc.start()
    try:
        got = check(table, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in np.atleast_1d(got)), got
    assert peak <= arrays * (8 << N) * points + 6 * 2**20, peak / 2**20


def test_sweep_writes_every_entry_before_reading_it(monkeypatch):
    # the table starts uninitialized: poisoned with NaN, both sweeps of
    # the package must still give every byte of a zero-started sweep
    add = build_add(product_linear_problem(4, quad_order=(3, 5, 2, 4)))
    Y = add._full_values

    def zeros_sweep(grid, rows):
        T = np.zeros(tuple(n + 1 for n in grid.shape))
        nodes = tuple(slice(0, n) for n in grid.shape)
        T[nodes] = grid
        for j in reversed(range(grid.ndim)):
            V = T.reshape(T.shape[: j + 1] + (-1,))[nodes[:j]]
            np.matmul(rows[j], V[..., :-1, :], out=V[..., -1, :])
            V[..., :-1, :] -= V[..., -1:, :]
        return T

    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    for rows in (
        [r.weights for r in add.problem.rules],
        [np.eye(len(r.weights))[k] for r, k in zip(add.problem.rules, (2, 0, 1, 3))],
    ):
        want = zeros_sweep(Y, rows)
        monkeypatch.setattr(np, "empty", poisoned)
        got = decomp._sweep(Y, rows)
        monkeypatch.undo()
        assert got.tobytes() == want.tobytes()


class TestFullGrid:
    @pytest.mark.parametrize("make", [product_linear_problem, sobol_g_problem])
    @pytest.mark.parametrize(
        "chunk, dim, q",
        [
            # a 10**4-point trailing block, one leading tuple per chunk
            (None, 6, 10),
            # a 3**7-point trailing block, 2 leading tuples per chunk and
            # a last chunk of 1
            (None, 10, 3),
            (None, 3, (7, 64, 50)),
            (None, 3, (64, 64, 3)),
            (None, 1, 13),
            # 7 rows per call, below one axis length: chunks of single
            # points, of one trailing block, or of several with a ragged
            # last one
            (7, 3, 10),
            (7, 2, (5, 3)),
            (7, 4, (7, 12, 5, 9)),
            (7, 1, 13),
        ],
    )
    def test_target_on_meshgrid_points_in_bounded_calls(
        self, monkeypatch, make, chunk, dim, q
    ):
        if chunk is not None:
            monkeypatch.setattr(decomp, "_BLOCK_VALUES", chunk * dim)
        problem = make(dim, quad_order=q)
        p, seen = counted(problem)
        got = decomp._evaluate_full_grid(p)
        mesh = np.meshgrid(*[r.nodes for r in p.rules], indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, dim)
        assert np.array_equal(got, problem.function(pts).reshape(p.orders))
        # each point once, in C order, in calls of at most one chunk
        start = 0
        for rows in seen:
            assert len(rows) <= decomp._block_rows(math.prod(p.orders), dim)
            assert np.array_equal(rows, pts[start : start + len(rows)])
            start += len(rows)
        assert start == math.prod(p.orders)

    def test_target_returning_a_view_of_its_batch(self):
        # y = x_1, a leading column the next chunk rewrites
        p = product_linear_problem(6)
        p = ProblemSpec(lambda x: x[..., 0], p.measure, p.quad_order)
        want = np.broadcast_to(p.rules[0].nodes[:, None], (10, 10**5)).reshape(p.orders)
        assert np.array_equal(decomp._evaluate_full_grid(p), want)


class TestAddEvaluation:
    """The table answers on its own grid: ``truncated(order)`` is the
    S-variate sum at every node, from the stored values alone."""

    @pytest.fixture(scope="class")
    def tables(self, plin3_table):
        # mixed orders catch any mix-up of axes in the broadcast
        return [plin3_table, build_add(sobol_g_problem(4, quad_order=(3, 5, 2, 4)))]

    def test_truncated_full_order_reproduces_grid_points(self, tables):
        for t in tables:
            got = t.truncated(t.dim)
            assert got.shape == t.problem.orders
            assert np.max(np.abs(got - t._full_values)) <= decomp.TOL_EXACTNESS * t.scale

    def test_truncated_zero_order_is_the_mean(self, tables):
        for t in tables:
            got = t.truncated(0)
            assert got.shape == t.problem.orders
            assert np.all(got == t.y_empty)

    def test_truncated_adds_each_cardinality(self, tables):
        # at node multi-index I the sum takes y_u[I_u] of each component in
        # (cardinality, mask) order, bit for bit
        for t in tables:
            I = np.indices(t.problem.orders)
            for order in range(t.dim + 1):
                want = np.full(I.shape[1:], t.y_empty)
                for u in all_subsets_up_to(t.dim, order):
                    if not u.is_empty:
                        want += t.grid_values(u)[tuple(I[j] for j in u.indices())]
                assert np.array_equal(t.truncated(order), want), (t.dim, order)

    def test_queries_call_no_target(self):
        # the table answers from its stored values alone
        p, seen = counted(product_linear_problem(3, quad_order=5))
        table = build_add(p)
        seen.clear()
        for order in range(4):
            table.truncated(order)
        for u in all_subsets_up_to(3, 3):
            table.grid_values(u)
        assert seen == []

    def test_subset_of_another_dimension_is_rejected(self, plin3_table):
        # its mask bits would otherwise select a component of this table
        for u in (VariableSubset.from_indices([0], 2), VariableSubset.from_indices([0, 3], 4)):
            with pytest.raises(ValueError, match="subset dimension"):
                plin3_table.grid_values(u)

    def test_order_out_of_range(self, plin3_table):
        assert plin3_table.truncated(3).shape == (10, 10, 10)
        with pytest.raises(ValueError):
            plin3_table.truncated(4)
        with pytest.raises(ValueError):
            plin3_table.truncated(-1)
        with pytest.raises(ValueError, match="integer"):
            plin3_table.truncated(1.5)
        with pytest.raises(ValueError, match="integer"):
            plin3_table.truncated((1,))


def kernel_component(problem, anchor, u, X_u):
    """The anchored component of `u` at the rows of `X_u` (columns in
    ``u.indices()`` order), by one pass of the anchored kernel over the
    lattice of `u` at rows that start at `anchor`."""
    c = np.asarray(anchor, dtype=float)
    X_u = np.atleast_2d(np.asarray(X_u, dtype=float))
    Z = np.tile(c, (len(X_u), 1))
    Z[:, u.indices()] = X_u
    out = np.empty(len(Z))
    lattice = [v.mask for v in (*strict_subsets(u), u)]
    for rows, comps in decomp._rdd_components(problem, c, Z, lattice):
        out[rows] = comps[-1]
    return out


def grid_draws(problem, seed):
    """The node anchor and the 100 node points of ``check_rdd_on_grid(...,
    seed=seed)``, as node indices, drawn with the Gauss weights."""
    g = np.random.default_rng(seed)
    draws = [g.choice(len(r.weights), size=101, p=r.weights) for r in problem.rules]
    idx = np.column_stack(draws)
    return idx[0], idx[1:]


class TestRddBuild:
    def test_product_components_at_zero_anchor(self, plin3):
        c = np.zeros(3)
        t = build_rdd(plin3, c)
        assert t.y_empty == pytest.approx(1.0)
        assert explicit_component(plin3, VariableSubset.empty(3), [], anchor=c) == t.y_empty
        u = VariableSubset.from_indices([1], 3)
        assert explicit_component(plin3, u, [0.7], anchor=c) == pytest.approx(0.7)
        u = VariableSubset.from_indices([0, 2], 3)
        # (1+x0)(1+x2) - 1 - x0 - x2 = x0 x2
        assert explicit_component(plin3, u, [0.5, -0.4], anchor=c) == pytest.approx(-0.2)

    def test_annihilation_at_anchor_coordinate(self, plin3):
        c = np.array([0.3, -0.1, 0.8])
        u = VariableSubset.from_indices([0], 3)
        assert explicit_component(plin3, u, [c[0]], anchor=c) == pytest.approx(0.0, abs=1e-14)
        u = VariableSubset.from_indices([0, 1], 3)
        # pinning either own coordinate kills the component, in both routes
        for x_u in ([c[0], 0.9], [0.9, c[1]]):
            assert explicit_component(plin3, u, x_u, anchor=c) == pytest.approx(0.0, abs=1e-13)
            assert kernel_component(plin3, c, u, x_u)[0] == pytest.approx(0.0, abs=1e-13)

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
            for v in [*strict_subsets(u), u]:
                if v.is_empty:
                    continue
                pos = [coords.index(j) for j in v.indices()]
                total += explicit_component(plin3, v, x_u[pos], anchor=c)
            assert total == pytest.approx(anchored, rel=1e-12)

    def test_structure_checks_pass(self, plin3, plin3_table):
        t = build_rdd(plin3, np.array([0.1, 0.2, 0.3]))
        for c in [*check_rdd_structure(t, seed=7), check_rdd_on_grid(plin3_table, seed=7)]:
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
    def test_annihilation_from_one_lattice_pass(self, make, seed):
        # the grid check reads every point's components from one kernel
        # pass over the full lattice at the node points; the row-by-row
        # reference below (one kernel pass per point, the swept table read
        # through grid_values) must give the same residual and label, bit
        # for bit, and every component with an own coordinate at the
        # anchor's node is exactly 0 in the swept table
        problem, seen = counted(make())
        N = problem.dim
        rdd = build_rdd(problem, problem.measure.sample(rng(seed)))
        add = build_add(problem)
        seen.clear()
        check_rdd_structure(rdd, seed=seed)
        got = check_rdd_on_grid(add, seed=seed)
        # the full sum and the node points take one call of 100 rows per
        # subset of all N each, and y(X) one more
        assert [len(x) for x in seen] == [100] * (2 ** (N + 1) + 1)

        a, I = grid_draws(problem, seed)
        table = node_anchored_table(add, a)
        nodes = [r.nodes for r in problem.rules]
        c = np.array([x[k] for x, k in zip(nodes, a)])
        lattice = list(all_subsets_up_to(N, N))
        resid = np.empty((len(lattice), 100))
        hits = 0
        for k, at in enumerate(I):
            x = np.array([[x[i] for x, i in zip(nodes, at)]])
            ((_, comps),) = decomp._rdd_components(problem, c, x, [u.mask for u in lattice])
            for n, (u, comp) in enumerate(zip(lattice, comps[:, 0])):
                own = list(u.indices())
                value = table.grid_values(u)
                value = value if u.is_empty else value[tuple(at[own])]
                resid[n, k] = abs(comp - value)
                if np.any(at[own] == a[own]):
                    assert value == 0.0, (u.label(), k)
                    hits += 1
        assert hits > 0
        n = int(np.argmax(resid))
        Y = add._full_values
        scale = max(1.0, float(Y.max()), -float(Y.min()))
        want = (resid.flat[n] / scale, f"subset {lattice[n // 100].label()}")
        assert (got.residual, got.detail) == want
        assert got.passed, got

    def test_annihilation_catches_a_broken_axis_pass(self, plin3_table, monkeypatch):
        # axis passes that never subtract the constant component leave y(c)
        # in every univariate component of the kernel
        real = decomp._axis_passes

        def broken(masks, dim):
            empty = [k for k, m in enumerate(masks) if m == 0]
            return [(h[~np.isin(d, empty)], d[~np.isin(d, empty)]) for h, d in real(masks, dim)]

        monkeypatch.setattr(decomp, "_axis_passes", broken)
        got = check_rdd_on_grid(plin3_table, seed=7)
        assert not got.passed
        assert got.residual > 1e3 * got.tolerance
        assert re.fullmatch(r"subset \[[1-3](,[1-3])*\]", got.detail)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_fails_annihilation(self, plin3_table, monkeypatch):
        # the component passes overflow to inf - inf, in the kernel and the
        # Möbius sums alike
        fn = make_function("poly", 2, terms=[{"coeff": 1.7e308, "exponents": [1, 0]}])
        p = ProblemSpec(fn, ProductMeasure.iid(MarginalMeasure.uniform(-1.0, 1.0), 2), 4)
        t = build_rdd(p, np.array([-0.99, 0.0]))
        (full,) = check_rdd_structure(t, seed=0)
        assert math.isnan(full.residual)
        got = check_rdd_on_grid(build_add(p), seed=0)
        assert math.isnan(got.residual)
        assert not got.passed
        assert re.fullmatch(r"subset \[[12](,2)?\]", got.detail)
        # one NaN among finite residuals is the worst, and its subset the label
        real = decomp._rdd_components

        def one_nan(problem, anchor, X, masks):
            for rows, comps in real(problem, anchor, X, masks):
                comps[5, 0] = np.nan
                yield rows, comps

        monkeypatch.setattr(decomp, "_rdd_components", one_nan)
        got = check_rdd_on_grid(plin3_table, seed=0)
        assert math.isnan(got.residual) and not got.passed
        assert got.detail == f"subset {list(all_subsets_up_to(3, 3))[5].label()}"

    @pytest.mark.parametrize("fault", ["node_one_off", "wrong_axis", "batch_dependent"])
    def test_grid_agreement_catches_a_fault(self, plin3, monkeypatch, fault):
        # each fault breaks one route: the reference gathered at an anchor
        # one node off on the first axis, one Möbius pass of the reference
        # run on the wrong axis (the first pass's axis on the second), or a
        # target whose values depend on the rows of their batch
        problem = plin3
        if fault == "node_one_off":
            real = decomp._lattice_values
            monkeypatch.setattr(
                decomp,
                "_lattice_values",
                lambda T, idx, off: real(T, idx, [(off[0] + 1) % T.shape[0], *off[1:]]),
            )
        elif fault == "wrong_axis":
            # the Möbius passes take their (before, 2, after) views from
            # the module's _around, axis 0 first
            real = decomp._around
            monkeypatch.setattr(decomp, "_around", lambda arr, k: real(arr, k or 1))
        else:
            def function(x):
                y = plin3.function(x)
                return y + 1e-3 * np.mean(y)

            problem = ProblemSpec(function, plin3.measure, plin3.quad_order)
        got = check_rdd_on_grid(build_add(problem), seed=7)
        assert not got.passed
        assert got.residual > 1e3 * got.tolerance
        assert re.fullmatch(r"subset \[[1-3]?(,[1-3])*\]", got.detail)

    @pytest.mark.parametrize(
        "make", [lambda: product_linear_problem(3, quad_order=(5, 3, 4)),
                 lambda: sobol_g_problem(4, quad_order=5), lambda: ishigami_problem(6)]
    )
    def test_one_hot_sweep_is_exact(self, make):
        # the sweep with one-hot rows copies node a_j's slice into the slot
        # of axis j: fixing x_j at the anchor leaves the anchored table of
        # the slice, bit for bit, and every component with an own
        # coordinate at a_j is exactly 0
        add = build_add(make())
        Y = add._full_values
        rules = add.problem.rules
        g = rng(4)
        for _ in range(3):
            a = [int(g.integers(len(r.weights))) for r in rules]
            table = node_anchored_table(add, a)
            T = table._array
            assert table.y_empty == Y[tuple(a)]
            rows = [np.eye(len(r.weights))[k] for r, k in zip(rules, a)]
            for j, (r, k) in enumerate(zip(rules, a)):
                sliced = decomp._sweep(np.take(Y, k, axis=j), rows[:j] + rows[j + 1 :])
                assert np.array_equal(np.take(T, len(r.weights), axis=j), sliced)
                assert np.all(np.take(T, k, axis=j) == 0.0)
            r = np.max(np.abs(table.truncated(add.dim) - Y))
            assert r <= decomp.TOL_EXACTNESS * max(1.0, float(np.max(np.abs(Y))))

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

    @pytest.mark.parametrize(
        "dim,order,blocks",
        [
            (5, 2, {1: [1], 7: [7], 20_000: [10_000] * 2}),
            (20, 2, {1: [1], 7: [7], 20_000: [5_000] * 4}),
            (100, 1, {1: [1], 7: [7], 20_000: [646] * 30 + [620]}),
        ],
    )
    def test_block_rows_are_pinned(self, dim, order, blocks):
        # 2**16 values per block, raised to 5 000 rows where that costs at
        # most three times the budget (N <= 39); a batch of m rows splits
        # into ceil(m / cap) blocks of ceil(m / blocks) rows, every subset
        # of a block in one call: m * count_up_to(N, S) rows in all
        base = product_linear_problem(dim)
        rows = []

        def function(x):
            rows.append(len(x))
            return base.function(x)

        p = ProblemSpec(function, base.measure, base.quad_order)
        per_point = count_up_to(dim, order)
        g = rng(dim)
        for m, want in blocks.items():
            X = g.uniform(-1.0, 1.0, (m, dim))
            C = g.uniform(-1.0, 1.0, (m, dim))
            rows.clear()
            rdd_direct(p, order, C, X)
            assert rows == [r for r in want for _ in range(per_point)]
            assert sum(rows) == m * per_point

    def test_several_blocks_bitwise_equal_to_refilled_reference(self):
        # N = 20, 20 000 rows: four blocks against one C-ordered batch; the
        # blocks of a column-major batch are read in place, others copied
        dim, order, m = 20, 2, 20_000
        p = product_linear_problem(dim)
        g = rng(33)
        X = g.uniform(-1.0, 1.0, (m, dim))
        C = g.uniform(-1.0, 1.0, (m, dim))
        for anchor in (C[0], C):
            want = reference_rdd_direct(p, order, anchor, X)
            for layout in (np.ascontiguousarray, np.asfortranarray):
                got = rdd_direct(p, order, layout(anchor), layout(X))
                assert np.array_equal(got, want)

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
                [table.truncated(s, X) for s in range(dim + 1)],
                kernel_component(p, C[0], u, X[:, [1, 3, 4]]),
                check_form_equivalence(p, order, seed=5).residual,
            )

        monkeypatch.setattr(decomp, "FORM_EQUIVALENCE_PAIRS", m)

        whole = routes()
        monkeypatch.setattr(decomp, "_BLOCK_VALUES", block_rows * dim)
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
        monkeypatch.setattr(decomp, "_BLOCK_VALUES", block_rows * dim)
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

    @pytest.mark.parametrize("block_rows", [None, 7])
    @pytest.mark.parametrize(
        "make,dim,orders",
        [
            (product_linear_problem, 5, range(5)),
            (product_linear_problem, 5, (3, 0, 3, 1)),
            (sobol_g_problem, 6, (2, 4)),
            (sobol_g_problem, 20, (0, 2, 1)),
        ],
    )
    def test_sums_equal_one_call_per_order(self, monkeypatch, block_rows, make, dim, orders):
        # one anchored pass serves every order, bit for bit, and evaluates
        # only the subsets of the largest order: m * count_up_to(N, S_max) rows
        m = 50
        if block_rows is not None:
            monkeypatch.setattr(decomp, "_BLOCK_VALUES", block_rows * dim)
        lo = -1.0 if make is product_linear_problem else 0.0
        g = rng(dim)
        X = g.uniform(lo, 1.0, (m, dim))
        C = g.uniform(lo, 1.0, (m, dim))
        p, seen = counted(make(dim))
        for anchor in (C[0], C):
            seen.clear()
            got = rdd_direct_sums(p, orders, anchor, X)
            assert sum(len(b) for b in seen) == m * count_up_to(dim, max(orders))
            assert max(len(b) for b in seen) <= (block_rows or m)
            want = [rdd_direct(p, S, anchor, X) for S in orders]
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        point = rdd_direct_sums(p, orders, C[0], X[0])
        assert point == [rdd_direct(p, S, C[0], X[0]) for S in orders]
        assert all(isinstance(v, float) for v in point)

    def test_sums_check_orders_before_any_target_call(self):
        p, seen = counted(product_linear_problem(3))
        for bad in ((), 1, (1, 3), (-1,), (1.5,), (True,), None):
            with pytest.raises(ValueError):
                rdd_direct_sums(p, bad, np.zeros(3), np.zeros(3))
        # the single-order route takes one integer order, never a sequence
        for bad in ((1,), [0, 1], np.arange(2)):
            with pytest.raises(ValueError):
                rdd_direct(p, bad, np.zeros(3), np.zeros(3))
        assert seen == []

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

    def test_optimality_split_at_five_variables_order_six_stays_under_24_mib(self):
        # the sampled gates read no table: their chunk of points, one anchor
        # batch at a time and the anchored sums stay below 24 MiB
        p = product_linear_problem(5, quad_order=6)
        vmap = variance_components(build_add(p))
        budgets = [rdd_expected_error(s, vmap) for s in range(5)]
        tracemalloc.start()
        try:
            check_optimality_split(p, budgets, 100_000, seed=3)
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
                    "mc": {"n_samples": 10_000},
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
        # the kernel and the tensor grid reuse their buffers: a target that
        # wrote into one would corrupt later evaluations, so it sees a
        # read-only view
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
            explicit_component(p, u, X[0, [0, 2]], anchor=c)
        with pytest.raises(ValueError, match="read-only"):
            build_add(p)

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
            idx = tuple(int(g.integers(10)) for _ in coords)
            x_u = np.array([nodes[j][i] for j, i in zip(coords, idx)])
            direct = explicit_component(plin3, u, x_u)
            recursive = float(plin3_table.grid_values(u)[idx])
            assert direct == pytest.approx(recursive, abs=1e-12)

    def test_rdd_route_agrees_with_table(self):
        p = sobol_g_problem(4)
        g = rng(19)
        c = g.uniform(0.0, 1.0, 4)
        for _ in range(50):
            size = int(g.integers(1, 5))
            coords = tuple(sorted(g.choice(4, size=size, replace=False).tolist()))
            u = VariableSubset.from_indices(coords, 4)
            x_u = g.uniform(0.0, 1.0, size)
            direct = explicit_component(p, u, x_u, anchor=c)
            recursive = kernel_component(p, c, u, x_u)[0]
            assert direct == pytest.approx(recursive, rel=1e-10, abs=1e-12)

    def test_rdd_route_agrees_with_table_on_every_subset(self):
        # the axis passes against the alternating sum, N = 6 in full
        p = sobol_g_problem(6)
        g = rng(23)
        c = g.uniform(0.0, 1.0, 6)
        for u in all_subsets_up_to(6, 6):
            if u.is_empty:
                continue
            x_u = g.uniform(0.0, 1.0, u.cardinality)
            direct = explicit_component(p, u, x_u, anchor=c)
            assert abs(direct - kernel_component(p, c, u, x_u)[0]) <= 1e-12, u.label()

    @pytest.mark.parametrize("coords", [(0,), (1, 3), (0, 2, 3), (0, 1, 2, 3)])
    def test_target_rows_match_the_closed_forms(self, coords):
        # ADD: one conditional mean on the complement grid of each v ⊆ u,
        # sum_{v⊆u} prod_{j∉v} q_j rows; RDD: one anchored row per v ⊆ u
        p, seen = counted(poly_problem(4, quad_order=(2, 3, 4, 5)))
        u = VariableSubset.from_indices(coords, 4)
        x_u = [0.1 * (k + 1) for k in range(u.cardinality)]
        explicit_component(p, u, x_u)
        lattice = [*strict_subsets(u), u]
        want = sum(
            math.prod(q for j, q in enumerate(p.orders) if j not in v.indices()) for v in lattice
        )
        assert sum(map(len, seen)) == want
        seen.clear()
        explicit_component(p, u, x_u, anchor=np.zeros(4))
        assert sum(map(len, seen)) == 2 ** u.cardinality

    def test_add_route_budget_counts_without_overflow(self):
        # 16**16 = 2**64 points wrap to 0 in int64 arithmetic and would pass
        # the budget check
        p, seen = counted(product_linear_problem(17, quad_order=16))
        u = VariableSubset.from_indices([1], 17)
        with pytest.raises(ValueError, match="budget"):
            explicit_component(p, u, [0.5])
        assert seen == []

    def test_empty_subset_gives_the_mean(self, plin3):
        u = VariableSubset.empty(3)
        got = explicit_component(plin3, u, np.array([]))
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_validation(self, plin3):
        u = VariableSubset.from_indices([0], 3)
        with pytest.raises(ValueError):
            explicit_component(plin3, u, np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            explicit_component(plin3, u, np.array([0.1]), anchor=np.zeros(2))
        with pytest.raises(ValueError):
            explicit_component(plin3, u, np.array([0.1]), anchor=BAD_ANCHOR)


def reference_form_residual(problem, order, n_pairs, seed):
    """The pair-by-pair form check: one RDD table and one point per pair,
    the anchors and then the points drawn as two batches."""
    g = np.random.default_rng(seed)
    C = problem.measure.sample(g, n_pairs)
    X = problem.measure.sample(g, n_pairs)
    worst = 0.0
    for c, x in zip(C, X):
        a = build_rdd(problem, c).truncated(order, x)
        b = rdd_direct(problem, order, c, x)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst


class TestFormEquivalence:
    @pytest.mark.parametrize("dim,order", [(4, 0), (4, 2), (6, 3)])
    def test_routes_agree(self, monkeypatch, dim, order):
        monkeypatch.setattr(decomp, "FORM_EQUIVALENCE_PAIRS", 20)
        p = product_linear_problem(dim)
        res = check_form_equivalence(p, order, seed=dim * 10 + order)
        assert res.passed, res
        assert res.detail == "20 anchor/point pairs"

    @pytest.mark.parametrize(
        "make,orders",
        [
            (lambda: product_linear_problem(5), (0, 1, 2, 3)),
            (lambda: sobol_g_problem(4), (1, 2, 3)),
            (ishigami_problem, (1, 2)),
        ],
    )
    def test_batch_equals_pair_by_pair_reference(self, monkeypatch, make, orders):
        monkeypatch.setattr(decomp, "FORM_EQUIVALENCE_PAIRS", 50)
        p = make()
        for order in orders:
            res = check_form_equivalence(p, order, seed=order + 3)
            assert res.residual == reference_form_residual(p, order, 50, order + 3)
            assert res.passed, res

    @pytest.mark.parametrize("dim,order", [(3, 0), (5, 2), (6, 3)])
    def test_one_target_call_per_subset_and_route(self, monkeypatch, dim, order):
        monkeypatch.setattr(decomp, "FORM_EQUIVALENCE_PAIRS", 17)
        p, seen = counted(product_linear_problem(dim))
        check_form_equivalence(p, order, seed=1)
        assert [b.shape for b in seen] == [(17, dim)] * (2 * count_up_to(dim, order))


class TestAnchoredTable:
    def test_read_only_anchor_and_validation(self, plin3):
        c = np.zeros(3)
        t = build_rdd(plin3, c)
        assert type(t) is AnchoredTable
        x = np.array([0.4, -0.3, 0.1])
        assert t.truncated(1, x) == pytest.approx(rdd_direct(plin3, 1, np.zeros(3), x))
        # the table freezes its own copy, not the caller's array
        assert c.flags.writeable and not t.anchor.flags.writeable
        c[0] = 0.5
        assert t.anchor[0] == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.anchor = np.ones(3)
        for bad in (4, -1, 1.5, True):
            with pytest.raises(ValueError, match="truncation order"):
                t.truncated(bad, x)
        assert t.truncated(np.int64(1), x) == t.truncated(1, x)
        # order dim sums every component: the target itself
        assert t.truncated(3, x) == pytest.approx(float(plin3.evaluate(x)), rel=1e-14)
        with pytest.raises(ValueError):
            AnchoredTable(plin3, BAD_ANCHOR)
        with pytest.raises(ValueError):
            AnchoredTable(plin3, np.zeros(2))
        p = sobol_g_problem(3)
        with pytest.raises(ValueError, match="support"):
            AnchoredTable(p, np.array([2.0, 0.5, 0.5]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 15), st.data())
def test_rdd_annihilation_property(mask, data):
    # pin one own coordinate of a random component at the anchor: it dies
    p = product_linear_problem(4)
    c = np.array([0.15, -0.35, 0.55, -0.75])
    u = VariableSubset(mask, 4)
    coords = u.indices()
    x_u = np.array(
        [data.draw(st.floats(-1.0, 1.0, allow_nan=False)) for _ in coords]
    )
    pin = data.draw(st.integers(0, len(coords) - 1))
    x_u[pin] = c[coords[pin]]
    assert abs(explicit_component(p, u, x_u, anchor=c)) <= 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda p, add, rdd: variance_components(rdd),
        lambda p, add, rdd: variance_closure_residual(rdd, variance_components(add)),
        lambda p, add, rdd: sobol_D(rdd),
        lambda p, add, rdd: check_add_structure(rdd),
        lambda p, add, rdd: mc_add_error(rdd, 1, 1000),
        lambda p, add, rdd: check_optimality_split(
            rdd, [rdd_expected_error(1, variance_components(add))], MIN_PAIRS, 0
        ),
        lambda p, add, rdd: check_rdd_structure(add),
        lambda p, add, rdd: check_rdd_on_grid(rdd, seed=0),
    ],
    ids=[
        "variance_components",
        "variance_closure_residual",
        "sobol_D",
        "check_add_structure",
        "mc_add_error",
        "check_optimality_split",
        "check_rdd_structure",
        "check_rdd_on_grid",
    ],
)
def test_table_of_the_other_decomposition_raises(plin3, plin3_table, call):
    # the table type carries the decomposition: an entry point given the
    # other type fails at the first attribute that type lacks, before any
    # target call
    p, seen = counted(plin3)
    add = ComponentTable(p, plin3_table._array, plin3_table._full_values)
    rdd = build_rdd(p, np.array([0.1, 0.2, 0.3]))
    seen.clear()
    with pytest.raises(AttributeError):
        call(p, add, rdd)
    assert seen == []


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


def test_output_shape_contract(plin3):
    # an (m, 1) output would broadcast against (m,) arrays downstream
    p = ProblemSpec(lambda x: plin3.function(x)[..., None], plin3.measure, 3)
    X = rng(7).uniform(-1.0, 1.0, (20, 3))
    match = r"returned shape \(\d+, 1\) .* expected \(\d+,\)"
    with pytest.raises(ValueError, match=match):
        mc_add_error(p, 1, 1000)
    with pytest.raises(ValueError, match=match):
        rdd_direct(p, 1, np.zeros(3), X)
    with pytest.raises(ValueError, match=match):
        build_add(p)


@pytest.mark.parametrize("chunk", [None, 8])
def test_every_batch_is_read_only_with_contiguous_columns(monkeypatch, chunk):
    # the batch contract of ProblemSpec on every path; at 8 rows per call
    # (every path), q = (5, 3, 4) gives 2 trailing blocks per grid chunk
    # and a last chunk of one
    if chunk is not None:
        monkeypatch.setattr(decomp, "_BLOCK_VALUES", chunk * 3)
    problem = product_linear_problem(3, quad_order=(5, 3, 4))
    rows = []

    def function(x):
        assert not x.flags.writeable
        assert all(x[:, j].flags.c_contiguous for j in range(x.shape[-1]))
        rows.append(len(x))
        return problem.function(x)

    p = ProblemSpec(function, problem.measure, problem.quad_order)
    table = build_add(p)
    assert sum(rows) == 60
    X = rng(8).uniform(-1.0, 1.0, (50, 3))
    c = np.array([0.25, -0.5, 0.75])
    rdd_direct_sums(p, [1, 2], c, X)
    rdd_direct_sums(p, [1, 2], X[::-1], X)
    mc_add_error(p, 2, 1000, 3)
    mc_expected_rdd_error(p, 2, MIN_PAIRS, 4)
    check_rdd_structure(build_rdd(p, c), seed=5)
    check_rdd_on_grid(table, seed=5)
    check_optimality_split(p, [rdd_expected_error(1, variance_components(table))], MIN_PAIRS, 6)
    u = VariableSubset.from_indices([0, 2], 3)
    explicit_component(p, u, [0.1, 0.2])
    explicit_component(p, u, [0.1, 0.2], anchor=c)


def test_every_path_calls_the_target_in_blocks_of_the_one_rule(monkeypatch):
    # grid, conditional-mean, sampled, anchored and direct paths alike: at
    # 16 rows per block no call holds more than the rule gives its batch (or
    # one block, where a path's batches differ in size), each path evaluates
    # as many rows as its pin says, and every result is bit for bit the
    # one of the default rule (one block per batch here)
    dim, n, block = 3, MIN_PAIRS, 16
    p, seen = counted(product_linear_problem(dim, quad_order=(5, 3, 4)))
    c = np.array([0.25, -0.5, 0.75])
    u = VariableSubset.from_indices([0, 2], dim)
    table = build_add(p)
    budgets = [rdd_expected_error(s, variance_components(table)) for s in range(dim)]
    grid_rows = [
        math.prod(q for j, q in enumerate(p.orders) if j not in v.indices())
        for v in [*strict_subsets(u), u]
    ]
    paths = {
        # name: (call, rows of its one batch size, rows in all)
        "build_add": (lambda: build_add(p)._array, 60, 60),
        "mc_expected_rdd_error": (
            lambda: mc_expected_rdd_error(p, 2, n, 4),
            n,
            n * (1 + count_up_to(dim, 2)),
        ),
        "check_optimality_split": (
            lambda: check_optimality_split(p, budgets, n, 6),
            n,
            n * (1 + 2 * count_up_to(dim, dim - 1)),
        ),
        "mc_rdd_error": (lambda: mc_rdd_error(p, 1, c, n, 5), n, n * (1 + count_up_to(dim, 1))),
        "explicit_component": (
            lambda: explicit_component(p, u, [0.1, 0.2]),
            None,
            sum(grid_rows),
        ),
        # points of more axes split as their (m, dim) rows
        "evaluate": (lambda: p.evaluate(rng(2).uniform(-1.0, 1.0, (25, 2, dim))), 50, 50),
        # 100 random points: 100 rows for y and 100 * 2**N for the full
        # sum, plus y(anchor)
        "check_rdd_structure": (
            lambda: check_rdd_structure(build_rdd(p, c), seed=5),
            None,
            1 + 100 + 100 * 2**dim,
        ),
        # 100 node points: 100 rows per subset of all N, on a prebuilt table
        "check_rdd_on_grid": (lambda: check_rdd_on_grid(table, seed=5), 100, 100 * 2**dim),
    }

    def run():
        out = {}
        for name, (call, _, _) in paths.items():
            seen.clear()
            out[name] = (call(), [len(b) for b in seen])
        return out

    whole = run()
    assert whole["check_rdd_on_grid"][1] == [100] * 2**dim
    monkeypatch.setattr(decomp, "_BLOCK_VALUES", block * dim)
    blocked = run()
    for name, (_, m, total) in paths.items():
        got, rows = blocked[name]
        want, whole_rows = whole[name]
        assert max(rows) <= (block if m is None else decomp._block_rows(m, dim)) <= block, name
        assert len(rows) > len(whole_rows), name
        assert sum(rows) == sum(whole_rows), name
        if total is not None:
            assert sum(rows) == total, name
        if isinstance(got, np.ndarray):
            assert np.array_equal(got, want), name
        else:
            assert got == want, name
