from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimdecomp import (
    MarginalMeasure,
    ProblemSpec,
    ProductMeasure,
    VariableSubset,
    all_subsets_up_to,
    build_add,
    make_function,
    sobol_D,
    sobol_indices,
    variance_closure_residual,
    variance_components,
)
from dimdecomp.decomp import _axis_map, _expectation
from dimdecomp.variance import CLOSURE_RTOL
from tests.conftest import counted, product_linear_problem, sobol_g_problem


class TestProductLinearOracle:
    # y = prod(1 + x_i), x_i ~ U(-1,1): sigma_u^2 = 3^{-|u|} and the
    # total is (4/3)^N - 1 -- both derivable by hand from E[x]=0, E[x^2]=1/3
    def test_component_variances(self, plin3_vmap):
        for u in all_subsets_up_to(3, 3):
            if u.is_empty:
                continue
            expect = 3.0 ** (-u.cardinality)
            assert plin3_vmap.sigma2[u.mask] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_total_variance(self, plin_vmaps, dim):
        vmap = plin_vmaps[dim]
        assert vmap.total == pytest.approx((4.0 / 3.0) ** dim - 1.0, rel=1e-12)

    def test_cardinality_sums(self, plin3_vmap):
        sums = plin3_vmap.cardinality_sums()
        assert sums[1] == pytest.approx(3.0 / 3.0 ** 1, rel=1e-12)
        assert sums[2] == pytest.approx(3.0 / 9.0, rel=1e-12)
        assert sums[3] == pytest.approx(1.0 / 27.0, rel=1e-12)


class TestIshigamiOracle:
    # closed-form component variances for a=7, b=0.1 derived from the
    # standard sine integrals over U(-pi, pi)
    def test_components(self, ishigami_vmap):
        a, b = 7.0, 0.1
        v1 = 0.5 * (1.0 + b * math.pi ** 4 / 5.0) ** 2
        v2 = a ** 2 / 8.0
        v13 = 8.0 * b ** 2 * math.pi ** 8 / 225.0
        got = ishigami_vmap
        # masks: bit i stands for x_{i+1}
        assert got.sigma2[0b001] == pytest.approx(v1, rel=1e-10)
        assert got.sigma2[0b010] == pytest.approx(v2, rel=1e-10)
        assert got.sigma2[0b101] == pytest.approx(v13, rel=1e-10)
        for mask in (0b100, 0b011, 0b110, 0b111):
            assert abs(got.sigma2[mask]) <= 1e-10 * got.total
        assert got.total == pytest.approx(v1 + v2 + v13, rel=1e-10)


class TestSobolG:
    def test_univariate_variances(self):
        # kinked integrand: Gauss rules converge slowly, so a high order
        # and a loose-ish tolerance
        p = sobol_g_problem(3, quad_order=64, a=[1.0, 2.0, 3.0])
        vmap = variance_components(build_add(p))
        for i, a in enumerate([1.0, 2.0, 3.0]):
            expect = (1.0 / 3.0) / (1.0 + a) ** 2
            assert vmap.sigma2[1 << i] == pytest.approx(expect, rel=3e-3)


class TestSobolIndices:
    def test_product_linear_two_dim(self):
        p = product_linear_problem(2)
        vmap = variance_components(build_add(p))
        idx = sobol_indices(vmap)
        # sigma^2 = 7/9; shares are (1/3)/(7/9) twice and (1/9)/(7/9)
        assert idx[VariableSubset.from_indices([0], 2).mask] == pytest.approx(3.0 / 7.0, rel=1e-12)
        assert idx[VariableSubset.from_indices([1], 2).mask] == pytest.approx(3.0 / 7.0, rel=1e-12)
        assert idx[VariableSubset.full(2).mask] == pytest.approx(1.0 / 7.0, rel=1e-12)
        assert math.fsum(idx.values()) == pytest.approx(1.0, rel=1e-12)

    def test_constant_function_rejected(self):
        m = ProductMeasure.iid(MarginalMeasure.uniform(0.0, 1.0), 2)
        p = ProblemSpec(lambda x: np.ones(x.shape[:-1]), m, 4)
        vmap = variance_components(build_add(p))
        with pytest.raises(ValueError, match="variance"):
            sobol_indices(vmap)


class TestClosure:
    def test_residual_small_for_builtin(self, plin3_table, plin3_vmap):
        assert variance_closure_residual(plin3_table, plin3_vmap) <= 1e-10

    def test_closure_guard_trips_on_bad_map(self, plin3_table, plin3_vmap):
        res = variance_closure_residual(plin3_table, plin3_vmap)
        assert res <= 1e-10  # sanity before perturbing
        bad = dict(plin3_vmap.sigma2)
        bad[1] += 0.5
        from dimdecomp.variance import VarianceMap

        wrong = VarianceMap(
            dim=3,
            y_empty=plin3_vmap.y_empty,
            sigma2=bad,
            total=plin3_vmap.total + 0.5,
        )
        assert variance_closure_residual(plin3_table, wrong) > 1e-3


def closure_broken_table(problem):
    """The ADD table of `problem` with one entry of ``y_{12}`` raised by
    0.5 through the writable grid view: the split no longer matches direct
    quadrature (relative residual 2.142e-2 on product_linear, N = 3, q = 4)."""
    table = build_add(problem)
    table.grid_values(VariableSubset(0b011, problem.dim))[0, 0] += 0.5
    return table


class TestClosureSelfCheck:
    def test_raises_naming_the_residual(self):
        table = closure_broken_table(product_linear_problem(3, 4))
        with pytest.raises(ArithmeticError, match=r"relative residual 2\.142e-02"):
            variance_components(table)

    def test_unchecked_map_is_returned_with_its_residual(self):
        table = closure_broken_table(product_linear_problem(3, 4))
        vmap = variance_components(table, check_closure=False)
        assert vmap.dim == 3
        assert variance_closure_residual(table, vmap) > CLOSURE_RTOL


class TestSubsetSumIdentity:
    # D_u (variance of the dependence of y on x_u jointly) must equal the
    # sum of sigma_v^2 over all nonempty v inside u
    @pytest.mark.parametrize("factory,dim", [
        (product_linear_problem, 3),
        (product_linear_problem, 5),
        (sobol_g_problem, 3),
    ])
    def test_identity(self, factory, dim):
        table = build_add(factory(dim))
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
            assert direct == pytest.approx(summed, rel=1e-8, abs=1e-12)

    def test_full_subset_gives_total(self, plin3_table, plin3_vmap):
        D = sobol_D(plin3_table)[VariableSubset.full(3).mask]
        assert D == pytest.approx(plin3_vmap.total, rel=1e-10)

    def test_reads_the_table_grid_without_target_calls(self):
        # the grid build_add evaluated is the one sobol_D integrates
        problem, seen = counted(product_linear_problem(3, quad_order=6))
        table = build_add(problem)
        seen.clear()
        sobol_D(table)
        assert seen == []

    def test_single_variable_value(self, plin3_table):
        D = sobol_D(plin3_table)[VariableSubset.from_indices([0], 3).mask]
        assert D == pytest.approx(1.0 / 3.0, rel=1e-10)


def sobol_D_of_subset(table, u: VariableSubset) -> float:
    """Reference route, one subset per grid pass: ``E[z(X) * E[z | X_u]]``
    with ``z = y - E[y]``, the conditional mean by nested quadrature over
    the complement coordinates."""
    weights = [r.weights for r in table.problem.rules]
    Y = table._full_values - _expectation(table._full_values, weights)
    own = set(u.indices())
    # conditional mean, its integrated axes kept with length 1
    cond = Y
    for ax in reversed([j for j in range(table.dim) if j not in own]):
        cond = _axis_map(weights[ax][None, :], cond, ax)
    return _expectation(Y * cond, weights)


MARGINALS = [MarginalMeasure.uniform(-1.0, 2.0), MarginalMeasure.standard_normal()]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_all_subsets_equal_the_per_subset_route(dim, data):
    marginals = [data.draw(st.sampled_from(MARGINALS)) for _ in range(dim)]
    orders = tuple(data.draw(st.integers(1, 6)) for _ in range(dim))
    coeff = st.floats(-3.0, 3.0, allow_subnormal=False)
    if data.draw(st.booleans()):
        fn = make_function(
            "product_linear", dim, a=data.draw(st.lists(coeff, min_size=dim, max_size=dim))
        )
    else:
        exps = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
        terms = data.draw(st.lists(st.tuples(coeff, exps), min_size=1, max_size=4))
        fn = make_function("poly", dim, terms=[{"coeff": c, "exponents": e} for c, e in terms])
    table = build_add(ProblemSpec(fn, ProductMeasure(marginals), orders))
    D = sobol_D(table)
    nonempty = [u for u in all_subsets_up_to(dim, dim) if not u.is_empty]
    assert list(D) == [u.mask for u in nonempty]
    floor = 1e-12 * (table.scale**2 + D[(1 << dim) - 1])  # D of the full set: the total
    for u in nonempty:
        assert D[u.mask] == pytest.approx(sobol_D_of_subset(table, u), rel=1e-12, abs=floor)


@pytest.mark.parametrize(
    "problem",
    [
        sobol_g_problem(6, quad_order=(3, 4, 2, 5, 3, 2)),
        product_linear_problem(10, quad_order=3),
        product_linear_problem(4, quad_order=(2, 7, 1, 4)),
    ],
    ids=["sobol_g-N6-mixed", "product_linear-N10-q3", "product_linear-N4-mixed"],
)
def test_components_equal_per_subset_sums_of_squares(problem):
    table = build_add(problem)
    vmap = variance_components(table)
    weights = [r.weights for r in problem.rules]
    nonempty = [u for u in all_subsets_up_to(problem.dim, problem.dim) if not u.is_empty]
    assert list(vmap.sigma2) == [u.mask for u in nonempty]  # (cardinality, mask) order
    for u in nonempty:
        want = _expectation(table.grid_values(u) ** 2, [weights[j] for j in u.indices()])
        assert vmap.sigma2[u.mask] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_variance_map_requires_complete_cover(plin3_vmap):
    from dimdecomp.variance import VarianceMap

    partial = {k: v for k, v in plin3_vmap.sigma2.items() if k != 5}
    with pytest.raises(ValueError):
        VarianceMap(dim=3, y_empty=1.0, sigma2=partial, total=plin3_vmap.total)


def test_variance_map_rejects_nan(plin3_vmap):
    from dimdecomp.variance import VarianceMap

    sigma2 = {**plin3_vmap.sigma2, 3: math.nan}
    with pytest.raises(ValueError, match="finite"):
        VarianceMap(dim=3, y_empty=1.0, sigma2=sigma2, total=plin3_vmap.total)


def test_nan_in_a_component_raises():
    # one NaN in y_{1,2} reaches every variance through the axis maps, and
    # a NaN fails every comparison, so a `v < 0` test alone lets it through
    table = build_add(product_linear_problem(3, quad_order=4))
    table.grid_values(VariableSubset.from_indices([0, 1], 3))[1, 2] = math.nan
    with pytest.raises(ValueError, match="finite"):
        variance_components(table)


def nested_tensordot_expectation(arr, weights):
    for k in reversed(range(np.ndim(arr))):
        arr = np.tensordot(arr, weights[k], axes=([k], [0]))
    return float(arr)


@pytest.mark.parametrize("ndim", range(11))
def test_expectation_equals_nested_tensordot(ndim):
    g = np.random.default_rng(ndim)
    shape = tuple(int(n) for n in g.integers(1, 4 if ndim > 6 else 12, ndim))
    arr = g.standard_normal(shape)
    weights = [g.uniform(0.0, 1.0, n) for n in shape]
    assert _expectation(arr, weights) == nested_tensordot_expectation(arr, weights)
