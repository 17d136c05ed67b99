from __future__ import annotations

import math

import numpy as np
import pytest

from dimdecomp import ProblemSpec, make_function, measures
from dimdecomp.measures import (
    GAUSS_MAX_ORDER,
    MarginalMeasure,
    ProductMeasure,
    QuadratureRule,
    gauss_exactness_residual,
    gauss_rule,
    product_rules,
)

UNIFORMS = [
    MarginalMeasure.uniform(-1.0, 1.0),
    MarginalMeasure.uniform(0.0, 1.0),
    MarginalMeasure.uniform(2.0, 5.0),
]
NORMAL = MarginalMeasure.standard_normal()


class TestMarginalValidation:
    def test_uniform_needs_ordered_finite_bounds(self):
        with pytest.raises(ValueError):
            MarginalMeasure.uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            MarginalMeasure.uniform(2.0, -2.0)
        with pytest.raises(ValueError, match="uniform hi must be finite, got inf"):
            MarginalMeasure.uniform(0.0, math.inf)
        with pytest.raises(ValueError, match="uniform lo must be finite, got nan"):
            MarginalMeasure.uniform(math.nan, 1.0)

    def test_normal_takes_no_bounds(self):
        with pytest.raises(ValueError):
            MarginalMeasure("standard_normal", 0.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MarginalMeasure("beta")

    @pytest.mark.parametrize(
        "lo, hi", [(False, True), ("0", "1"), (0.0, "1"), (np.bool_(False), 1.0)]
    )
    def test_bounds_are_validated_not_converted(self, lo, hi):
        # bools and numeric strings once built uniform(0, 1)
        with pytest.raises(ValueError, match="uniform (lo|hi) must be a number"):
            MarginalMeasure("uniform", lo, hi)

    def test_bounds_are_stored_as_the_validated_floats(self):
        marg = MarginalMeasure("uniform", 0, np.int64(2))
        assert (marg.lo, marg.hi) == (0.0, 2.0)
        assert type(marg.lo) is float and type(marg.hi) is float
        assert marg == MarginalMeasure.uniform(0.0, 2.0)


class TestDensity:
    def test_moments_against_numerical_integration(self):
        # brute-force Riemann check of the closed-form moments against each
        # density, written out here: 1/3 on [-1, 2] and the standard normal
        marg = MarginalMeasure.uniform(-1.0, 2.0)
        xs = np.linspace(-1.0, 2.0, 2_000_001)
        for k in range(6):
            ref = np.trapezoid(xs**k / 3.0, xs)
            assert abs(marg.moment(k) - ref) <= 1e-9 * max(1.0, abs(ref))
        xs = np.linspace(-12.0, 12.0, 2_000_001)
        dens = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
        for k in range(8):
            ref = np.trapezoid(xs**k * dens, xs)
            assert abs(NORMAL.moment(k) - ref) <= 1e-6 * max(1.0, abs(ref))


class TestGaussRules:
    @pytest.mark.parametrize("marg", UNIFORMS + [NORMAL])
    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 21, 34, 64])
    def test_weights_normalized_and_positive(self, marg, order):
        rule = gauss_rule(marg, order)
        assert abs(float(np.sum(rule.weights)) - 1.0) <= 1e-14
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)

    @pytest.mark.parametrize("marg", UNIFORMS + [NORMAL])
    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 21, 34, 64])
    def test_exact_up_to_degree_2n_minus_1(self, marg, order):
        rule = gauss_rule(marg, order)
        assert gauss_exactness_residual(marg, rule) <= 1e-12

    def test_one_point_rules_sit_at_the_mean(self):
        rule = gauss_rule(MarginalMeasure.uniform(0.0, 1.0), 1)
        np.testing.assert_allclose(rule.nodes, [0.5])
        np.testing.assert_allclose(rule.weights, [1.0])
        rule = gauss_rule(NORMAL, 1)
        np.testing.assert_allclose(rule.nodes, [0.0])
        np.testing.assert_allclose(rule.weights, [1.0])

    def test_two_point_rule_from_moment_equations(self):
        # hand oracle: symmetric nodes ±t, equal weights w; normalization
        # gives 2w = 1, and exactness on x² gives 2·w·t² = 1/3 ⇒ t = √(1/3)
        rule = gauss_rule(MarginalMeasure.uniform(-1.0, 1.0), 2)
        t = math.sqrt(1.0 / 3.0)
        np.testing.assert_allclose(rule.nodes, [-t, t], rtol=1e-15)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=1e-15)

    def test_affine_map_of_interval(self):
        base = gauss_rule(MarginalMeasure.uniform(-1.0, 1.0), 7)
        shifted = gauss_rule(MarginalMeasure.uniform(2.0, 5.0), 7)
        np.testing.assert_allclose(shifted.nodes, 1.5 * base.nodes + 3.5, rtol=1e-14)
        np.testing.assert_allclose(shifted.weights, base.weights, rtol=1e-14)

    def test_order_bounds(self, monkeypatch):
        with pytest.raises(ValueError):
            gauss_rule(NORMAL, 0)
        with pytest.raises(ValueError):
            gauss_rule(NORMAL, GAUSS_MAX_ORDER + 1)
        # the cap is read at call time
        monkeypatch.setattr(measures, "GAUSS_MAX_ORDER", 128)
        rule = gauss_rule(NORMAL, 80)
        assert rule.order == 80

    @pytest.mark.parametrize("order", [True, 2.0, np.float64(3.0), "3", [3], None])
    def test_order_goes_through_the_one_validator(self, order):
        # True is no 1-node rule, 2.0 no numpy TypeError
        with pytest.raises(ValueError, match="quadrature order must be an integer"):
            gauss_rule(NORMAL, order)
        assert gauss_rule(NORMAL, np.int64(3)).order == 3

    def test_rule_arrays_are_frozen(self):
        rule = gauss_rule(NORMAL, 4)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_malformed_rule_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.zeros((2, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            QuadratureRule(np.zeros(3), np.zeros(4))


class TestProductMeasure:
    def test_iid_and_density_product(self):
        # the support of the product is the product of the supports
        m = ProductMeasure.iid(MarginalMeasure.uniform(0.0, 2.0), 3)
        assert m.dim == 3
        assert m.marginals == (MarginalMeasure.uniform(0.0, 2.0),) * 3
        assert m.contains(np.array([0.5, 1.0, 1.5]))
        assert not m.contains(np.array([0.5, 1.0, 2.5]))

    def test_mixed_marginals(self):
        m = ProductMeasure((MarginalMeasure.uniform(0.0, 1.0), NORMAL))
        np.testing.assert_array_equal(
            m.contains(np.array([[0.25, 0.0], [0.25, -40.0], [1.5, 0.0]])),
            [True, True, False],
        )

    def test_points_need_a_last_axis(self):
        # a scalar for three coordinates raised IndexError: tuple index out
        # of range; one coordinate takes it as a point
        m = ProductMeasure.iid(MarginalMeasure.uniform(0.0, 1.0), 3)
        for check in (m.contains, make_function("product_linear", 3)):
            with pytest.raises(ValueError) as info:
                check(5.0)
            assert str(info.value) == "points have no last axis, expected 3"
        assert ProductMeasure((NORMAL,)).contains(5.0)
        with pytest.raises(ValueError, match="points have last axis 2, expected 3"):
            m.contains(np.zeros((4, 2)))

    def test_needs_at_least_one_marginal(self):
        with pytest.raises(ValueError):
            ProductMeasure(())

    def test_rules_per_coordinate(self):
        m = ProductMeasure((MarginalMeasure.uniform(0.0, 1.0), NORMAL))
        rules = product_rules(m, (3, 5))
        assert rules[0].order == 3 and rules[1].order == 5
        with pytest.raises(ValueError):
            product_rules(m, (3, 5, 7))

    @pytest.mark.parametrize("orders", [True, (3, True), 2.0, (3, 4.5), ("3", 3), 0, (3, 0)])
    def test_rules_reject_bad_orders(self, orders):
        # True is no 1-node rule, 2.0 no 2-node rule
        m = ProductMeasure((MarginalMeasure.uniform(0.0, 1.0), NORMAL))
        with pytest.raises(ValueError, match="quadrature order"):
            product_rules(m, orders)

    def test_cap_is_checked_with_the_orders(self, monkeypatch):
        m = ProductMeasure((MarginalMeasure.uniform(0.0, 1.0), NORMAL))

        def f(x):
            return x[..., 0]

        for orders in (GAUSS_MAX_ORDER + 1, (3, GAUSS_MAX_ORDER + 1)):
            with pytest.raises(ValueError, match="exceeds the cap"):
                product_rules(m, orders)
            # at construction, not at the first use of the rules
            with pytest.raises(ValueError, match="exceeds the cap"):
                ProblemSpec(f, m, orders)
        assert ProblemSpec(f, m, GAUSS_MAX_ORDER).orders == (GAUSS_MAX_ORDER,) * 2
        monkeypatch.setattr(measures, "GAUSS_MAX_ORDER", 128)
        assert ProblemSpec(f, m, 80).orders == (80, 80)

    @pytest.mark.parametrize(
        "marginals, orders, builds",
        [
            # iid: one rule serves all six coordinates
            ((UNIFORMS[0],) * 6, 10, 1),
            # one rule per distinct (marginal, order) pair
            ((UNIFORMS[0], NORMAL, UNIFORMS[0], NORMAL, UNIFORMS[1]), (4, 4, 4, 5, 4), 4),
            ((UNIFORMS[0], UNIFORMS[0]), (3, 7), 2),
        ],
    )
    def test_one_gauss_rule_per_distinct_pair(self, monkeypatch, marginals, orders, builds):
        calls = []

        def counted(marginal, order):
            calls.append((marginal, order))
            return gauss_rule(marginal, order)

        m = ProductMeasure(marginals)
        monkeypatch.setattr(measures, "gauss_rule", counted)
        rules = product_rules(m, orders)
        assert len(calls) == len(set(calls)) == builds
        monkeypatch.undo()
        # the same nodes and weights as a rule built per coordinate
        per_coord = orders if isinstance(orders, tuple) else (orders,) * len(marginals)
        for rule, marginal, n in zip(rules, marginals, per_coord, strict=True):
            want = gauss_rule(marginal, n)
            assert np.array_equal(rule.nodes, want.nodes)
            assert np.array_equal(rule.weights, want.weights)

    @pytest.mark.parametrize("orders", [np.int64(3), (np.int64(3), 3), np.array([3, 3])])
    def test_rules_accept_numpy_integers(self, orders):
        m = ProductMeasure((MarginalMeasure.uniform(0.0, 1.0), NORMAL))
        rules = product_rules(m, orders)
        assert [r.order for r in rules] == [3, 3]
        assert all(type(r.order) is int for r in rules)


class TestSampling:
    def test_deterministic_given_seed(self):
        m = ProductMeasure.iid(MarginalMeasure.uniform(-1.0, 1.0), 4)
        a = m.sample(np.random.default_rng(42), 100)
        b = m.sample(np.random.default_rng(42), 100)
        np.testing.assert_array_equal(a, b)
        # a single draw is the first row of a size-1 batch
        c = m.sample(np.random.default_rng(42))
        np.testing.assert_array_equal(c, m.sample(np.random.default_rng(42), 1)[0])

    @pytest.mark.parametrize("seed", [0, 42])
    def test_batch_is_column_major_and_drawn_column_by_column(self, seed):
        m = ProductMeasure((MarginalMeasure.uniform(0.0, 1.0), NORMAL, UNIFORMS[2]))
        rng = np.random.default_rng(seed)
        want = np.column_stack([marg.sample(rng, 257) for marg in m.marginals])
        got = m.sample(np.random.default_rng(seed), 257)
        assert got.flags.f_contiguous
        assert np.array_equal(got, want)

    def test_samples_in_support(self):
        m = ProductMeasure((MarginalMeasure.uniform(0.0, 1.0), NORMAL))
        X = m.sample(np.random.default_rng(7), 1000)
        assert X.shape == (1000, 2)
        assert np.all(m.contains(X))

    def test_sample_mean_near_true_mean(self):
        # 3σ gate: sd of uniform(0,1) is 1/√12, n = 10^6
        m = ProductMeasure.iid(MarginalMeasure.uniform(0.0, 1.0), 1)
        X = m.sample(np.random.default_rng(123), 1_000_000)
        gate = 3.0 / math.sqrt(12.0) / math.sqrt(1_000_000)
        assert abs(float(np.mean(X)) - 0.5) <= gate
