from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimdecomp import (
    CardinalitySums,
    DecayModel,
    add_error,
    build_add,
    coeff_b,
    contrived_example,
    decay_curves,
    dim_for_pmin,
    error_bounds,
    lambert_w0,
    pmin_for_N,
    rdd_expected_error,
    variance_components,
)
from dimdecomp import errors
from dimdecomp.errors import _amplification_rows, _decay_term
from dimdecomp.variance import _variance_floor
from tests.conftest import (
    ishigami_problem,
    node_anchored_table,
    product_linear_problem,
    sobol_g_problem,
)


def frac_binomial(r: int, k: int) -> Fraction:
    # independent falling-factorial oracle over the rationals
    if k < 0:
        return Fraction(0)
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(r - i, i + 1)
    return out


def frac_coeff_b(order: int, s: int) -> Fraction:
    return sum(
        (
            frac_binomial(s - order + k - 1, k) ** 2
            * frac_binomial(s, order - k)
            for k in range(order + 1)
        ),
        Fraction(0),
    )


class TestCoefficient:
    def test_first_order_closed_form(self):
        for s in range(31):
            got = coeff_b(1, s)
            assert isinstance(got, int)
            assert got == s * s - s + 1

    def test_second_order_closed_form(self):
        for s in range(31):
            num = s**4 - 2 * s**3 - s**2 + 2 * s + 4
            assert num % 4 == 0
            assert coeff_b(2, s) == num // 4

    def test_below_order_is_one(self):
        for order in range(16):
            for s in range(order + 1):
                assert coeff_b(order, s) == 1

    def test_first_missing_cardinality_doubles_per_order(self):
        for order in range(21):
            assert 1 + coeff_b(order, order + 1) == 2 ** (order + 1)

    def test_pinned_value(self):
        assert coeff_b(2, 3) == 7

    def test_zero_order_weights_everything_twice(self):
        assert all(coeff_b(0, s) == 1 for s in range(1, 41))

    @given(st.integers(0, 6), st.integers(0, 12))
    # figure1 sweeps every order at N = 100; (99, 50) reflects negative
    # upper arguments at that scale
    @example(1, 100)
    @example(2, 100)
    @example(49, 100)
    @example(98, 100)
    @example(99, 100)
    @example(99, 50)
    def test_matches_rational_oracle(self, order, s):
        assert coeff_b(order, s) == frac_coeff_b(order, s)

    @given(st.integers(0, 8), st.integers(1, 14))
    def test_amplification_never_shrinks_with_cardinality(self, order, s):
        assert coeff_b(order, s + 1) >= coeff_b(order, s) >= 1


def binom0(n: int, k: int) -> int:
    # C(n, k), zero below k = 0
    return comb(n, k) if k >= 0 else 0


class TestRecurrenceCertificate:
    """The telescoping certificate behind ``_amplification_rows``.

    With ``F_{s,S}(k) = C(s, k) C(s-k-1, S-k)**2`` (``coeff_b``'s sum with
    ``k <-> S - k``), the recurrence's summand ``t_k`` equals
    ``G_{k+1} - G_k`` for ``0 <= k <= S + 1``, and ``G_0 = G_{S+2} = 0``.
    """

    @staticmethod
    def F(s, S, k):
        return comb(s, k) * binom0(s - k - 1, S - k) ** 2

    @staticmethod
    def P(s, S, k):
        return k * k - 2 * S * k - 2 * k + 2 * S * s + 4 * S - s * s - 2 * s + 1

    def t(self, s, S, k):
        F = self.F
        return (
            2 * (s + 1) * F(s, S, k)
            + 2 * (S - s) * F(s + 1, S, k)
            - (s + S + 2) * F(s + 1, S + 1, k)
            + (s - S) * F(s + 2, S + 1, k)
        )

    def G(self, s, S, k):
        # R(k) F(k) with the double pole of R at k = S + 1 cancelled
        num = -self.P(s, S, k) * binom0(s + 1, k - 1) * binom0(s - k, S + 1 - k) ** 2
        return Fraction(num, s - S)

    def R(self, s, S, k):
        num = -k * (s + 1) * (s - k) ** 2 * self.P(s, S, k)
        return Fraction(num, (s - S) * (S + 1 - k) ** 2 * (s + 1 - k) * (s + 2 - k))

    def check(self, s, S, k):
        assert self.t(s, S, k) == self.G(s, S, k + 1) - self.G(s, S, k)
        if k <= S:  # where R has no pole, G is the certificate R F
            assert self.G(s, S, k) == self.R(s, S, k) * self.F(s, S, k)

    @settings(deadline=None)
    @given(st.integers(1, 2000), st.data())
    def test_summand_telescopes(self, s, data):
        S = data.draw(st.integers(0, s - 1))
        # a random term, and the two terms next to the pole at k = S + 1
        for k in {data.draw(st.integers(0, S + 1)), S, S + 1}:
            self.check(s, S, k)
        assert self.G(s, S, 0) == self.G(s, S, S + 2) == 0

    def test_summand_telescopes_at_every_small_term(self):
        for s in range(1, 25):
            for S in range(s):
                for k in range(S + 2):
                    self.check(s, S, k)
                assert self.G(s, S, 0) == self.G(s, S, S + 2) == 0

    def test_summands_sum_to_coeff_b(self):
        # so sum_k t_k is the recurrence moved to one side, and the
        # telescoping above makes it 0
        for s in range(1, 30):
            for S in range(s):
                assert sum(self.F(s, S, k) for k in range(S + 2)) == coeff_b(S, s)


class TestCardinalitySums:
    def test_round_trip_and_total(self):
        cs = CardinalitySums(5, {1: 0.5, 3: 0.25})
        assert cs.cardinality_sums() == {1: 0.5, 3: 0.25}
        assert math.fsum(cs.cardinality_sums().values()) == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            CardinalitySums(3, {4: 1.0})
        with pytest.raises(ValueError):
            CardinalitySums(3, {0: 1.0})
        with pytest.raises(ValueError):
            CardinalitySums(3, {1: -1.0})
        with pytest.raises(ValueError):
            CardinalitySums(0, {})

    @pytest.mark.parametrize(
        "dim, message",
        [
            # 2.5 once gave a budget over cardinalities {1, 2} without a word
            (2.5, "dimension must be an integer, got 2.5"),
            # and True was read as dimension 1
            (True, "dimension must be an integer, got True"),
            ("3", "dimension must be an integer, got '3'"),
            (0, "dimension must be at least 1"),
        ],
    )
    def test_dimension_is_a_positive_integer(self, dim, message):
        with pytest.raises(ValueError) as info:
            CardinalitySums(dim, {1: 1.0})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "sums, message",
        [
            # int() once read these keys as cardinalities 1, 1 and 2
            ({1.5: 0.2}, "cardinality must be an integer, got 1.5"),
            ({True: 0.2}, "cardinality must be an integer, got True"),
            ({"2": 0.2}, "cardinality must be an integer, got '2'"),
            # a list raised an AttributeError on .items()
            ([0.2, 0.1], "variance sums must be a mapping, got list"),
        ],
    )
    def test_cardinalities_are_integer_keys_of_a_mapping(self, sums, message):
        with pytest.raises(ValueError) as info:
            CardinalitySums(3, sums)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "value, message",
        [
            # float() once read these as 0.2 and 1.0
            ("0.2", "variance sum must be a number, got '0.2'"),
            (True, "variance sum must be a number, got True"),
            (math.nan, "variance sum must be finite, got nan"),
            (math.inf, "variance sum must be finite, got inf"),
            (-1, "variance sums must be finite and nonnegative"),
        ],
    )
    def test_sums_are_finite_nonnegative_numbers(self, value, message):
        with pytest.raises(ValueError) as info:
            CardinalitySums(3, {1: value, 2: 0.1})
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_sums(self, bad):
        # a NaN fails every comparison: a `v < 0` test alone would hand it
        # on to add_error
        with pytest.raises(ValueError, match="finite"):
            CardinalitySums(3, {1: bad, 2: 0.1})


class TestErrorsOnProductLinear:
    # exact spectrum for y = prod(1 + x_i): V_s = C(N,s) 3^{-s}
    def test_add_error_pinned(self, plin3_vmap):
        assert add_error(1, plin3_vmap) == pytest.approx(10.0 / 27.0, rel=1e-12)
        assert add_error(0, plin3_vmap) == pytest.approx(plin3_vmap.total, rel=1e-12)
        assert add_error(2, plin3_vmap) == pytest.approx(1.0 / 27.0, rel=1e-12)

    def test_rdd_expected_pinned(self, plin3_vmap):
        b = rdd_expected_error(1, plin3_vmap)
        assert b.e_rdd_expected == pytest.approx(44.0 / 27.0, rel=1e-12)
        assert b.e_add == pytest.approx(10.0 / 27.0, rel=1e-12)
        assert b.lower == pytest.approx(40.0 / 27.0, rel=1e-12)
        assert b.upper == pytest.approx(80.0 / 27.0, rel=1e-12)
        assert set(b.per_cardinality) == {2, 3}
        for s, (v_expect, coeff_expect) in {2: (3.0 / 9.0, 4), 3: (1.0 / 27.0, 8)}.items():
            v_s, coeff = b.per_cardinality[s]
            assert coeff == coeff_expect
            assert v_s == pytest.approx(v_expect, rel=1e-12)

    def test_zero_order_budget_is_twice_the_variance(self, plin3_vmap):
        b = rdd_expected_error(0, plin3_vmap)
        assert b.e_rdd_expected == pytest.approx(74.0 / 27.0, rel=1e-12)
        assert b.e_rdd_expected == pytest.approx(2.0 * plin3_vmap.total, rel=1e-12)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_budget_sits_inside_its_bounds_exactly(self, dim):
        # run the ordering in exact rational arithmetic on the known spectrum
        spectrum = {s: Fraction(math.comb(dim, s), 3**s) for s in range(1, dim + 1)}
        for order in range(dim):
            e_add = sum(spectrum[s] for s in range(order + 1, dim + 1))
            e_rdd = sum(
                (1 + frac_coeff_b(order, s)) * spectrum[s]
                for s in range(order + 1, dim + 1)
            )
            lo, hi = error_bounds(order, dim)
            assert lo * e_add <= e_rdd <= hi * e_add
            # and the float route agrees with the rational one
            floats = CardinalitySums(dim, {s: float(v) for s, v in spectrum.items()})
            b = rdd_expected_error(order, floats)
            assert b.e_rdd_expected == pytest.approx(float(e_rdd), rel=1e-12)

    def test_highest_order_bounds_coincide(self):
        for dim in range(2, 12):
            lo, hi = error_bounds(dim - 1, dim)
            assert lo == hi == 2**dim

    def test_order_validation(self, plin3_vmap):
        # one validator for every entry point: an order is an integer (a
        # numpy integer counts, a bool or a float with an integral value
        # does not) with 0 <= S < dim, never silently truncated
        cases = [(-1, "outside"), (3, "outside"), (7, "outside")] + [
            (bad, "must be an integer") for bad in (1.5, True, np.float64(1.0))
        ]
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                add_error(bad, plin3_vmap)
            with pytest.raises(ValueError, match=message):
                rdd_expected_error(bad, plin3_vmap)
            with pytest.raises(ValueError, match=message):
                error_bounds(bad, 3)
        one = np.int64(1)
        assert add_error(one, plin3_vmap) == add_error(1, plin3_vmap)
        assert rdd_expected_error(one, plin3_vmap) == rdd_expected_error(1, plin3_vmap)
        assert error_bounds(one, 3) == error_bounds(1, 3)

    def test_rejects_non_variance_inputs(self):
        with pytest.raises(TypeError):
            add_error(0, {"dim": 3})


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 10),
    st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=10),
)
def test_zero_order_budget_doubles_any_spectrum(dim, values):
    # the zero-order anchored budget weights every cardinality by exactly 2,
    # so it equals twice the total variance for any spectrum whatsoever
    sums = {s: v for s, v in zip(range(1, dim + 1), values) if s <= dim}
    cs = CardinalitySums(dim, sums)
    total = math.fsum(sums.values())
    b = rdd_expected_error(0, cs)
    assert b.e_rdd_expected == pytest.approx(2.0 * total, rel=1e-12, abs=1e-12)
    assert b.e_add == pytest.approx(total, rel=1e-12, abs=1e-12)


class TestDecayModel:
    def test_total_variance_closed_form(self):
        m = DecayModel(dim=4, rate=3.0)
        # sum_s C(4,s) 3^-s = (4/3)^4 - 1
        assert m.total_variance == pytest.approx((4.0 / 3.0) ** 4 - 1.0, rel=1e-12)

    def test_total_variance_past_the_float_range_raises(self):
        # (1 + 1/p)**N near 2**2000 raised a bare OverflowError
        with pytest.raises(ValueError) as info:
            DecayModel(dim=2000, rate=1.0001).total_variance
        assert str(info.value) == (
            "the total variance of the decay model at dimension 2000, rate 1.0001 "
            "passes the float range"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayModel(dim=3, rate=1.0)
        with pytest.raises(ValueError):
            DecayModel(dim=0, rate=2.0)

    @pytest.mark.parametrize(
        "dim, rate, message",
        [
            # an infinite rate ended in a ZeroDivisionError inside decay_curves
            (20, math.inf, "decay rate must be finite, got inf"),
            (20, math.nan, "decay rate must be finite, got nan"),
            # a float dimension raised a TypeError from range, a string
            # rate one from >
            (2.5, 5.0, "dimension must be an integer, got 2.5"),
            (True, 5.0, "dimension must be an integer, got True"),
            (20, "5", "decay rate must be a number, got '5'"),
            (20, True, "decay rate must be a number, got True"),
            (0, 5.0, "dimension must be at least 1"),
            (20, 1.0, "decay rate must exceed 1"),
        ],
    )
    def test_construction_names_the_bad_parameter(self, dim, rate, message):
        with pytest.raises(ValueError) as info:
            DecayModel(dim=dim, rate=rate)
        assert str(info.value) == message

    def test_numpy_parameters_are_stored_as_python_numbers(self):
        m = DecayModel(dim=np.int64(4), rate=np.float32(3.0))
        assert (type(m.dim), type(m.rate)) == (int, float)
        assert decay_curves(m) == decay_curves(DecayModel(dim=4, rate=3.0))

    def test_slow_decay_inverts_and_fast_decay_does_not(self):
        # N=20: p=5 sits below the threshold rate (~21.52), p=50 above it
        slow = decay_curves(DecayModel(dim=20, rate=5.0))
        fast = decay_curves(DecayModel(dim=20, rate=50.0))
        assert [pt.order for pt in slow] == list(range(20))
        for pts in (slow, fast):
            adds = [pt.e_add_normalized for pt in pts]
            assert all(a > b for a, b in zip(adds, adds[1:]))
        srdd = [pt.e_rdd_normalized for pt in slow]
        assert srdd[1] > srdd[0]
        frdd = [pt.e_rdd_normalized for pt in fast]
        assert all(a > b for a, b in zip(frdd, frdd[1:]))

    def test_normalization_consistency(self):
        pts = decay_curves(DecayModel(dim=6, rate=4.0))
        for pt in pts:
            assert pt.e_add_normalized == pytest.approx(pt.e_add / pt.sigma2_total)
        # S=0 sheds everything: e_add equals the total variance
        assert pts[0].e_add == pytest.approx(pts[0].sigma2_total, rel=1e-12)

    def test_large_dimension_stays_finite(self):
        pts = decay_curves(DecayModel(dim=120, rate=3.0))
        assert all(math.isfinite(p.e_rdd_normalized) for p in pts)
        assert pts[-1].e_rdd_normalized > 0.0

    def test_term_overflow_falls_back_to_logs(self):
        # coefficient and rate**s both overflow float, the quotient does not:
        # 10**400 * C(350, 350) / 10**350 == 1e50 exactly
        got = _decay_term(10**400, 350, 350, 10.0)
        assert got == pytest.approx(1e50, rel=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3, 17, 120, 200])
    def test_amplification_table_is_one_plus_coeff_b(self, dim):
        table = list(_amplification_rows(dim))
        assert len(table) == dim
        for S, row in enumerate(table):
            assert row == [1 + coeff_b(S, s) for s in range(S + 1, dim + 1)]

    def test_sweep_equals_term_by_term_coefficients(self):
        # the figure1 sweep at the paper's N = 100, float for float
        dim = 100
        for rate in (5.0, 50.0):
            model = DecayModel(dim=dim, rate=rate)
            pts = decay_curves(model)
            assert [pt.order for pt in pts] == list(range(dim))
            for pt in pts:
                S = pt.order
                missing = range(S + 1, dim + 1)
                e_add = math.fsum(_decay_term(1, dim, s, rate) for s in missing)
                e_rdd = math.fsum(
                    _decay_term(1 + coeff_b(S, s), dim, s, rate) for s in missing
                )
                assert (pt.e_add, pt.e_rdd) == (e_add, e_rdd)
                assert pt.e_rdd_normalized == e_rdd / model.total_variance

    def test_large_sweep_equals_term_by_term_coefficients(self):
        # at N = 400, float for float; at rate 50, rate**s overflows a float
        # from s = 182 on, so every order's sum takes terms through the
        # log-domain fallback (no (1 + b_S(s)) C(N, s) overflows at N = 400)
        dim = 400
        with pytest.raises(OverflowError):
            50.0**dim
        sweeps = {rate: decay_curves(DecayModel(dim=dim, rate=rate)) for rate in (5.0, 50.0)}
        for S in (0, 1, 2, 199, 398, 399):
            missing = range(S + 1, dim + 1)
            coeffs = [1 + coeff_b(S, s) for s in missing]
            for rate, pts in sweeps.items():
                e_add = math.fsum(_decay_term(1, dim, s, rate) for s in missing)
                e_rdd = math.fsum(_decay_term(c, dim, s, rate) for s, c in zip(missing, coeffs))
                assert (pts[S].e_add, pts[S].e_rdd) == (e_add, e_rdd)

    def test_budget_past_the_float_range_keeps_a_finite_share(self):
        # N = 500 at rate 1.5 raised "intermediate overflow in fsum": the
        # budgets of orders 180..281 pass 1.8e308, their shares peak near
        # 1e204; each share matches exact rational arithmetic
        model = DecayModel(dim=500, rate=1.5)
        pts = decay_curves(model)
        past = [pt.order for pt in pts if pt.e_rdd == math.inf]
        assert past == list(range(180, 282))
        assert all(math.isfinite(pt.e_rdd_normalized) for pt in pts)
        total = (1 + Fraction(2, 3)) ** 500 - 1
        for S in (179, 180, 230, 281, 282):
            exact = sum(
                (1 + coeff_b(S, s)) * comb(500, s) * Fraction(2, 3) ** s
                for s in range(S + 1, 501)
            )
            assert pts[S].e_rdd_normalized == pytest.approx(float(exact / total), rel=1e-12)

    @pytest.mark.parametrize("dim, rate", [(1000, 1.5), (2000, 1.0001)])
    def test_share_past_the_float_range_raises(self, dim, rate):
        # (2000, 1.0001) overflowed in the total variance, with an OverflowError
        with pytest.raises(ValueError, match=f"dimension {dim}, rate {rate!r} passes the float range"):
            decay_curves(DecayModel(dim=dim, rate=rate))

    def test_matches_product_linear_spectrum(self, plin4_vmap):
        # rate 3 reproduces the product-linear variance layout
        pts = decay_curves(DecayModel(dim=4, rate=3.0))
        for pt in pts:
            assert pt.e_add == pytest.approx(add_error(pt.order, plin4_vmap), rel=1e-10)


class TestLambertW:
    def test_known_values(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-12)
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, rel=1e-12)
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)

    def test_against_bisection_oracle(self):
        def oracle(x):
            lo, hi = -1.0, max(1.0, math.log(max(x, 1.0)) + 1.0)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid * math.exp(mid) < x:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for x in (-0.3, -0.05, 0.2, 1.0, 3.0, 10.0, 1e3, 1e8):
            assert lambert_w0(x) == pytest.approx(oracle(x), rel=1e-9, abs=1e-9)

    @given(st.floats(-1.0 / math.e + 1e-12, 1e12, allow_nan=False))
    def test_defining_equation_residual(self, x):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x)) * 1.001

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w0(-1.0)
        with pytest.raises(ValueError):
            lambert_w0(math.nan)


class TestThresholdRate:
    def test_dimension_20(self):
        p = pmin_for_N(20)
        assert p == pytest.approx(21.5187, abs=5e-4)
        # residual of the threshold condition, written out independently
        resid = (20 - 1) * (1.0 + 1.0 / p) ** 20 / (1.0 + p) ** 2 - 2.0 / p
        assert abs(resid) <= 1e-10
        assert dim_for_pmin(p) == pytest.approx(20.0, abs=1e-6)

    def test_dimension_3_is_the_golden_ratio(self):
        # at N=3 the threshold condition reduces to p^2 = p + 1
        assert pmin_for_N(3) == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-10)

    def test_monotone_in_dimension(self):
        vals = [pmin_for_N(n) for n in range(3, 101)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_dimension_2_has_no_threshold(self):
        with pytest.raises(ValueError, match="no threshold rate"):
            pmin_for_N(2)
        with pytest.raises(ValueError):
            pmin_for_N(1)

    def test_inverse_route_validation(self):
        with pytest.raises(ValueError):
            dim_for_pmin(1.0)


class TestContrived:
    def test_pinned_coefficients(self):
        rep = contrived_example()
        assert rep.dim == 100
        assert rep.e_rdd_order1 == pytest.approx(9.902, abs=5e-4)
        assert rep.e_rdd_order2 == pytest.approx(24497.552, abs=5e-4)
        assert rep.inversion is True
        # closed forms in sigma^2 units: only the top interaction is missing,
        # amplified by 1 + b_S(100)
        expect1 = (1 + coeff_b(1, 100)) * 0.001
        expect2 = (1 + coeff_b(2, 100)) * 0.001
        assert rep.e_rdd_order1 == pytest.approx(expect1, rel=1e-9)
        assert rep.e_rdd_order2 == pytest.approx(expect2, rel=1e-9)

    def test_add_side_stays_tiny(self):
        rep = contrived_example()
        assert rep.e_add_order2 == pytest.approx(0.001, rel=1e-9)
        assert rep.e_add_order1 == pytest.approx(0.001, rel=1e-9)
        assert rep.e_add_order1 < rep.e_rdd_order1


def test_vanishing_tail_for_fast_decay():
    # spectra decaying faster than 2^-s shed their top-order anchored error:
    # with the product-linear layout (rate 3) the S=N-1 budget is (2/3)^N
    prev = None
    for dim in range(2, 21):
        cs = CardinalitySums(
            dim, {s: math.comb(dim, s) / 3.0**s for s in range(1, dim + 1)}
        )
        b = rdd_expected_error(dim - 1, cs)
        expect = 2.0**dim / 3.0**dim
        assert b.e_rdd_expected == pytest.approx(expect, rel=1e-12)
        if prev is not None:
            assert b.e_rdd_expected < prev
        prev = b.e_rdd_expected


def _grid_rdd_errors(table, orders):
    """Per order, the Gauss-weighted mean over every node anchor ``a`` of
    ``e_rdd(a) = sum_x w(x) (y - truncated_S)**2`` and its minimum over the
    anchors, each anchored table swept from the grid with one-hot rows."""
    Y = table._full_values
    rules = table.problem.rules
    W = np.ones(())
    for r in rules:
        W = np.multiply.outer(W, r.weights)
    mean = dict.fromkeys(orders, 0.0)
    low = dict.fromkeys(orders, math.inf)
    for a in itertools.product(*(range(len(r.weights)) for r in rules)):
        anchored = node_anchored_table(table, a)
        for S in orders:
            e = float(np.sum(W * (Y - anchored.truncated(S)) ** 2))
            mean[S] += W[a] * e
            low[S] = min(low[S], e)
    return mean, low


@pytest.mark.parametrize(
    "make",
    [
        lambda: product_linear_problem(4, quad_order=3),
        lambda: sobol_g_problem(4, quad_order=4),  # kinked
        lambda: ishigami_problem(5),
    ],
    ids=["product_linear", "sobol_g", "ishigami"],
)
def test_expected_rdd_error_is_exact_on_the_gauss_grid(make, monkeypatch):
    # under the Gauss grid measure the ADD table is the target's exact ADD,
    # so the anchor average of the anchored errors is the budget to
    # roundoff at every order, and no anchor beats ADD's error
    table = build_add(make())
    vmap = variance_components(table)
    floor = _variance_floor(table.y_empty)
    budgets = {S: rdd_expected_error(S, vmap) for S in range(table.dim)}
    orders = [S for S, b in budgets.items() if b.e_add > floor]
    assert 1 in orders
    mean, low = _grid_rdd_errors(table, orders)
    for S in orders:
        want = budgets[S].e_rdd_expected
        assert abs(mean[S] - want) <= 1e-12 * want, S
        assert low[S] >= budgets[S].e_add * (1 - 1e-12), S
    # a coefficient off by one at (S, s) = (1, 2) breaks the identity
    real = errors.coeff_b
    monkeypatch.setattr(errors, "coeff_b", lambda S, s: real(S, s) + ((S, s) == (1, 2)))
    broken = rdd_expected_error(1, vmap).e_rdd_expected
    assert abs(mean[1] - broken) > 1e-6 * broken
