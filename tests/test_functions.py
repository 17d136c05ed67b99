from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimdecomp.functions import default_marginal, function_names, make_function


def test_registry_names():
    assert function_names() == ("ishigami", "poly", "product_linear", "sobol_g")
    with pytest.raises(ValueError):
        make_function("nope", 3)
    with pytest.raises(ValueError):
        default_marginal("nope")


def test_product_linear_values_and_shapes():
    fn = make_function("product_linear", 3)
    assert fn(np.array([0.5, 0.0, -0.5])) == pytest.approx(1.5 * 1.0 * 0.5)
    batch = fn(np.zeros((7, 3)))
    np.testing.assert_allclose(batch, np.ones(7))
    fn = make_function("product_linear", 2, a=[2.0, 0.0])
    assert fn(np.array([1.0, 5.0])) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        make_function("product_linear", 3, a=[1.0])
    with pytest.raises(ValueError):
        fn(np.zeros((4, 3)))


@pytest.mark.parametrize("a", [[True, 1.0, 1.0], ["1", 1.0, 1.0], "111", 1.0, [1.0, 1.0]])
def test_product_linear_coefficients_are_validated_not_converted(a):
    # [True, "1", 1] once ran as a = (1, 1, 1)
    with pytest.raises(ValueError, match="coefficient"):
        make_function("product_linear", 3, a=a)


def test_sobol_g_values():
    fn = make_function("sobol_g", 2, a=[0.0, 3.0])
    # at x = 0.5 each factor is a_i / (1 + a_i)
    assert fn(np.array([0.5, 0.5])) == pytest.approx(0.0 * 0.75)
    # at x = 0 each factor is (2 + a_i) / (1 + a_i)
    assert fn(np.array([0.0, 0.0])) == pytest.approx(2.0 * (5.0 / 4.0))
    with pytest.raises(ValueError):
        make_function("sobol_g", 2, a=[-1.0, 0.0])


@pytest.mark.parametrize("a", [[False, 1.0], ["0", 1.0], [np.bool_(True), 1.0]])
def test_sobol_g_coefficients_are_validated_not_converted(a):
    with pytest.raises(ValueError, match="coefficient must be a number"):
        make_function("sobol_g", 2, a=a)


def test_ishigami_values():
    fn = make_function("ishigami", 3)
    assert fn(np.array([math.pi / 2, 0.0, 0.0])) == pytest.approx(1.0)
    assert fn(np.array([0.0, math.pi / 2, 0.0])) == pytest.approx(7.0)
    fn = make_function("ishigami", 3, a=1.0, b=0.0)
    assert fn(np.array([math.pi / 2, math.pi / 2, 2.0])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        make_function("ishigami", 4)


@pytest.mark.parametrize("params", [{"a": True}, {"b": "0.1"}, {"a": "7", "b": 0.1}])
def test_ishigami_parameters_are_validated_not_converted(params):
    # a = true, b = "0.1" once ran as a = 1.0, b = 0.1
    with pytest.raises(ValueError, match="ishigami [ab] must be a number"):
        make_function("ishigami", 3, **params)


@pytest.mark.parametrize(
    "name,params",
    [
        ("product_linear", {"a": [math.nan, 1.0, 1.0]}),
        ("sobol_g", {"a": [1.0, math.inf, 1.0]}),
        ("ishigami", {"b": math.inf}),
        ("poly", {"terms": [{"coeff": -math.inf, "exponents": [1, 0, 0]}]}),
    ],
)
def test_non_finite_parameters_are_rejected(name, params):
    # a = (nan, 1, 1) once failed only at the first grid evaluation
    with pytest.raises(ValueError, match="must be finite"):
        make_function(name, 3, **params)


@pytest.mark.parametrize(
    "term",
    [
        {"coeff": True, "exponents": [1, 0]},
        {"coeff": "2.0", "exponents": [1, 0]},
        {"coeff": 1.0, "exponents": [True, 0]},
        {"coeff": 1.0, "exponents": ["1", 0]},
        {"coeff": 1.0, "exponents": [1.5, 0]},
        {"coeff": 1.0, "exponents": 1},
    ],
)
def test_poly_terms_are_validated_not_converted(term):
    with pytest.raises(ValueError, match="poly coeff|exponent"):
        make_function("poly", 2, terms=[term])


def test_poly_values():
    fn = make_function(
        "poly", 2, terms=[{"coeff": 2.0, "exponents": [1, 0]}, {"coeff": -1.0, "exponents": [1, 2]}]
    )
    assert fn(np.array([3.0, 2.0])) == pytest.approx(6.0 - 12.0)
    with pytest.raises(ValueError):
        make_function("poly", 2, terms=[])
    with pytest.raises(ValueError):
        make_function("poly", 2, terms=[{"coeff": 1.0, "exponents": [1]}])
    with pytest.raises(ValueError):
        make_function("poly", 2, terms=[{"coeff": 1.0, "exponents": [1, -1]}])


def test_default_marginals():
    assert default_marginal("product_linear").lo == -1.0
    assert default_marginal("sobol_g").lo == 0.0
    m = default_marginal("ishigami")
    assert m.lo == pytest.approx(-math.pi) and m.hi == pytest.approx(math.pi)


def _bits(values) -> bytes:
    return np.asarray(values).tobytes()


# every batch layout a target may get: C and F order, a read-only view and a
# single point
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "read-only": lambda x: np.lib.stride_tricks.as_strided(x, writeable=False),
    "1-D": lambda x: x[0],
}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 30), st.data())
def test_builtin_targets_equal_their_one_line_forms_bit_for_bit(dim, rows, data):
    # the one working array performs the same IEEE operations in the same
    # order as the expressions the targets were written as
    coords = st.floats(-2.0, 2.0, allow_subnormal=False)
    a = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=dim, max_size=dim)))
    x = np.array(data.draw(st.lists(coords, min_size=rows * dim, max_size=rows * dim)))
    x = x.reshape(rows, dim)
    forms = {
        "product_linear": lambda x: np.prod(1.0 + a * x, axis=-1),
        "sobol_g": lambda x: np.prod((np.abs(4.0 * x - 2.0) + a) / (1.0 + a), axis=-1),
    }
    for name, form in forms.items():
        fn = make_function(name, dim, a=a)
        for layout in LAYOUTS.values():
            assert _bits(fn(layout(x))) == _bits(form(layout(x))), name


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 30), st.data())
def test_poly_equals_its_dense_form_bit_for_bit(dim, rows, data):
    # dropping the exact 1.0 factors of the zero exponents leaves numpy's
    # sequential product unchanged; the own powers are taken as poly takes
    # them, since an exponent array's power can be an ulp off x * x
    exps = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
    terms = data.draw(st.lists(st.tuples(st.floats(-5.0, 5.0), exps), min_size=1, max_size=4))
    coords = st.floats(-2.0, 2.0)
    x = np.array(data.draw(st.lists(coords, min_size=rows * dim, max_size=rows * dim)))
    x = x.reshape(rows, dim)
    fn = make_function("poly", dim, terms=[{"coeff": c, "exponents": e} for c, e in terms])

    def dense(x):
        out = np.zeros(x.shape[:-1])
        for c, e in terms:
            e = np.array(e)
            own = np.flatnonzero(e)
            factors = np.ones(x.shape)
            factors[..., own] = x[..., own] ** e[own]
            out += c * np.prod(factors, axis=-1)
        return out

    for layout in LAYOUTS.values():
        assert _bits(fn(layout(x))) == _bits(dense(layout(x)))
