from __future__ import annotations

import dataclasses
import math
from functools import cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimdecomp import (
    CardinalitySums,
    McEstimate,
    ProblemSpec,
    ProductMeasure,
    add_error,
    build_add,
    check_form_equivalence,
    check_optimality_split,
    mc_add_error,
    mc_expected_rdd_error,
    mc_rdd_error,
    rdd_direct,
    rdd_direct_sums,
    rdd_expected_error,
    variance_components,
)
from dimdecomp import count_up_to, mc
from dimdecomp.mc import DEFAULT_CHUNK, MIN_PAIRS
from tests.conftest import (
    counted,
    ishigami_problem,
    product_linear_problem,
    sobol_g_problem,
)


def budgets_of(dim, orders, sums=None):
    """Exact budgets of `orders` from per-cardinality variance sums (none:
    all zero), with no grid."""
    return [rdd_expected_error(s, CardinalitySums(dim, sums or {})) for s in orders]


class TestMcEstimate:
    def test_within_gate(self):
        est = McEstimate(mean=1.0, std_error=0.1, n=1000, seed=0)
        assert est.within(1.25)
        assert not est.within(1.31)

    def test_validation(self):
        with pytest.raises(ValueError):
            McEstimate(mean=0.0, std_error=-1.0, n=10, seed=0)
        with pytest.raises(ValueError):
            McEstimate(mean=0.0, std_error=0.0, n=0, seed=0)


class TestAddErrorSampling:
    def test_deterministic(self, plin3):
        a = mc_add_error(plin3, 1, n=2000, seed=11)
        b = mc_add_error(plin3, 1, n=2000, seed=11)
        c = mc_add_error(plin3, 1, n=2000, seed=12)
        assert a == b
        assert a.mean != c.mean

    def test_pinned_value_gate(self, plin3):
        est = mc_add_error(plin3, 1, n=100_000, seed=42)
        assert est.within(10.0 / 27.0)
        assert est.std_error < 0.01

    def test_full_order_error_vanishes(self):
        # at the top order N - 1 both anchored surrogates reproduce a target
        # without an N-way interaction, here y = (1 + x_1)(1 + x_2) in N = 3
        p = product_linear_problem(3)
        p = ProblemSpec(lambda x: (1.0 + x[..., 0]) * (1.0 + x[..., 1]), p.measure)
        est = mc_add_error(p, 2, n=2000, seed=0)
        assert abs(est.mean) <= 1e-25

    def test_sample_count_floor(self, plin3):
        with pytest.raises(ValueError, match="at least"):
            mc_add_error(plin3, 1, n=999)

    def test_chunked_run_covers_requested_n(self, plin3, monkeypatch):
        monkeypatch.setattr(mc, "DEFAULT_CHUNK", 1024)
        est = mc_add_error(plin3, 1, n=5000, seed=1)
        assert est.n == 5000

    def test_chunk_merge_equals_one_pass_statistics(self, plin3, monkeypatch):
        # the count-weighted merge of 1024-row chunks gives the mean and
        # standard error of all 5000 products taken at once; each chunk
        # draws X, then the anchors C1 and C2
        monkeypatch.setattr(mc, "DEFAULT_CHUNK", 1024)
        est = mc_add_error(plin3, 1, n=5000, seed=3)
        rng = np.random.default_rng(3)
        gaps = []
        for m in [1024] * 4 + [904]:
            X = plin3.measure.sample(rng, m)
            y = plin3.evaluate(X)
            r1 = rdd_direct(plin3, 1, plin3.measure.sample(rng, m), X)
            r2 = rdd_direct(plin3, 1, plin3.measure.sample(rng, m), X)
            gaps.append((y - r1) * (y - r2))
        g = np.concatenate(gaps)
        assert est.mean == pytest.approx(float(np.mean(g)), rel=1e-12)
        assert est.std_error == pytest.approx(float(np.std(g, ddof=1)) / g.size**0.5, rel=1e-9)


@pytest.fixture(scope="module")
def sobol5():
    return sobol_g_problem(5, quad_order=6)


class TestAddErrorOrders:
    @pytest.mark.parametrize(
        "name,orders",
        [
            ("plin3", range(3)),  # every order of a 3-variable problem
            ("plin3", (2, 0, 2)),
            ("sobol5", range(5)),
            ("sobol5", (3, 0, 3)),
        ],
    )
    @pytest.mark.parametrize("n,chunk", [(2000, DEFAULT_CHUNK), (5000, 1024)])
    def test_equals_one_call_per_order(self, plin3, sobol5, name, orders, n, chunk, monkeypatch):
        # the two-anchor draw at several orders, on which the sampled check
        # builds its add gates, gives each order's estimate bit for bit
        monkeypatch.setattr(mc, "DEFAULT_CHUNK", chunk)
        problem = plin3 if name == "plin3" else sobol5
        got = mc._anchor_averaged(problem, tuple(orders), n, 13, 2, mc._cross)
        want = [mc_add_error(problem, s, n, seed=13) for s in orders]
        assert got == want

    def test_one_target_row_per_sample_for_all_orders(self, sobol5, monkeypatch):
        # y(X) once per sample, shared by every order and both anchors, plus
        # count_up_to(N, S_max) anchored rows per anchor: each call of a
        # 1024-row chunk (one anchored block) sees all of its rows
        monkeypatch.setattr(mc, "DEFAULT_CHUNK", 1024)
        p, seen = counted(sobol5)
        check_optimality_split(p, budgets_of(5, (2, 4, 0)), MIN_PAIRS, 1)
        per_sample = 1 + 2 * count_up_to(5, 4)
        assert sum(len(b) for b in seen) == MIN_PAIRS * per_sample
        assert [len(b) for b in seen] == [1024] * 9 * per_sample + [784] * per_sample
        seen.clear()
        mc_add_error(p, 1, n=5000, seed=1)
        assert sum(len(b) for b in seen) == 5000 * (1 + 2 * count_up_to(5, 1))

    def test_orders_checked_before_any_work(self, plin3, monkeypatch):
        p, seen = counted(plin3)

        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before the orders were checked")

        monkeypatch.setattr(ProductMeasure, "sample", no_draw)
        # one integer order: a sequence of orders is no order
        for bad in ((), [], 3, 4, -1, (1,), (1, 2), np.arange(1, 3), 1.5, "1", None, True):
            with pytest.raises(ValueError):
                mc_add_error(p, bad, n=1000)
        for bad in (3, -1, 1.0):
            with pytest.raises(ValueError):
                mc_rdd_error(p, bad, np.zeros(3), n=1000)
            with pytest.raises(ValueError):
                mc_expected_rdd_error(p, bad, n_pairs=10_000)
        assert seen == []
        monkeypatch.undo()
        assert mc_add_error(plin3, np.int64(1), n=1000) == mc_add_error(plin3, 1, n=1000)


# Problems, sample sizes and seeds of the gridless ADD gate, fixed before
# its first run: product_linear is exact at any q; sobol_g is kinked, so
# its budgets need q = 32 (at q = 8 they are off and the gate says so).
# For ishigami e_add(2) is at roundoff level, where no 3-sigma band holds.
ADD_GATES = [
    *[(f"product_linear N={N}", product_linear_problem(N), range(N), 50_000, 7000 + N)
      for N in range(2, 7)],
    ("sobol_g N=4 q=32", sobol_g_problem(4, quad_order=32), range(4), 20_000, 7100),
    ("ishigami", ishigami_problem(), range(2), 50_000, 7200),
]


@pytest.mark.parametrize(
    "problem,orders,n,seed", [g[1:] for g in ADD_GATES], ids=[g[0] for g in ADD_GATES]
)
def test_add_error_gate_against_exact_budget(problem, orders, n, seed):
    # the add gates of the sampled check, each mc_add_error(problem, S, n, seed)
    vmap = variance_components(build_add(problem))
    checks = check_optimality_split(problem, [rdd_expected_error(s, vmap) for s in orders], n, seed)
    gates = [c for c in checks if c.name.startswith("mc_gate_add_")]
    assert [c.name for c in gates] == [f"mc_gate_add_S{s}" for s in orders]
    for c in gates:
        assert c.passed, c


class TestRddErrorSampling:
    def test_zero_order_at_the_mean_anchor(self, plin3):
        # S=0 surrogate is the constant y(c); with c=0 that constant is the
        # mean, so the error is exactly the variance sigma^2 = 37/27
        est = mc_rdd_error(plin3, 0, np.zeros(3), n=100_000, seed=5)
        assert est.within(37.0 / 27.0)

    def test_shifted_anchor_adds_offset_squared(self, plin3):
        # constant-surrogate error at anchor c is sigma^2 + (y(c) - mean)^2
        c = np.array([0.5, 0.0, 0.0])
        target = 37.0 / 27.0 + (1.5 - 1.0) ** 2
        est = mc_rdd_error(plin3, 0, c, n=100_000, seed=5)
        assert est.within(target)

    def test_fixed_anchor_beats_no_one_in_particular(self, plin3):
        # sanity: S=1 anchored error at a specific anchor is positive and
        # finite, and deterministic in the seed
        a = mc_rdd_error(plin3, 1, np.array([0.3, -0.2, 0.1]), n=2000, seed=9)
        assert a.mean > 0.0
        assert a == mc_rdd_error(plin3, 1, np.array([0.3, -0.2, 0.1]), n=2000, seed=9)

    def test_sample_count_floor(self, plin3):
        with pytest.raises(ValueError, match="at least"):
            mc_rdd_error(plin3, 0, np.zeros(3), n=500)

    def test_anchor_checked_before_any_target_call(self, plin3):
        p, seen = counted(plin3)
        for bad in ([5.0, 0.0, 0.0], [np.nan, 0.0, 0.0], np.zeros(2), np.zeros((1000, 3))):
            with pytest.raises(ValueError, match="anchor"):
                mc_rdd_error(p, 1, bad, n=1000)
        assert seen == []


class TestExpectedRddSampling:
    def test_zero_order_doubles_the_variance(self, plin3):
        est = mc_expected_rdd_error(plin3, 0, n_pairs=100_000, seed=42)
        assert est.within(74.0 / 27.0)

    def test_first_order_pinned(self, plin3):
        est = mc_expected_rdd_error(plin3, 1, n_pairs=100_000, seed=42)
        assert est.within(44.0 / 27.0)

    def test_pair_count_floor(self, plin3):
        with pytest.raises(ValueError, match="at least"):
            mc_expected_rdd_error(plin3, 0, n_pairs=9_999)

    def test_deterministic(self, plin3):
        a = mc_expected_rdd_error(plin3, 1, n_pairs=10_000, seed=3)
        b = mc_expected_rdd_error(plin3, 1, n_pairs=10_000, seed=3)
        assert a == b


class TestExpectedRddOrders:
    @pytest.mark.parametrize(
        "make,dim,orders",
        [
            (product_linear_problem, 3, range(3)),
            (product_linear_problem, 5, (3, 0, 3, 1)),
            (sobol_g_problem, 5, range(5)),
        ],
    )
    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 4096])
    def test_equals_one_call_per_order(self, make, dim, orders, chunk, monkeypatch):
        # each order's estimate is its own draw of X then C per chunk, in
        # mean, std_error, n and seed, bit for bit
        monkeypatch.setattr(mc, "DEFAULT_CHUNK", chunk)
        p = make(dim)
        got = [mc_expected_rdd_error(p, s, 10_000, 21) for s in orders]

        def per_order(s):
            # one order per pass: draw X then C, gap against rdd_direct
            def squared_gap(rng, m):
                X = p.measure.sample(rng, m)
                C = p.measure.sample(rng, m)
                return [(p.evaluate(X) - rdd_direct(p, s, C, X)) ** 2]

            return mc._sampled(10_000, 21, 1, squared_gap)[0]

        assert got == [per_order(s) for s in orders]

    def test_one_draw_and_one_anchored_pass_for_all_orders(self, monkeypatch):
        # per pair: one target row for y(X) and count_up_to(N, S) anchored
        # rows, at every order
        monkeypatch.setattr(mc, "DEFAULT_CHUNK", 4096)
        dim, n = 5, 10_000
        p, seen = counted(product_linear_problem(dim))
        for s in (1, 3, 0, 2):
            seen.clear()
            mc_expected_rdd_error(p, s, n, 4)
            assert sum(len(b) for b in seen) == n * (1 + count_up_to(dim, s))

    def test_seeded_estimates_are_pinned(self):
        # one draw body for every anchor-averaged estimator left these bit
        # for bit as they were: X then C per chunk, (y - r)**2 per order
        pinned = {
            product_linear_problem: [
                ("0x1.5f27d1af2f8f7p+0", "0x1.df2b5bb686efap-4"),
                ("0x1.a1eb2deb681bap+2", "0x1.b640c63eafa23p-3"),
                ("0x1.f9c01b4bcefa4p+2", "0x1.aa7979cfa088dp-2"),
            ],
            sobol_g_problem: [
                ("0x1.530a0037c2107p-12", "0x1.0ba2de31b25d6p-16"),
                ("0x1.0f38e1f2f51acp+0", "0x1.0af124d96e5e9p-6"),
                ("0x1.cdd8f1abe5e66p-3", "0x1.7e8b5a638dbe1p-8"),
            ],
        }
        for make, want in pinned.items():
            dim = 5 if make is product_linear_problem else 4
            ests = [mc_expected_rdd_error(make(dim), s, 10_000, 21) for s in (3, 0, 1)]
            assert [(e.mean.hex(), e.std_error.hex()) for e in ests] == want

    def test_orders_checked_before_any_draw(self, plin3, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before the orders were checked")

        monkeypatch.setattr(ProductMeasure, "sample", no_draw)
        # one integer order, never a sequence
        for bad in ((), 3, -1, 1.5, True, None, (1,), [0, 1], (0, 3)):
            with pytest.raises(ValueError):
                mc_expected_rdd_error(plin3, bad, 10_000, 0)
        with pytest.raises(ValueError, match="at least"):
            mc_expected_rdd_error(plin3, 1, 9_999, 0)


class TestOptimalitySplit:
    def test_first_order_passes_against_e_add(self, plin3, plin3_vmap, monkeypatch):
        targets, ests = {}, {}
        gate = mc._mc_gate

        def recorded(kind, order, est, target):
            targets[kind], ests[kind] = target, est
            return gate(kind, order, est, target)

        monkeypatch.setattr(mc, "_mc_gate", recorded)
        checks = check_optimality_split(plin3, [rdd_expected_error(1, plin3_vmap)], 20_000, 3)
        assert [c.name for c in checks] == ["mc_gate_add_S1", "mc_gate_rdd_S1", "mc_gate_excess_S1"]
        assert all(c.passed for c in checks)
        assert targets["add"] == pytest.approx(10.0 / 27.0, rel=1e-10)
        assert targets["rdd"] == pytest.approx(44.0 / 27.0, rel=1e-10)
        # e_rdd - e_add = b_1(2) V_2 + b_1(3) V_3, with V_2 = 3/9 and V_3 = 1/27
        assert targets["excess"] == pytest.approx(3 * 3 / 9 + 7 / 27, rel=1e-10)
        # per sample (a**2 + b**2) / 2 = a * b + (a - b)**2 / 2
        assert ests["rdd"].mean == pytest.approx(ests["add"].mean + ests["excess"].mean, rel=1e-12)
        assert ests["add"] == mc_add_error(plin3, 1, 20_000, 3)

    def test_multi_order_matches_single_order_calls(self, plin3, plin3_vmap):
        budgets = [rdd_expected_error(s, plin3_vmap) for s in (2, 0, 1)]
        multi = check_optimality_split(plin3, budgets, MIN_PAIRS, 5)
        singles = [c for b in budgets for c in check_optimality_split(plin3, [b], MIN_PAIRS, 5)]
        assert multi == singles

    def test_same_seed_same_result(self, plin3, plin3_vmap):
        budgets = [rdd_expected_error(s, plin3_vmap) for s in (0, 1)]
        first = check_optimality_split(plin3, budgets, MIN_PAIRS, 9)
        assert check_optimality_split(plin3, budgets, MIN_PAIRS, 9) == first
        assert check_optimality_split(plin3, budgets, MIN_PAIRS, 10) != first

    def test_evaluations_per_call_are_pinned(self):
        # two anchored passes of the largest order per point, and no grid
        dim, n = 4, 12_000
        p, seen = counted(product_linear_problem(dim, 4))
        check_optimality_split(p, budgets_of(dim, (1, 2, 0)), n, 4)
        assert sum(len(b) for b in seen) == n * (1 + 2 * count_up_to(dim, 2))

    def test_validation_before_any_draw(self, plin3, plin3_vmap, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before the arguments were checked")

        monkeypatch.setattr(ProductMeasure, "sample", no_draw)
        one = rdd_expected_error(1, plin3_vmap)

        def at(order):
            return dataclasses.replace(one, order=order)

        for bad, msg in (
            ([at(3)], r"outside \[0, 2\]"), ([at(0), at(-1)], "outside"), ([at(1.5)], "integer"),
            ([at(True)], "integer"), ([], "at least one"), ((), "at least one"),
            (one, "sequence of ErrorBudget"), ((1,), "sequence of ErrorBudget"),
            (iter([one]), "sequence of ErrorBudget"), ([one, None], "sequence of ErrorBudget"),
            (budgets_of(4, (1,)), "dimension 3"), ([one, *budgets_of(2, (0,))], "dimension 3"),
            ([one, at(0), one], r"distinct, got \[1, 0, 1\]"),
        ):
            with pytest.raises(ValueError, match=msg):
                check_optimality_split(plin3, bad, MIN_PAIRS, 0)
        with pytest.raises(ValueError, match="at least"):
            check_optimality_split(plin3, [one], MIN_PAIRS - 1, 0)

    def test_budgets_need_no_grid(self, plin3, plin3_vmap, monkeypatch):
        # product_linear with a = 1 on U(-1, 1)^3 has V_s = e_s(a**2 / 3);
        # budgets from those sums give the table's estimates bit for bit
        # and its targets to 1e-12
        def gated(budgets):
            seen = []
            monkeypatch.setattr(
                mc, "_mc_gate", lambda kind, order, est, target: seen.append((est, target))
            )
            check_optimality_split(plin3, budgets, MIN_PAIRS, 17)
            return seen

        sums = {s: math.comb(3, s) / 3.0**s for s in (1, 2, 3)}  # e_s(1/3, 1/3, 1/3)
        free = gated(budgets_of(3, range(3), sums))
        table = gated([rdd_expected_error(s, plin3_vmap) for s in range(3)])
        assert [est for est, _ in free] == [est for est, _ in table]
        for (_, got), (_, want) in zip(free, table):
            assert got == pytest.approx(want, rel=1e-12)


GRID_PROBLEMS = {"ishigami": ishigami_problem, "sobol_g": lambda: sobol_g_problem(4, 6)}


@pytest.mark.parametrize("bad", [1500.7, True, "2000"], ids=["float", "bool", "str"])
def test_counts_and_seeds_are_integers(plin3, monkeypatch, bad):
    # a float count used to be truncated (1500.7 ran 1 500 samples), a
    # string count ended in a TypeError and a float seed in numpy's; each
    # is a ValueError naming the parameter, raised before any draw
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before the count and seed were checked")

    calls = [
        ("n", lambda n, seed: mc_add_error(plin3, 1, n, seed)),
        ("n", lambda n, seed: mc_rdd_error(plin3, 1, np.zeros(3), n, seed)),
        ("n_pairs", lambda n, seed: mc_expected_rdd_error(plin3, 1, n, seed)),
        ("n", lambda n, seed: check_optimality_split(plin3, budgets_of(3, [1]), n, seed)),
    ]
    monkeypatch.setattr(ProductMeasure, "sample", no_draw)
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(bad, 0)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            call(MIN_PAIRS, bad)


def test_numpy_integer_counts_and_seeds_pass(plin3):
    est = mc_add_error(plin3, 1, np.int64(2000), np.int64(11))
    assert est == mc_add_error(plin3, 1, 2000, 11)
    assert (type(est.n), type(est.seed)) == (int, int)
    pairs = mc_expected_rdd_error(plin3, 1, np.int64(MIN_PAIRS), np.int64(3))
    assert pairs == mc_expected_rdd_error(plin3, 1, MIN_PAIRS, 3)


@cache
def _on_grid(name):
    """(problem, full node grid, product weights, target, ADD truncated sums
    at every anchored order, e_add per order, total variance)."""
    problem = GRID_PROBLEMS[name]()
    table = build_add(problem)
    rules = problem.rules
    X = np.stack(np.meshgrid(*(r.nodes for r in rules), indexing="ij"), -1)
    X = X.reshape(-1, problem.dim)
    w = reduce(np.multiply.outer, [r.weights for r in rules]).reshape(-1)
    orders = tuple(range(problem.dim))
    vmap = variance_components(table)
    e_add = [add_error(s, vmap) for s in orders]
    yhats = [table.truncated(s).reshape(-1) for s in orders]
    return problem, X, w, problem.evaluate(X), yhats, e_add, vmap.total


@pytest.mark.parametrize("name", sorted(GRID_PROBLEMS))
@settings(max_examples=25, deadline=None)
@given(unit=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_split_identity_is_exact_on_the_grid(name, unit):
    # under the Gauss grid measure the ADD table is the projection onto
    # S-variate functions, so for any anchor the anchored surrogate's error
    # splits as e_add plus its distance to the ADD surrogate, to roundoff,
    # whatever the target (sobol_g is kinked)
    problem, X, w, y, yhats, e_add, total = _on_grid(name)
    m = problem.measure.marginals
    anchor = [mj.lo + u * (mj.hi - mj.lo) for mj, u in zip(m, unit[: problem.dim])]
    anchored = rdd_direct_sums(problem, range(problem.dim), anchor, X)
    for s, (yhat, r) in enumerate(zip(yhats, anchored)):
        split = np.dot(w, (y - r) ** 2) - np.dot(w, (yhat - r) ** 2)
        assert abs(split - e_add[s]) <= 1e-12 * total, s


class TestNonFiniteTarget:
    """A NaN from the target raises a finiteness error on every path,
    rather than a misleading estimate error or a NaN result."""

    @pytest.fixture
    def nan_problem(self, plin3):
        def function(x):
            return np.where(x[..., 0] > 0.5, np.nan, 1.0 + x[..., 1])

        return ProblemSpec(function, plin3.measure, plin3.quad_order)

    def test_sampled_estimators(self, nan_problem):
        with pytest.raises(ValueError, match="finite"):
            mc_add_error(nan_problem, 1, 2_000, seed=1)
        with pytest.raises(ValueError, match="finite"):
            mc_expected_rdd_error(nan_problem, 1, 10_000, seed=1)
        with pytest.raises(ValueError, match="finite"):
            mc_rdd_error(nan_problem, 1, np.zeros(3), 2_000, seed=1)

    def test_anchored_routes(self, nan_problem):
        X = np.array([[0.9, 0.0, 0.0], [0.1, 0.2, 0.3]])
        with pytest.raises(ValueError, match="finite"):
            rdd_direct(nan_problem, 1, np.zeros(3), X)
        with pytest.raises(ValueError, match="finite"):
            check_form_equivalence(nan_problem, 1, seed=1)
