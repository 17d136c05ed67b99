from __future__ import annotations

import csv
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from dimdecomp import VariableSubset, cli, count_up_to, mc, variance
from dimdecomp.cli import _build_parser, load_config, main
from dimdecomp.errors import rdd_expected_error
from dimdecomp.mc import check_optimality_split
from test_api import FLAGS
from test_variance import closure_broken_table


def write_config(tmp_path: Path, data: dict) -> str:
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return str(p)


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


BASE = {
    "function": {"name": "product_linear"},
    "dim": 3,
    "marginals": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
    "quad_order": 10,
}


@pytest.fixture(autouse=True)
def unique_check_names(tmp_path):
    """Every verify_report.json a test writes names each check once."""
    yield
    for path in tmp_path.rglob("verify_report.json"):
        names = [c["name"] for c in json.loads(path.read_text())["checks"]]
        assert len(names) == len(set(names)), f"{path}: {names}"


class TestDecompose:
    def test_product_linear_golden(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "out": str(tmp_path / "out")})
        assert main(["decompose", "--config", cfg]) == 0
        rows = read_csv(tmp_path / "out" / "components.csv")
        assert len(rows) == 7
        by_label = {r["subset"]: r for r in rows}
        total = 37.0 / 27.0
        assert float(by_label["[1]"]["sigma2"]) == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert float(by_label["[1,2]"]["sigma2"]) == pytest.approx(1.0 / 9.0, rel=1e-9)
        assert float(by_label["[1,2,3]"]["sigma2"]) == pytest.approx(1.0 / 27.0, rel=1e-9)
        assert float(by_label["[1,2,3]"]["sobol_index"]) == pytest.approx(
            (1.0 / 27.0) / total, rel=1e-9
        )
        assert by_label["[2]"]["cardinality"] == "1"
        report = json.loads((tmp_path / "out" / "properties.json").read_text())
        assert report["passed"] is True
        assert report["mean"] == pytest.approx(1.0)
        assert report["total_variance"] == pytest.approx(total, rel=1e-9)
        assert report["closure_residual"] <= 1e-10
        out = capsys.readouterr().out
        assert "total variance" in out

    def test_constant_function_leaves_indices_blank(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "function": {
                    "name": "poly",
                    "terms": [{"coeff": 2.5, "exponents": [0, 0]}],
                },
                "dim": 2,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["decompose", "--config", cfg]) == 0
        rows = read_csv(tmp_path / "out" / "components.csv")
        assert all(r["sobol_index"] == "" for r in rows)
        assert "constant function" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "properties.json").read_text())
        assert report["constant_function"] is True

    def test_sobol_g_indices(self, tmp_path):
        a = [1.0, 2.0, 3.0]
        cfg = write_config(
            tmp_path,
            {
                "function": {"name": "sobol_g", "a": a},
                "dim": 3,
                "marginals": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                "quad_order": 64,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["decompose", "--config", cfg]) == 0
        rows = read_csv(tmp_path / "out" / "components.csv")
        v = [(1.0 / 3.0) / (1.0 + ai) ** 2 for ai in a]
        sigma2 = (1.0 + v[0]) * (1.0 + v[1]) * (1.0 + v[2]) - 1.0
        by_label = {r["subset"]: r for r in rows}
        for i, vi in enumerate(v):
            got = float(by_label[f"[{i + 1}]"]["sobol_index"])
            assert got == pytest.approx(vi / sigma2, rel=1.5e-3)


class TestErrors:
    def test_budget_table(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "out": str(tmp_path / "out")})
        assert main(["errors", "--config", cfg]) == 0
        rows = read_csv(tmp_path / "out" / "errors.csv")
        assert [r["order"] for r in rows] == ["0", "1", "2"]
        e_add = [float(r["e_add"]) for r in rows]
        assert e_add == pytest.approx([37.0 / 27.0, 10.0 / 27.0, 1.0 / 27.0], rel=1e-9)
        ratios = [float(r["ratio"]) for r in rows]
        assert ratios == pytest.approx([2.0, 4.4, 8.0], rel=1e-9)
        assert float(rows[1]["lower_bound"]) == pytest.approx(40.0 / 27.0, rel=1e-9)
        assert float(rows[1]["upper_bound"]) == pytest.approx(80.0 / 27.0, rel=1e-9)

    def test_order_selection_flag(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "out": str(tmp_path / "out")})
        assert main(["errors", "--config", cfg, "--truncation-orders", "1"]) == 0
        rows = read_csv(tmp_path / "out" / "errors.csv")
        assert [r["order"] for r in rows] == ["1"]

    def test_out_of_range_order_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "out": str(tmp_path / "out")})
        assert main(["errors", "--config", cfg, "--truncation-orders", "5"]) == 1
        assert "truncation order" in capsys.readouterr().err

    @pytest.mark.parametrize("orders", [[1.5, True], [True], ["1"], [1, 2.0]])
    def test_non_integer_orders_are_a_config_error(self, tmp_path, capsys, orders):
        # [1.5, true] is no order, not order 1 twice
        cfg = write_config(
            tmp_path, {**BASE, "truncation_orders": orders, "out": str(tmp_path / "out")}
        )
        assert main(["errors", "--config", cfg]) == 1
        assert "truncation_orders must be integers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, flags",
        [([1, 1, 0], []), (None, ["--truncation-orders", "1", "1", "0"])],
        ids=["file", "flag"],
    )
    def test_repeated_order_is_a_config_error(self, tmp_path, capsys, key, flags):
        # a repeated order once wrote its errors.csv row and report records twice
        data = {**BASE, "out": str(tmp_path / "out"), "mc": {"n_samples": 10_000}}
        if key is not None:
            data["truncation_orders"] = key
        cfg = write_config(tmp_path, data)
        for command in ("errors", "verify"):
            assert main([command, "--config", cfg, *flags]) == 1
            err = capsys.readouterr().err
            assert err == "error: truncation_orders lists order 1 more than once\n"
        assert not (tmp_path / "out").exists()


class TestVerify:
    def test_battery_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {**BASE, "out": str(tmp_path / "out"), "mc": {"n_samples": 20000, "seed": 42}},
        )
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "quadrature_normalization" in names
        assert any(n.startswith("mc_gate_rdd") for n in names)
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_every_verdict_follows_its_numbers(self, tmp_path, monkeypatch):
        # the default run: an entry passes exactly when its residual is
        # within its tolerance
        monkeypatch.chdir(tmp_path)
        assert main(["verify"]) == 0
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert len(report["checks"]) > 10
        for c in report["checks"]:
            assert c["passed"] == (c["residual"] <= c["tolerance"]), c["name"]

    def test_error_bounds_report_the_relative_gap(self, tmp_path, monkeypatch):
        # a budget 1.5e-12 below its lower bound, relatively, misses the
        # 1e-12 slack; its residual must then exceed its tolerance (it used
        # to print an absolute 2.22e-12 against 2.96e-12 and still fail)
        def below(order, vmap):
            budget = rdd_expected_error(order, vmap)
            if order != 1:
                return budget
            return dataclasses.replace(budget, e_rdd_expected=budget.lower * (1.0 - 1.5e-12))

        monkeypatch.setattr(cli, "rdd_expected_error", below)
        cfg = write_config(
            tmp_path,
            {
                **BASE,
                "quad_order": 4,
                "out": str(tmp_path / "out"),
                "mc": {"n_samples": 10_000, "seed": 7},
            },
        )
        assert main(["verify", "--config", cfg]) == 2
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        bound = checks.pop("error_bounds_S1")
        assert not bound["passed"]
        assert bound["residual"] > bound["tolerance"] == 1e-12
        assert bound["residual"] == pytest.approx(1.5e-12, rel=1e-3)
        for s in (0, 2):
            assert checks[f"error_bounds_S{s}"]["residual"] == 0.0
            assert checks[f"error_bounds_S{s}"]["passed"]

    def test_one_anchored_sweep_for_all_orders(self, tmp_path, monkeypatch):
        # one sampled check for every order, at the config's count and seed,
        # given the budgets verify computed
        calls = []

        def recorded(problem, budgets, n, seed):
            calls.append(([b.order for b in budgets], n, seed))
            return check_optimality_split(problem, budgets, n, seed)

        monkeypatch.setattr(cli, "check_optimality_split", recorded)
        cfg = write_config(
            tmp_path,
            {**BASE, "out": str(tmp_path / "out"), "mc": {"n_samples": 10_000, "seed": 7}},
        )
        assert main(["verify", "--config", cfg]) == 0
        assert calls == [([0, 1, 2], 10_000, 7)]

    def test_add_gates_target_the_error_budget(self, tmp_path, monkeypatch):
        # each mc_gate_add_S{s} compares with the budget's e_add, shifted
        # here so that no other sum of the same variances can match it
        budgets, targets = [], {}
        gate = mc._mc_gate

        def shifted(order, vmap):
            budget = rdd_expected_error(order, vmap)
            budgets.append(dataclasses.replace(budget, e_add=1.5 + order))
            return budgets[-1]

        def recorded(kind, order, est, target):
            targets[f"mc_gate_{kind}_S{order}"] = target
            return gate(kind, order, est, target)

        monkeypatch.setattr(cli, "rdd_expected_error", shifted)
        monkeypatch.setattr(mc, "_mc_gate", recorded)
        cfg = write_config(
            tmp_path,
            {**BASE, "out": str(tmp_path / "out"), "mc": {"n_samples": 10_000, "seed": 7}},
        )
        main(["verify", "--config", cfg])
        assert [targets[f"mc_gate_add_S{b.order}"] for b in budgets] == [1.5, 2.5, 3.5]

    def test_sampled_records_are_the_mc_gates(self, tmp_path):
        # the benchmark tolerates a 3-sigma miss only under the mc_gate_
        # prefix, so every sampled record carries it: three per order
        cfg = write_config(
            tmp_path,
            {**BASE, "out": str(tmp_path / "out"), "mc": {"n_samples": 10_000, "seed": 7}},
        )
        main(["verify", "--config", cfg, "--truncation-orders", "2", "0"])
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        sampled = [c["name"] for c in report["checks"] if c["detail"].startswith("sampled")]
        gates = [c["name"] for c in report["checks"] if c["name"].startswith("mc_gate_")]
        assert sampled == gates
        assert gates == [f"mc_gate_{kind}_S{s}" for s in (2, 0) for kind in ("add", "rdd", "excess")]

    def test_one_sampling_loop(self, tmp_path, monkeypatch):
        # every sampled gate comes from one loop over n points, each costing
        # y(X) and two anchored passes of the largest order
        rows, loops = [0], []
        make, sampled = cli.make_function, mc._sampled

        def counted_make(*args, **kwargs):
            fn = make(*args, **kwargs)

            def counted(x):
                rows[0] += len(x)
                return fn(x)

            return counted

        def spied(*args):
            before = rows[0]
            out = sampled(*args)
            loops.append(rows[0] - before)
            return out

        monkeypatch.setattr(cli, "make_function", counted_make)
        monkeypatch.setattr(mc, "_sampled", spied)
        n = 10_000
        cfg = write_config(
            tmp_path, {**BASE, "out": str(tmp_path / "out"), "mc": {"n_samples": n, "seed": 7}}
        )
        assert main(["verify", "--config", cfg]) == 0
        assert loops == [n * (1 + 2 * count_up_to(3, 2))]

    @pytest.mark.parametrize(
        "extra",
        [
            # a mean of 1000 over variances near 1e-6: E[y E[y|X_u]] - E[y]**2
            # cancelled to a 7.4e-5 residual
            {
                "function": {
                    "name": "poly",
                    "terms": [
                        {"coeff": 1000.0, "exponents": [0, 0, 0]},
                        {"coeff": 0.001, "exponents": [1, 0, 0]},
                        {"coeff": 0.002, "exponents": [1, 1, 0]},
                        {"coeff": 0.001, "exponents": [0, 1, 1]},
                    ],
                },
                "quad_order": 4,
            },
            # a constant: its roundoff was divided by a 1e-300 floor, 3.6e15
            {"function": {"name": "poly", "terms": [{"coeff": 3.0, "exponents": [0, 0]}]}, "dim": 2},
        ],
        ids=["mean-dominated", "constant"],
    )
    def test_subset_sum_identity_holds_at_roundoff(self, tmp_path, extra):
        cfg = write_config(
            tmp_path,
            {**BASE, **extra, "out": str(tmp_path / "out"), "mc": {"n_samples": 10_000}},
        )
        main(["verify", "--config", cfg])
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        identity = checks["subset_sum_variance_identity"]
        assert identity["passed"], identity
        assert identity["residual"] <= 1e-10

    def test_fault_injection_is_caught_and_named(self, tmp_path, capsys, monkeypatch):
        build = cli.build_add

        def corrupted(problem):
            # break the first univariate component's zero mean, in place,
            # so every check that reads the table array sees it
            table = build(problem)
            table.grid_values(VariableSubset(1, table.dim))[...] += 1e-3 * table.scale
            return table

        monkeypatch.setattr(cli, "build_add", corrupted)
        cfg = write_config(
            tmp_path,
            {**BASE, "out": str(tmp_path / "out"), "mc": {"n_samples": 20000, "seed": 42}},
        )
        assert main(["verify", "--config", cfg]) == 2
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert any(
            c["name"] == "add_zero_mean" and "[1]" in (c.get("detail") or "")
            for c in failed
        )
        assert "CHECKS FAILED" in capsys.readouterr().out
        # the other subcommands stop at the closure self-check, with no traceback
        for command in ("decompose", "errors"):
            assert main([command, "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: variance closure violated")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("dim,q", [(6, 4), (10, 2)])
    def test_subset_sum_identity_runs_above_five_variables(self, tmp_path, dim, q):
        # it was skipped there while it cost O(4**N)
        cfg = write_config(
            tmp_path,
            {
                **BASE,
                "dim": dim,
                "quad_order": q,
                "truncation_orders": [1],
                "out": str(tmp_path / "out"),
                "mc": {"n_samples": 10_000},
            },
        )
        main(["verify", "--config", cfg])
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        identity = checks["subset_sum_variance_identity"]
        assert identity["passed"], identity
        assert "add_orthogonality" not in checks

    def test_identity_catches_a_grid_fault_at_six_variables(self, tmp_path, monkeypatch):
        build = cli.build_add

        def corrupted(problem):
            # one target value of the grid, which sobol_D reads and the
            # component table does not
            table = build(problem)
            table._full_values.flat[-1] += 1e-3 * table.scale
            return table

        monkeypatch.setattr(cli, "build_add", corrupted)
        cfg = write_config(
            tmp_path,
            {
                **BASE,
                "dim": 6,
                "quad_order": 4,
                "truncation_orders": [1],
                "out": str(tmp_path / "out"),
                "mc": {"n_samples": 10_000},
            },
        )
        assert main(["verify", "--config", cfg]) == 2
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        identity = {c["name"]: c for c in report["checks"]}["subset_sum_variance_identity"]
        assert not identity["passed"]
        assert identity["residual"] > identity["tolerance"] == 1e-8
        assert identity["detail"].startswith("subset [")


def test_decompose_computes_the_closure_residual_once(tmp_path, monkeypatch):
    # variance_components and the report each computed it
    real, calls = variance.variance_closure_residual, []

    def counted(table, vmap):
        calls.append(real(table, vmap))
        return calls[-1]

    monkeypatch.setattr(cli, "variance_closure_residual", counted)
    monkeypatch.setattr(variance, "variance_closure_residual", counted)
    cfg = write_config(tmp_path, {**BASE, "out": str(tmp_path / "out")})
    assert main(["decompose", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "properties.json").read_text())
    assert len(calls) == 1
    assert report["closure_residual"] == calls[0]


class TestClosureSelfCheck:
    @pytest.fixture
    def cfg(self, tmp_path, monkeypatch):
        # every subcommand's ADD table fails variance closure by 2.142e-2
        monkeypatch.setattr(cli, "build_add", closure_broken_table)
        return write_config(
            tmp_path,
            {**BASE, "quad_order": 4, "out": str(tmp_path / "out"), "mc": {"n_samples": 10_000}},
        )

    @pytest.mark.parametrize("command", ["decompose", "errors"])
    def test_stops_with_one_line(self, cfg, tmp_path, capsys, command):
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: variance closure violated")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_verify_reports_the_failed_record(self, cfg, tmp_path):
        assert main(["verify", "--config", cfg]) == 2
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        (closure,) = [c for c in report["checks"] if c["name"] == "variance_closure"]
        assert not closure["passed"]
        assert closure["residual"] == pytest.approx(2.142e-2, rel=1e-3)
        assert report["passed"] is False


class TestFigure1:
    def test_threshold_and_sweep_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "out": str(tmp_path / "out"),
                "figure1": {"n_min": 3, "n_max": 20, "right_dim": 20, "rates": [5, 50]},
            },
        )
        assert main(["figure1", "--config", cfg]) == 0
        left = read_csv(tmp_path / "out" / "figure1_left.csv")
        assert [r["dim"] for r in left] == [str(n) for n in range(3, 21)]
        assert float(left[-1]["p_min"]) == pytest.approx(21.5187, abs=5e-4)
        pmins = [float(r["p_min"]) for r in left]
        assert all(a < b for a, b in zip(pmins, pmins[1:]))
        right = read_csv(tmp_path / "out" / "figure1_right.csv")
        assert len(right) == 2 * 20
        for rate in ("5", "50"):
            adds = [float(r["e_add_normalized"]) for r in right if r["rate"] == rate]
            assert all(a > b for a, b in zip(adds, adds[1:]))
        slow = [float(r["e_rdd_normalized"]) for r in right if r["rate"] == "5"]
        assert slow[1] > slow[0]
        fast = [float(r["e_rdd_normalized"]) for r in right if r["rate"] == "50"]
        assert all(a > b for a, b in zip(fast, fast[1:]))

    @pytest.mark.parametrize(
        "rates, message",
        [
            # [] printed "rates " and wrote a header-only figure1_right.csv
            ([], "figure1.rates must list at least one rate"),
            # [5, 5] wrote every sweep twice
            ([5, 5], "figure1.rates lists rate 5 more than once"),
            ([5, 50, 5.0], "figure1.rates lists rate 5 more than once"),
        ],
    )
    def test_rates_empty_or_repeated_are_a_config_error(self, tmp_path, capsys, rates, message):
        cfg = write_config(
            tmp_path,
            {"out": str(tmp_path / "out"), "figure1": {"right_dim": 20, "rates": rates}},
        )
        assert main(["figure1", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


    def test_sweep_past_the_float_range_writes_finite_shares(self, tmp_path):
        # right_dim 500 at rate 1.5 exited 2 on "intermediate overflow in
        # fsum": its anchored budgets reach 1e314, their shares 1e204
        cfg = write_config(
            tmp_path,
            {"out": str(tmp_path / "out"), "figure1": {"n_max": 10, "right_dim": 500, "rates": [1.5]}},
        )
        assert main(["figure1", "--config", cfg]) == 0
        right = read_csv(tmp_path / "out" / "figure1_right.csv")
        assert [r["order"] for r in right] == [str(S) for S in range(500)]
        shares = [float(r[k]) for r in right for k in ("e_add_normalized", "e_rdd_normalized")]
        assert all(math.isfinite(v) for v in shares)

    def test_shares_past_the_float_range_are_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"out": str(tmp_path / "out"), "figure1": {"right_dim": 1000, "rates": [1.5]}},
        )
        assert main(["figure1", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: figure1.right_dim 1000 at rate 1.5: "
            "the decay sweep at dimension 1000, rate 1.5 passes the float range\n"
        )
        assert not (tmp_path / "out").exists()


class TestContrived:
    def test_pinned_report(self, tmp_path, capsys):
        assert main(["contrived", "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "9.902" in out
        assert "24497.552" in out
        report = json.loads((tmp_path / "out" / "contrived.json").read_text())
        assert report["inversion"] is True
        assert report["e_rdd_order1"] == pytest.approx(9.902, abs=5e-4)
        assert report["e_rdd_order2"] == pytest.approx(24497.552, abs=5e-4)


class TestConfigHandling:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "typo_key": 1})
        assert main(["decompose", "--config", cfg]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_unknown_function(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"function": {"name": "mystery"}})
        assert main(["decompose", "--config", cfg]) == 1
        assert "mystery" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["decompose", "--config", str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["decompose", "--config", str(p)]) == 1

    def test_bad_marginal_kind(self, tmp_path):
        cfg = write_config(
            tmp_path, {**BASE, "marginals": {"kind": "cauchy"}}
        )
        assert main(["decompose", "--config", cfg]) == 1

    @pytest.mark.parametrize(
        "extra,field",
        [
            ({"dim": 3.9}, "dim"),
            ({"quad_order": True}, "quad_order"),
            ({"quad_order": 4.0}, "quad_order"),
            ({"quad_order": [4, 5.5, 6]}, "quad_order"),
            ({"mc": {"n_samples": 2000.5}}, "mc.n_samples"),
            ({"mc": {"seed": True}}, "mc.seed"),
            ({"figure1": {"n_min": 3.5}}, "figure1.n_min"),
            ({"figure1": {"n_max": 50.5}}, "figure1.n_max"),
            ({"figure1": {"right_dim": "20"}}, "figure1.right_dim"),
        ],
    )
    def test_integer_fields_are_not_truncated(self, tmp_path, capsys, extra, field):
        # {"dim": 3.9} is no dimension, not dimension 3
        cfg = write_config(tmp_path, {**BASE, **extra, "out": str(tmp_path / "out")})
        assert main(["decompose", "--config", cfg]) == 1
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra,message",
        [
            # verify's sampled check needs its floor; no subcommand gets past parsing
            ({"mc": {"n_samples": 9_999}}, "mc.n_samples must be at least 10000"),
            ({"mc": {"seed": -1}}, "mc.seed must be nonnegative"),
            ({"mc": 5}, "mc must be an object"),
            ({"function": "sobol_g"}, "function must be an object"),
            ({"figure1": 5}, "figure1 must be an object"),
            ({"figure1": {"rates": 5}}, "figure1.rates must be a list"),
            # a string is no list of rates, not the rates (5.0, 5.0)
            ({"figure1": {"rates": "55"}}, "figure1.rates must be a list"),
            ({"figure1": {"rates": ["5", 50]}}, "figure1.rates must be a number"),
            # a figure1 scale changed no output: both error columns are
            # normalized by the total variance
            ({"figure1": {"scale": 1.0}}, "unknown figure1 key(s): scale"),
            # bounds went to the Gauss rule as strings: a TypeError traceback
            (
                {"marginals": {"kind": "uniform", "lo": "0", "hi": 1}},
                "marginal.lo must be a number",
            ),
            # and as booleans were read as uniform(0, 1)
            (
                {"marginals": [{"kind": "uniform", "lo": False, "hi": True}]},
                "marginal.lo must be a number",
            ),
            # a poly term without exponents ended in a KeyError traceback
            (
                {"function": {"name": "poly", "terms": [{"coeff": 1.0}]}},
                "bad function spec: a poly term needs exactly the keys coeff and exponents",
            ),
            # and one with an extra key was read without it
            (
                {
                    "function": {
                        "name": "poly",
                        "terms": [{"coeff": 1.0, "exponents": [1, 0, 0], "power": 2}],
                    }
                },
                "bad function spec: a poly term needs exactly the keys coeff and exponents",
            ),
            # function parameters ran converted: a = (1, 1, 1)
            (
                {"function": {"name": "product_linear", "a": [True, "1", 1]}},
                "bad function spec: coefficient must be a number, got True",
            ),
            # figure1 wrote figure1_left.csv, then died in a ZeroDivisionError
            ({"figure1": {"rates": [math.inf]}}, "figure1.rates must be finite, got inf"),
            # and exited 1 only after that file, on "decay rate must exceed 1"
            ({"figure1": {"rates": [math.nan]}}, "figure1.rates must be finite, got nan"),
            # failed at the first grid evaluation, naming no parameter
            (
                {"function": {"name": "product_linear", "a": [math.nan, 1, 1]}},
                "bad function spec: coefficient must be finite, got nan",
            ),
            # figure1 and contrived never built the function: both exited 0
            (
                {"function": {"name": "product_linear", "a": [1, 1]}},
                "bad function spec: coefficient vector must have length 3",
            ),
            # nor the ProblemSpec that checks the quadrature orders; the
            # explicit ids keep these two cases' test ids stable
            pytest.param(
                {"quad_order": [4, 4]},
                "quad_order: got 2 orders for dimension 3",
                id="extra18-got 2 orders for dimension 3",
            ),
            pytest.param(
                {"quad_order": 65},
                "quad_order: quadrature order 65 exceeds the cap 64",
                id="extra19-quadrature order 65 exceeds the cap 64",
            ),
            ({"quad_order": [4, 4, 4, 4]}, "quad_order: got 4 orders for dimension 3"),
            ({"quad_order": [4, 65, 4]}, "quad_order: quadrature order 65 exceeds the cap 64"),
            ({"quad_order": 0}, "quad_order: quadrature orders must be at least 1"),
        ],
    )
    def test_malformed_sections_are_one_line_errors(self, tmp_path, capsys, extra, message):
        # the config is shared, so every subcommand rejects it alike
        cfg = write_config(tmp_path, {**BASE, **extra, "out": str(tmp_path / "out")})
        for command in FLAGS:
            assert main([command, "--config", cfg]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}")
            assert err.count("\n") == 1
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", [None, [1], "", 5, {"dir": "x"}, True])
    def test_out_must_be_a_nonempty_string(self, tmp_path, capsys, monkeypatch, out):
        # {"out": null} wrote into ./None, {"out": [1]} into ./[1]
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {**BASE, "out": out})
        assert main(["decompose", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out must be a nonempty string")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        assert main(["contrived", "--out", ""]) == 1
        assert "out must be a nonempty string" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,extra,message",
        [
            # the same order in the config file exits 1 as well
            (["--truncation-orders", "9"], {}, "truncation order 9 outside [0, 2]"),
            (["--truncation-orders", "1", "3"], {}, "truncation order 3 outside [0, 2]"),
            (["--seed", "-1"], {}, "mc.seed must be nonnegative"),
            (["--n-samples", "9999"], {}, "mc.n_samples must be at least 10000"),
            (["--seed", "3"], {"mc": 5}, "mc must be an object"),
        ],
    )
    def test_flags_are_validated_like_file_keys(self, tmp_path, capsys, flags, extra, message):
        cfg = write_config(tmp_path, {**BASE, **extra, "out": str(tmp_path / "out")})
        assert main(["verify", "--config", cfg, *flags]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flags_merge_into_file_sections(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "mc": {"n_samples": 20_000, "seed": 5}})
        args = _build_parser().parse_args(["verify", "--config", cfg, "--seed", "8"])
        got = load_config(args.config, args)
        assert (got.seed, got.n_samples, got.problem.dim) == (8, 20_000, 3)
        args = _build_parser().parse_args(["verify", "--n-samples", "30000"])
        got = load_config(args.config, args)
        assert (got.seed, got.n_samples) == (cli.DEFAULT_SEED, 30_000)

    @pytest.mark.parametrize(
        "command,flag",
        [
            (command, flag)
            for command, taken in FLAGS.items()
            for flag in sorted(FLAGS["verify"] - taken)
        ]
        # a prefix once ran as its flag: `errors --trunc 1` as --truncation-orders 1
        + [("errors", "--trunc"), ("verify", "--n")],
    )
    def test_subcommands_reject_flags_they_do_not_read(
        self, tmp_path, capsys, monkeypatch, command, flag
    ):
        # `contrived --seed 5` once exited 0 and ignored the seed
        monkeypatch.chdir(tmp_path)
        assert main([command, "--out", str(tmp_path / "out"), flag, "1"]) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_cli_flag(self, capsys):
        assert main(["decompose", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path, {**BASE, "quad_order": 10, "out": str(tmp_path / "from_config")}
        )
        override = tmp_path / "from_flag"
        assert main(
            ["decompose", "--config", cfg, "--out", str(override), "--quad-order", "4"]
        ) == 0
        assert not (tmp_path / "from_config").exists()
        report = json.loads((override / "properties.json").read_text())
        assert report["quad_order"] == 4

    def test_defaults_without_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["errors"]) == 0
        assert (tmp_path / "out" / "errors.csv").exists()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_main_runs_the_command_patched_on_the_module(tmp_path, monkeypatch, command):
    # the benchmark traces each subcommand by patching cli.cmd_<name>, so
    # main must look the function up when it runs, not at import
    calls = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda cfg: calls.append(cfg) or 7)
    assert main([command, "--out", str(tmp_path / "out")]) == 7
    assert [cfg.out_dir for cfg in calls] == [tmp_path / "out"]


def test_module_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "dimdecomp", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("dimdecomp ")


def test_module_entry_point_bad_usage_exits_one():
    proc = subprocess.run(
        [sys.executable, "-m", "dimdecomp", "nonsense-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr
