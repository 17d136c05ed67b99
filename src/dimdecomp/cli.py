"""Command-line front end.

Subcommands: ``decompose`` (variance split and sensitivity indices),
``errors`` (truncation-error budgets per order), ``verify`` (property
battery with analytic-vs-sampled gates), ``figure1`` (threshold-rate and
decay-sweep tables) and ``contrived`` (the two-scale stress case).

Runs are configured by a JSON file (see README for the schema) plus the
command-line flags of the keys a subcommand reads, which are written over
the file's keys and validated with them.  :func:`parse_config` builds the
function and its :class:`ProblemSpec` once for every subcommand, so a bad
key fails each of them alike, before any file is written.  Unknown keys
and flags are rejected rather than ignored, and a flag has one spelling:
a prefix such as ``--trunc`` is an unknown flag.
All numeric output is printed with 12 significant digits, and every
subcommand is deterministic for a fixed config — seeds live in the config.

Exit codes: 0 success, 1 configuration or validation problem, 2 a
verification check failed (a failed report, or a self-check such as
variance closure raising ``ArithmeticError``, printed as one line).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from dimdecomp import __version__
from dimdecomp.decomp import (
    CheckResult,
    ProblemSpec,
    _worst,
    build_add,
    build_rdd,
    check_add_structure,
    check_form_equivalence,
    check_rdd_on_grid,
    check_rdd_structure,
)
from dimdecomp.errors import (
    DecayModel,
    contrived_example,
    decay_curves,
    pmin_for_N,
    rdd_expected_error,
)
from dimdecomp.functions import default_marginal, make_function
from dimdecomp.mc import (  # noqa: F401 - a trace target, see test_every_import_is_used
    MIN_PAIRS,
    check_optimality_split,
    mc_add_error,
    mc_expected_rdd_error,
)
from dimdecomp.measures import (
    MarginalMeasure,
    ProductMeasure,
    _check_integer,
    _check_real,
    gauss_exactness_residual,
)
from dimdecomp.subsets import VariableSubset, _check_orders, all_subsets_up_to, count_up_to
from dimdecomp.variance import (
    CLOSURE_RTOL,
    _checked_closure,
    _variance_floor,
    sobol_D,
    sobol_indices,
    variance_closure_residual,
    variance_components,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECKS_FAILED = 2

DEFAULT_SEED = 42
DEFAULT_N_SAMPLES = 100_000


class ConfigError(ValueError):
    """Bad run configuration or command arguments."""


def _fmt(x) -> str:
    return f"{float(x):.12g}"


# -- configuration -----------------------------------------------------------


@dataclass
class Figure1Config:
    n_min: int = 3
    n_max: int = 100
    right_dim: int = 20
    rates: tuple[float, ...] = (5.0, 50.0)


@dataclass
class RunConfig:
    """A validated run: the problem every subcommand reads, built once."""

    function_name: str
    problem: ProblemSpec
    orders: tuple[int, ...]
    n_samples: int
    seed: int
    out_dir: Path
    figure1: Figure1Config


def _section(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(_section(section, where)) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(sorted(unknown))}")


def _parse_marginal(data, where: str) -> MarginalMeasure:
    _reject_unknown(data, {"kind", "lo", "hi"}, where)
    lo, hi = (
        None if data.get(key) is None else _check_real(data[key], f"{where}.{key}")
        for key in ("lo", "hi")
    )
    try:
        return MarginalMeasure(data["kind"], lo, hi)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    """Validate a raw config mapping into a :class:`RunConfig`, building
    its function and :class:`ProblemSpec`, so every subcommand rejects
    the same configs."""
    _reject_unknown(
        data,
        {
            "function",
            "dim",
            "marginals",
            "quad_order",
            "truncation_orders",
            "mc",
            "out",
            "figure1",
        },
        "config",
    )
    dim = _check_integer(data.get("dim", 3), "dim")
    if dim < 1:
        raise ConfigError("dim must be at least 1")
    name, params = "product_linear", {}
    if "function" in data:
        params = dict(_section(data["function"], "function"))
        if "name" not in params:
            raise ConfigError("function section needs a name")
        name = str(params.pop("name"))
    marginals = (default_marginal(name),) * dim
    if "marginals" in data:
        raw = data["marginals"]
        if isinstance(raw, dict):
            marginals = (_parse_marginal(raw, "marginal"),) * dim
        elif isinstance(raw, list):
            if len(raw) not in (1, dim):
                raise ConfigError(
                    f"marginals list must have 1 or dim={dim} entries, got {len(raw)}"
                )
            parsed = tuple(_parse_marginal(m, "marginal") for m in raw)
            marginals = parsed * dim if len(parsed) == 1 else parsed
        else:
            raise ConfigError("marginals must be an object or a list of objects")
    raw = data.get("quad_order", 10)
    quad_order = (
        tuple(_check_integer(n, "quad_order") for n in raw)
        if isinstance(raw, list)
        else _check_integer(raw, "quad_order")
    )
    orders = tuple(range(dim))
    if "truncation_orders" in data:
        raw = data["truncation_orders"]
        if not isinstance(raw, list):
            raise ConfigError("truncation_orders must be a nonempty list")
        try:
            orders = _check_orders(raw, dim - 1)
        except ValueError as exc:
            raise ConfigError(
                f"truncation_orders must be integers in [0, {dim - 1}]: {exc}"
            ) from exc
        for s in orders:
            if orders.count(s) > 1:
                raise ConfigError(f"truncation_orders lists order {s} more than once")
    n_samples, seed = DEFAULT_N_SAMPLES, DEFAULT_SEED
    if "mc" in data:
        mc = data["mc"]
        _reject_unknown(mc, {"n_samples", "seed"}, "mc")
        n_samples = _check_integer(mc.get("n_samples", n_samples), "mc.n_samples")
        seed = _check_integer(mc.get("seed", seed), "mc.seed")
        if n_samples < MIN_PAIRS:
            raise ConfigError(f"mc.n_samples must be at least {MIN_PAIRS}")
        if seed < 0:
            raise ConfigError("mc.seed must be nonnegative")
    out = data.get("out", "out")
    if not isinstance(out, str) or not out:
        raise ConfigError(f"out must be a nonempty string, got {out!r}")
    f1 = Figure1Config()
    if "figure1" in data:
        fig = data["figure1"]
        _reject_unknown(fig, {f.name for f in fields(Figure1Config)}, "figure1")
        given = {}
        for key in ("n_min", "n_max", "right_dim"):
            if key in fig:
                given[key] = _check_integer(fig[key], f"figure1.{key}")
        if "rates" in fig:
            if not isinstance(fig["rates"], list):
                raise ConfigError(f"figure1.rates must be a list, got {fig['rates']!r}")
            rates = given["rates"] = tuple(_check_real(r, "figure1.rates") for r in fig["rates"])
            if not rates:
                raise ConfigError("figure1.rates must list at least one rate")
            for r in rates:
                if rates.count(r) > 1:
                    raise ConfigError(f"figure1.rates lists rate {_fmt(r)} more than once")
        f1 = Figure1Config(**given)
        if f1.n_min < 3:
            raise ConfigError("figure1.n_min must be at least 3 (no threshold exists below)")
        if f1.n_max < f1.n_min:
            raise ConfigError("figure1.n_max must be >= n_min")
        if f1.right_dim < 2 or any(r <= 1.0 for r in f1.rates):
            raise ConfigError("figure1 needs right_dim >= 2 and rates > 1")
    try:
        fn = make_function(name, dim, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad function spec: {exc}") from exc
    try:  # of the keys, ProblemSpec checks only the quadrature orders
        problem = ProblemSpec(fn, ProductMeasure(marginals), quad_order)
    except ValueError as exc:
        raise ConfigError(f"quad_order: {exc}") from exc
    return RunConfig(name, problem, orders, n_samples, seed, Path(out), f1)


def load_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    """The config file (none: defaults) with the command-line flags written
    over its keys, validated as one mapping by :func:`parse_config`."""
    data = {}
    if path is not None:
        if not path.strip():
            raise ConfigError("config path is empty")
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    data = dict(_section(data, "config"))
    flags = vars(args)
    for key in ("out", "quad_order", "truncation_orders"):
        if flags.get(key) is not None:
            data[key] = flags[key]
    mc = {key: flags[key] for key in ("seed", "n_samples") if flags.get(key) is not None}
    if mc:
        data["mc"] = {**_section(data.get("mc", {}), "mc"), **mc}
    return parse_config(data)


# -- output helpers ----------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, str):
                    cells.append(cell)
                elif isinstance(cell, (int, np.integer)):
                    cells.append(str(int(cell)))
                else:
                    cells.append(_fmt(cell))
            writer.writerow(cells)


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _print_checks(checks: list[CheckResult]) -> None:
    for c in checks:
        status = "ok " if c.passed else "FAIL"
        detail = f"  ({c.detail})" if c.detail and not c.passed else ""
        print(f"  [{status}] {c.name}: residual {_fmt(c.residual)} vs tol {_fmt(c.tolerance)}{detail}")


# -- subcommands ---------------------------------------------------------------


def cmd_decompose(cfg: RunConfig) -> int:
    problem, dim, q = cfg.problem, cfg.problem.dim, cfg.problem.quad_order
    table = build_add(problem)
    vmap = variance_components(table, check_closure=False)
    closure = _checked_closure(variance_closure_residual(table, vmap))
    checks = check_add_structure(table)
    constant = vmap.degenerate
    indices = None if constant else sobol_indices(vmap)
    # written as they come: at N = 15 a list of the 32 767 rows held 6 MiB
    rows = (
        [u.label(), u.cardinality, vmap.sigma2[u.mask], "" if constant else indices[u.mask]]
        for u in all_subsets_up_to(dim, dim)
        if not u.is_empty
    )
    out = cfg.out_dir
    _write_csv(out / "components.csv", ["subset", "cardinality", "sigma2", "sobol_index"], rows)
    report = {
        "command": "decompose",
        "version": __version__,
        "function": cfg.function_name,
        "dim": dim,
        "quad_order": q if isinstance(q, int) else list(q),
        "mean": table.y_empty,
        "total_variance": vmap.total,
        "closure_residual": closure,
        "constant_function": constant,
        "checks": [asdict(c) for c in checks],
        "passed": all(c.passed for c in checks),
    }
    _write_json(out / "properties.json", report)
    print(f"decompose: {cfg.function_name}, dim {dim}")
    print(f"  mean {_fmt(table.y_empty)}, total variance {_fmt(vmap.total)}")
    if constant:
        print("  constant function: sensitivity indices are undefined, left blank")
    else:
        first = {u.label(): indices[u.mask] for u in all_subsets_up_to(dim, 1) if not u.is_empty}
        pretty = ", ".join(f"{k}={_fmt(v)}" for k, v in first.items())
        print(f"  first-order indices: {pretty}")
    _print_checks(checks)
    print(f"  wrote {out / 'components.csv'} and {out / 'properties.json'}")
    return EXIT_OK if report["passed"] else EXIT_CHECKS_FAILED


def cmd_errors(cfg: RunConfig) -> int:
    table = build_add(cfg.problem)
    vmap = variance_components(table)
    rows = []
    print(f"errors: {cfg.function_name}, dim {cfg.problem.dim}, total variance {_fmt(vmap.total)}")
    print(f"  {'S':>3} {'e_add':>16} {'e_rdd_expected':>16} {'lower':>16} {'upper':>16} {'ratio':>12}")
    for s in cfg.orders:
        budget = rdd_expected_error(s, vmap)
        # undefined (blank, printed n/a) when no variance lies above s
        ratio = _fmt(budget.e_rdd_expected / budget.e_add) if budget.e_add > 0.0 else ""
        rows.append([s, budget.e_add, budget.e_rdd_expected, budget.lower, budget.upper, ratio])
        print(
            f"  {s:>3} {_fmt(budget.e_add):>16} {_fmt(budget.e_rdd_expected):>16}"
            f" {_fmt(budget.lower):>16} {_fmt(budget.upper):>16} {ratio or 'n/a':>12}"
        )
    _write_csv(
        cfg.out_dir / "errors.csv",
        ["order", "e_add", "e_rdd_expected", "lower_bound", "upper_bound", "ratio"],
        rows,
    )
    print(f"  wrote {cfg.out_dir / 'errors.csv'}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    problem, dim, orders = cfg.problem, cfg.problem.dim, cfg.orders
    checks: list[CheckResult] = []

    rules = problem.rules
    norm_resid = max(abs(float(np.sum(r.weights)) - 1.0) for r in rules)
    checks.append(CheckResult("quadrature_normalization", norm_resid, 1e-14))
    exact_resid = max(
        gauss_exactness_residual(m, r)
        for m, r in zip(problem.measure.marginals, rules)
    )
    checks.append(CheckResult("quadrature_exactness", exact_resid, 1e-12))

    n_enum = sum(1 for _ in all_subsets_up_to(dim, dim))
    count_gap = abs(n_enum - count_up_to(dim, dim))
    checks.append(CheckResult("subset_enumeration_count", float(count_gap), 0.0))

    table = build_add(problem)
    checks.extend(check_add_structure(table))

    vmap = variance_components(table, check_closure=False)
    closure = variance_closure_residual(table, vmap)
    checks.append(CheckResult("variance_closure", closure, CLOSURE_RTOL))

    # every D_u against sum_{v ⊆ u} sigma2_v, a cumulative sum per mask axis
    summed = vmap.sigma2.reshape((2,) * dim)
    for ax in range(dim):
        summed = summed.cumsum(axis=ax)
    worst, worst_label = _worst(
        np.abs(sobol_D(table) - summed.ravel()) / max(vmap.total, _variance_floor(table.y_empty)),
        lambda k: f"subset {VariableSubset(k, dim).label()}",
    )
    checks.append(CheckResult("subset_sum_variance_identity", worst, 1e-8, worst_label))

    # a stream apart from the one check_rdd_structure draws its points from
    anchor = problem.measure.sample(np.random.default_rng([cfg.seed, 1]))
    rdd_table = build_rdd(problem, anchor)
    checks.extend(check_rdd_structure(rdd_table, seed=cfg.seed))
    checks.append(check_rdd_on_grid(table, seed=cfg.seed))

    for s in range(min(3, dim - 1) + 1):
        checks.append(check_form_equivalence(problem, s, seed=cfg.seed + s))

    budgets = [rdd_expected_error(s, vmap) for s in orders]
    for s, budget in zip(orders, budgets):
        if budget.e_add <= 0.0:
            continue
        # relative distance of the budget outside its pinch [lower, upper]
        e, lo, hi = budget.e_rdd_expected, budget.lower, budget.upper
        gap = max(0.0, (lo - e) / lo, (e - hi) / hi)
        checks.append(
            CheckResult(
                f"error_bounds_S{s}",
                gap,
                1e-12,
                f"budget {_fmt(e)} in [{_fmt(lo)}, {_fmt(hi)}]",
            )
        )

    checks.extend(check_optimality_split(problem, budgets, cfg.n_samples, cfg.seed))

    passed = all(c.passed for c in checks)
    report = {
        "command": "verify",
        "version": __version__,
        "function": cfg.function_name,
        "dim": dim,
        "seed": cfg.seed,
        "n_samples": cfg.n_samples,
        "checks": [asdict(c) for c in checks],
        "passed": passed,
    }
    _write_json(cfg.out_dir / "verify_report.json", report)
    print(f"verify: {cfg.function_name}, dim {dim}, seed {cfg.seed}")
    _print_checks(checks)
    print(f"  report: {cfg.out_dir / 'verify_report.json'}")
    print(f"  {'all checks passed' if passed else 'CHECKS FAILED'}")
    return EXIT_OK if passed else EXIT_CHECKS_FAILED


def cmd_figure1(cfg: RunConfig) -> int:
    f1 = cfg.figure1
    right_rows = []
    for rate in f1.rates:
        try:
            points = decay_curves(DecayModel(f1.right_dim, rate))
        except ValueError as exc:  # before any file is written
            raise ConfigError(
                f"figure1.right_dim {f1.right_dim} at rate {_fmt(rate)}: {exc}"
            ) from None
        for point in points:
            right_rows.append(
                [rate, point.order, point.e_add_normalized, point.e_rdd_normalized]
            )
    left_rows = []
    for dim in range(f1.n_min, f1.n_max + 1):
        left_rows.append([dim, pmin_for_N(dim)])
    _write_csv(cfg.out_dir / "figure1_left.csv", ["dim", "p_min"], left_rows)
    _write_csv(
        cfg.out_dir / "figure1_right.csv",
        ["rate", "order", "e_add_normalized", "e_rdd_normalized"],
        right_rows,
    )
    print(
        f"figure1: threshold rates for dim {f1.n_min}..{f1.n_max}; "
        f"decay sweeps at dim {f1.right_dim}, rates {', '.join(_fmt(r) for r in f1.rates)}"
    )
    print(f"  p_min({f1.n_max}) = {_fmt(left_rows[-1][1])}")
    print(f"  wrote {cfg.out_dir / 'figure1_left.csv'} and {cfg.out_dir / 'figure1_right.csv'}")
    return EXIT_OK


def cmd_contrived(cfg: RunConfig) -> int:
    rep = contrived_example()
    out = cfg.out_dir
    _write_json(out / "contrived.json", asdict(rep))
    print(f"two-scale stress case: {rep.dim} variables,")
    print(
        f"  {_fmt(100 * rep.univariate_share)}% of the variance univariate, "
        f"{_fmt(100 * rep.top_share)}% in the full {rep.dim}-way interaction."
    )
    print("  (all error values in units of the total variance)")
    print(f"  integration-based error, order 1: {_fmt(rep.e_add_order1)}")
    print(f"  integration-based error, order 2: {_fmt(rep.e_add_order2)}")
    print(f"  expected anchored error,  order 1: {_fmt(rep.e_rdd_order1)}")
    print(f"  expected anchored error,  order 2: {_fmt(rep.e_rdd_order2)}")
    print(
        "  raising the order makes the anchored budget WORSE: "
        f"{'yes' if rep.inversion else 'no'}"
    )
    print(f"  wrote {out / 'contrived.json'}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):  # noqa: A003 - argparse API
        raise ConfigError(message)


# Every command-line flag; load_config writes each one but --config over its
# config key.
_FLAGS = {
    "--config": dict(help="JSON run config (see README)"),
    "--out": dict(help="output directory (default: out)"),
    "--seed": dict(type=int, help="base RNG seed"),
    "--n-samples": dict(type=int, help="Monte Carlo sample count"),
    "--quad-order": dict(type=int, help="Gauss nodes per coordinate"),
    "--truncation-orders": dict(
        type=int,
        nargs="+",
        metavar="S",
        help="truncation orders to process (default: all 0..dim-1)",
    ),
}

# Each subcommand takes --config, --out and the flags of the keys it reads;
# its config file may still hold every key, all validated alike.
_COMMANDS = {
    "decompose": ("variance split and sensitivity indices", ("--quad-order",)),
    "errors": ("truncation-error budgets per order", ("--quad-order", "--truncation-orders")),
    "verify": (
        "property battery with analytic-vs-sampled gates",
        ("--seed", "--n-samples", "--quad-order", "--truncation-orders"),
    ),
    "figure1": ("threshold-rate table and decay sweeps", ()),
    "contrived": ("two-scale stress case for the error budgets", ()),
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dimdecomp",
        description="Dimensional decompositions and truncation-error budgets.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"dimdecomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in ("--config", "--out", *flags):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args)
        # looked up at call time, so a patched cmd_<name> is the one that runs
        return globals()[f"cmd_{args.command}"](cfg)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # the library's failed self-checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKS_FAILED


if __name__ == "__main__":
    sys.exit(main())
