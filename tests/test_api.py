from __future__ import annotations

import argparse
import ast
import importlib.util
import inspect
from functools import cached_property
from pathlib import Path
from types import ModuleType

import dimdecomp
from dimdecomp import cli

# Every defaulted parameter of the package's public functions, methods and
# constructors.  A value that only one caller ever sets belongs in a module
# constant, so a parameter added here needs a second caller that sets it.
DEFAULTED = {
    "CheckResult.__init__(detail)",
    "ProblemSpec.__init__(quad_order)",
    "check_form_equivalence(seed)",
    "check_rdd_structure(seed)",
    "explicit_component(anchor)",
    "mc_add_error(n)",
    "mc_add_error(seed)",
    "mc_expected_rdd_error(n_pairs)",
    "mc_expected_rdd_error(seed)",
    "mc_rdd_error(n)",
    "mc_rdd_error(seed)",
    "MarginalMeasure.sample(size)",
    "MarginalMeasure.__init__(lo)",
    "MarginalMeasure.__init__(hi)",
    "ProductMeasure.sample(size)",
    "variance_components(check_closure)",
}

# Every public name the package exports: one removed or added here is an
# API change made on purpose.
EXPORTS = {
    "GAUSS_MAX_ORDER",
    # decomp
    "AnchoredTable", "CheckResult", "ComponentTable", "ProblemSpec", "build_add",
    "build_rdd", "check_add_structure", "check_form_equivalence", "check_rdd_on_grid",
    "check_rdd_structure", "explicit_component", "rdd_direct", "rdd_direct_sums",
    # errors
    "CardinalitySums", "DecayModel", "DecayPoint", "ErrorBudget", "TwoScaleReport",
    "add_error", "coeff_b", "contrived_example", "decay_curves", "dim_for_pmin",
    "error_bounds", "lambert_w0", "pmin_for_N", "rdd_expected_error",
    # functions
    "default_marginal", "function_names", "make_function",
    # mc
    "McEstimate", "check_optimality_split", "mc_add_error", "mc_expected_rdd_error",
    "mc_rdd_error",
    # measures
    "MarginalMeasure", "ProductMeasure", "QuadratureRule",
    "gauss_exactness_residual", "gauss_rule", "product_rules",
    # subsets
    "VariableSubset", "all_subsets_up_to", "count_up_to", "strict_subsets",
    "subsets_of_cardinality",
    # variance
    "VarianceMap", "sobol_D", "sobol_indices", "variance_closure_residual",
    "variance_components",
}

# Every public method and property of the exported classes: one spelling
# per operation, so a second spelling added here is an API change too.
MEMBERS = {
    # decomp
    "AnchoredTable.dim", "AnchoredTable.scale", "AnchoredTable.truncated",
    "ComponentTable.dim", "ComponentTable.grid_values", "ComponentTable.scale",
    "ComponentTable.truncated",
    "ProblemSpec.dim", "ProblemSpec.evaluate", "ProblemSpec.orders", "ProblemSpec.rules",
    # errors
    "CardinalitySums.cardinality_sums", "DecayModel.total_variance",
    # mc
    "McEstimate.within",
    # measures
    "MarginalMeasure.contains", "MarginalMeasure.moment", "MarginalMeasure.sample",
    "MarginalMeasure.standard_normal", "MarginalMeasure.uniform",
    "ProductMeasure.contains", "ProductMeasure.dim", "ProductMeasure.iid",
    "ProductMeasure.sample",
    "QuadratureRule.order",
    # subsets
    "VariableSubset.cardinality", "VariableSubset.empty", "VariableSubset.from_indices",
    "VariableSubset.full", "VariableSubset.indices", "VariableSubset.is_empty",
    "VariableSubset.label",
    # variance
    "VarianceMap.cardinality_sums", "VarianceMap.degenerate",
}


# Every accepted spelling of each CLI subcommand's flags: a subcommand takes
# the flags of the config keys it reads, and no parser accepts a prefix, so
# a flag added here is an API change too.
FLAGS = {
    "decompose": {"--config", "--out", "--quad-order"},
    "errors": {"--config", "--out", "--quad-order", "--truncation-orders"},
    "verify": {
        "--config", "--out", "--seed", "--n-samples", "--quad-order",
        "--truncation-orders",
    },
    "figure1": {"--config", "--out"},
    "contrived": {"--config", "--out"},
}


def _public():
    for name, obj in vars(dimdecomp).items():
        if not name.startswith("_") and not isinstance(obj, ModuleType):
            yield name, obj


def _callables():
    for name, obj in _public():
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_defaulted_public_parameters_are_pinned():
    got = {
        f"{name}({p.name})"
        for name, fn in _callables()
        for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty
    }
    assert got == DEFAULTED


def test_exported_names_are_pinned():
    assert {name for name, _ in _public()} == EXPORTS


def test_public_members_are_pinned():
    kinds = (staticmethod, classmethod, property, cached_property)
    got = {
        f"{name}.{attr}"
        for name, obj in _public()
        if inspect.isclass(obj)
        for attr, member in vars(obj).items()
        if not attr.startswith("_")
        and (isinstance(member, kinds) or inspect.isfunction(member))
    }
    assert got == MEMBERS


def test_cli_flags_are_pinned():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert not any(p.allow_abbrev for p in (parser, *sub.choices.values()))
    got = {
        name: {flag for a in p._actions for flag in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert got == FLAGS


def _tracing() -> ModuleType:
    """perfbench/tracing.py, read as it is."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_trace_targets_resolve():
    # the benchmark's traced run reports a span whose target no longer
    # resolves as null and "missing", so renaming or removing a traced name
    # is a change to the benchmark
    tracing = _tracing()
    assert tracing.PLAN
    missing = [
        f"{module}:{attr}"
        for module, attr, *_ in tracing.PLAN
        if tracing._owner(module, attr) is None
    ]
    assert missing == []


def test_every_import_is_used():
    # a module imports only names it reads; a name the benchmark traces at
    # its import site (a PLAN target) is read through the module instead
    traced = {(module, attr) for module, attr, *_ in _tracing().PLAN}
    unused = []
    for path in sorted(Path(dimdecomp.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"dimdecomp.{path.stem}"
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{module}:{name}"
            for name in sorted(imported - used)
            if (module, name) not in traced
        ]
    assert unused == []
