from __future__ import annotations

import inspect
from types import ModuleType

import dimdecomp

# Every defaulted parameter of the package's public functions, methods and
# constructors.  A value that only one caller ever sets belongs in a module
# constant, so a parameter added here needs a second caller that sets it.
DEFAULTED = {
    "CheckResult.__init__(detail)",
    "ComponentTable.__init__(anchor)",
    "ComponentTable.__init__(components)",
    "ComponentTable.__init__(full_values)",
    "ProblemSpec.__init__(quad_order)",
    "check_form_equivalence(n_pairs)",
    "check_form_equivalence(seed)",
    "check_rdd_structure(seed)",
    "explicit_component(anchor)",
    "DecayModel.__init__(scale)",
    "contrived_example(dim)",
    "contrived_example(univariate_share)",
    "mc_add_error(n)",
    "mc_add_error(seed)",
    "mc_expected_rdd_error(n_pairs)",
    "mc_expected_rdd_error(seed)",
    "mc_rdd_error(n)",
    "mc_rdd_error(seed)",
    "optimality_probe(n_perturbations)",
    "optimality_probe(seed)",
    "optimality_probe(n_samples)",
    "optimality_probe(amplitude)",
    "MarginalMeasure.sample(size)",
    "MarginalMeasure.__init__(lo)",
    "MarginalMeasure.__init__(hi)",
    "ProductMeasure.sample(size)",
    "variance_components(check_closure)",
}


def _callables():
    for name, obj in vars(dimdecomp).items():
        if name.startswith("_") or isinstance(obj, ModuleType):
            continue
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
