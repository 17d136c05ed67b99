"""Dimensional decompositions of multivariate functions under independent
product measures, with an exact truncation-error calculus.

The package builds both the integration-based (ANOVA-style) and the
anchored split of a function into per-subset components, truncates either
to S-variate surrogates, and prices the truncation: exact mean-square
error budgets, amplification factors and bounds for the anchored variant,
sensitivity indices, and Monte Carlo estimators that close the loop
against the analytic numbers.
"""
from dimdecomp.decomp import (
    AnchoredTable,
    CheckResult,
    ComponentTable,
    ProblemSpec,
    build_add,
    build_rdd,
    check_add_structure,
    check_form_equivalence,
    check_rdd_on_grid,
    check_rdd_structure,
    explicit_component,
    rdd_direct,
    rdd_direct_sums,
)
from dimdecomp.errors import (
    CardinalitySums,
    DecayModel,
    DecayPoint,
    ErrorBudget,
    TwoScaleReport,
    add_error,
    coeff_b,
    contrived_example,
    decay_curves,
    dim_for_pmin,
    error_bounds,
    lambert_w0,
    pmin_for_N,
    rdd_expected_error,
)
from dimdecomp.functions import default_marginal, function_names, make_function
from dimdecomp.mc import (
    McEstimate,
    check_optimality_split,
    mc_add_error,
    mc_expected_rdd_error,
    mc_rdd_error,
)
from dimdecomp.measures import (
    GAUSS_MAX_ORDER,
    MarginalMeasure,
    ProductMeasure,
    QuadratureRule,
    gauss_exactness_residual,
    gauss_rule,
    product_rules,
)
from dimdecomp.subsets import (
    VariableSubset,
    all_subsets_up_to,
    count_up_to,
    strict_subsets,
    subsets_of_cardinality,
)
from dimdecomp.variance import (
    VarianceMap,
    sobol_D,
    sobol_indices,
    variance_closure_residual,
    variance_components,
)

__version__ = "0.1.0"
