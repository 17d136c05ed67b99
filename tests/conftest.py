"""Shared fixtures: problems and tables reused across the suite.

Session-scoped so the expensive tensor-grid builds happen once.
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from dimdecomp import (
    ComponentTable,
    MarginalMeasure,
    ProblemSpec,
    ProductMeasure,
    build_add,
    make_function,
    variance_components,
)
from dimdecomp.decomp import _sweep


@pytest.fixture(scope="session", autouse=True)
def _subprocess_import_path():
    """pytest puts src on this process's import path (pyproject.toml);
    tests that run `python -m dimdecomp` in a subprocess need it there too."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


def product_linear_problem(dim: int, quad_order: int = 10) -> ProblemSpec:
    return ProblemSpec(
        make_function("product_linear", dim),
        ProductMeasure.iid(MarginalMeasure.uniform(-1.0, 1.0), dim),
        quad_order,
    )


def sobol_g_problem(dim: int, quad_order: int = 10, a=None) -> ProblemSpec:
    return ProblemSpec(
        make_function("sobol_g", dim, a=a),
        ProductMeasure.iid(MarginalMeasure.uniform(0.0, 1.0), dim),
        quad_order,
    )


def ishigami_problem(quad_order: int = 24) -> ProblemSpec:
    return ProblemSpec(
        make_function("ishigami", 3),
        ProductMeasure.iid(MarginalMeasure.uniform(-np.pi, np.pi), 3),
        quad_order,
    )


def poly_problem(dim: int = 4, quad_order: int = 6) -> ProblemSpec:
    # mixed univariate / bivariate / trivariate terms
    terms = [
        {"coeff": 1.0, "exponents": [2] + [0] * (dim - 1)},
        {"coeff": -0.5, "exponents": [1, 1] + [0] * (dim - 2)},
        {"coeff": 0.25, "exponents": [1, 0, 2] + [0] * (dim - 3)},
        {"coeff": 2.0, "exponents": [0, 1, 1, 1] + [0] * (dim - 4)},
    ]
    return ProblemSpec(
        make_function("poly", dim, terms=terms),
        ProductMeasure.iid(MarginalMeasure.uniform(-1.0, 1.0), dim),
        quad_order,
    )


def node_anchored_table(add: ComponentTable, a) -> ComponentTable:
    """The anchored table at node anchor `a` (node indices), swept from the
    grid values of the ADD table `add` with the one-hot rows of `a`."""
    Y = add._full_values
    rows = [np.eye(len(r.weights))[k] for r, k in zip(add.problem.rules, a)]
    return ComponentTable(add.problem, _sweep(Y, rows), Y)


def counted(problem: ProblemSpec):
    """`problem` with its target wrapped to record every block of rows."""
    seen = []

    def function(x):
        seen.append(np.array(x))
        return problem.function(x)

    return ProblemSpec(function, problem.measure, problem.quad_order), seen


@pytest.fixture(scope="session")
def plin3():
    return product_linear_problem(3)


@pytest.fixture(scope="session")
def plin3_table(plin3):
    return build_add(plin3)


@pytest.fixture(scope="session")
def plin3_vmap(plin3_table):
    return variance_components(plin3_table)


@pytest.fixture(scope="session")
def plin4():
    return product_linear_problem(4)


@pytest.fixture(scope="session")
def plin4_table(plin4):
    return build_add(plin4)


@pytest.fixture(scope="session")
def plin4_vmap(plin4_table):
    return variance_components(plin4_table)


@pytest.fixture(scope="session")
def plin_vmaps():
    """Variance maps for the product-linear family, N = 3..6."""
    out = {}
    for dim in range(3, 7):
        table = build_add(product_linear_problem(dim))
        out[dim] = variance_components(table)
    return out


@pytest.fixture(scope="session")
def ishigami3():
    return ishigami_problem()


@pytest.fixture(scope="session")
def ishigami_vmap(ishigami3):
    return variance_components(build_add(ishigami3))


# -- acceptance reporting ------------------------------------------------------
# test_acceptance.py wraps each criterion in the `criterion` fixture below;
# outcomes are replayed as a summary block so the one-line-per-criterion
# report is visible without -s.  (The list must live on pytest's own conftest
# instance — importing it from the tests would create a second copy.)

_ACCEPTANCE_RESULTS: list[tuple[str, bool]] = []


@pytest.fixture
def criterion():
    from contextlib import contextmanager

    @contextmanager
    def run(name: str):
        try:
            yield
        except BaseException:
            _ACCEPTANCE_RESULTS.append((name, False))
            print(f"[acceptance] {name}: FAIL")
            raise
        _ACCEPTANCE_RESULTS.append((name, True))
        print(f"[acceptance] {name}: PASS")

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(
            f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
        )
