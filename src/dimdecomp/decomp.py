"""Dimensional decompositions of multivariate functions.

A function ``y`` of ``N`` independent inputs splits into ``2**N`` component
functions, one per subset ``u`` of the variables, ``y(x) = sum_u y_u(x_u)``.
Two constructions of the split are built here:

* **ADD** (:func:`build_add`) defines components by integration against the
  input product measure.  Every nonempty component has zero mean in each of
  its own coordinates and distinct components are orthogonal, so variances
  add across subsets.  Components are stored on tensor subgrids of the
  per-coordinate Gauss nodes and evaluated at any point by barycentric
  interpolation, which reproduces the stored values exactly at the nodes.
  Interpolation is bilinear in two Khatri-Rao factors (row-wise Kronecker
  products of cardinal matrices), one for each half of a component's
  coordinates, so every component costs one GEMM, and a block of rows
  builds each factor once for all the components that share it.
* **RDD** (:func:`build_rdd`) replaces every integral with an evaluation at
  a fixed anchor point ``c``.  Components cost only function calls — no
  grids — and every nonempty component vanishes as soon as one of its own
  coordinates equals the matching anchor coordinate.  One kernel makes
  every anchored evaluation, streaming cache-sized row blocks: per block,
  the target sees one column-major buffer in which only the columns that
  change between consecutive subsets are rewritten.

Truncating either expansion to ``|u| <= S`` gives an S-variate surrogate.
For the anchored expansion the truncated sum collapses telescopically into
a binomially weighted sum of anchored evaluations, which
:func:`rdd_direct` evaluates without materializing any components; the two
routes agree pointwise and the test-suite holds them to that.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from math import comb, prod
from numbers import Integral
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from dimdecomp.measures import ProductMeasure, QuadratureRule, product_rules
from dimdecomp.subsets import (
    VariableSubset,
    _check_orders,
    all_subsets_up_to,
    strict_subsets,
    subsets_of_cardinality,
)

ADD = "ADD"
RDD = "RDD"

DEFAULT_MAX_GRID_POINTS = 4_000_000
#: an ADD table stores prod(q_j + 1) values; this caps it at 128 MiB of float64
MAX_TABLE_VALUES = 1 << 24
# rows per call of the target on the tensor grid; bounds the transient
# index, point and function-temporary arrays of grid evaluation
_EVAL_CHUNK = 65_536
# values held per row block by off-grid ADD evaluation: the block's
# Khatri-Rao factors and its largest GEMM output together (32 MiB); rows per
# block depend on the table (or the one component asked for), never on the
# truncation orders.  On a 2-core machine (one BLAS thread) truncated sums
# at N=6, q=10 took 2.3, 1.3 and 1.1 s per 20k rows at 2**20, 2**22 and
# 2**23 values, and 0.34-0.37 s per 100k rows at N=5, q=6 for all three
_BLOCK_VALUES = 1 << 22
# values per row block of the anchored kernel: the block's evaluation
# buffer of (rows, dim) float64 is 512 KiB, and its copies of the points and
# per-row anchors are no larger, so the columns the target reads and the
# kernel rewrites stay in cache.  On a 2-core machine (one BLAS thread) a
# pass of the rdd_mc benchmark took 0.41-0.58, 0.32-0.40, 0.33-0.41 and
# 0.42-0.46 s at 2**15, 2**16, 2**17 and 2**18 values (0.69 s with whole
# batches); smaller blocks pay more per-call overhead, larger ones spill
_ANCHOR_BLOCK_VALUES = 1 << 16

# Structural tolerances: residuals scale with max(1, |y_empty|) (or its
# square for second-moment checks).
TOL_ZERO_MEAN = 1e-10
TOL_ORTHOGONALITY = 1e-10
TOL_EXACTNESS = 1e-10
TOL_ANNIHILATION = 1e-12
TOL_FORM_EQUIVALENCE = 1e-10
#: pairwise orthogonality loops over all component pairs, so it runs up to here
MAX_ORTHOGONALITY_DIM = 5


@dataclass(frozen=True)
class ProblemSpec:
    """A target function paired with its input measure and quadrature order.

    Parameters
    ----------
    function : callable
        Vectorized map from points of shape ``(..., dim)`` to ``(...,)``;
        :meth:`evaluate` rejects any other output shape and any non-finite
        value.
        Batches may be column-major and read-only: the anchored kernel
        passes row blocks of its points, reusing one Fortran-ordered
        buffer per block across calls.  The function must not write into
        its input (a read-only batch raises ``ValueError``) and must call
        ``np.ascontiguousarray`` itself if it needs C order.
    measure : ProductMeasure
        Independent product measure of the inputs.
    quad_order : int or sequence of int, optional
        Gauss nodes per coordinate (scalar broadcasts), each an integer of
        at least 1; numpy integers pass, ``bool`` and non-integers raise
        ``ValueError``. Default 10.
    """

    function: Callable[[np.ndarray], np.ndarray]
    measure: ProductMeasure
    quad_order: int | tuple[int, ...] = 10

    def __post_init__(self) -> None:
        if not callable(self.function):
            raise ValueError("function must be callable")
        self.orders  # checks the quadrature orders at construction

    @property
    def dim(self) -> int:
        return self.measure.dim

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """Gauss nodes per coordinate, one int per dimension."""
        try:
            orders = tuple(self.quad_order)
        except TypeError:
            orders = (self.quad_order,) * self.dim
        if len(orders) != self.dim:
            raise ValueError(f"got {len(orders)} orders for dimension {self.dim}")
        for n in orders:
            if isinstance(n, bool) or not isinstance(n, Integral):
                raise ValueError(f"quadrature order must be an integer, got {n!r}")
            if n < 1:
                raise ValueError("quadrature orders must be at least 1")
        return tuple(int(n) for n in orders)

    @cached_property
    def rules(self) -> tuple[QuadratureRule, ...]:
        return product_rules(self.measure, self.orders)

    def evaluate(self, x) -> np.ndarray:
        """Evaluate the target as a float array of shape ``x.shape[:-1]``.

        Raises ``ValueError`` naming both shapes when the function returns
        any other shape (say ``(m, 1)``), which would otherwise broadcast,
        and when any value is not finite.  Every grid, anchored and sampled
        evaluation of the package goes through here.
        """
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.function(x), dtype=float)
        if out.shape != x.shape[:-1]:
            raise ValueError(
                f"function returned shape {out.shape} for points of shape "
                f"{x.shape}; expected {x.shape[:-1]}"
            )
        if not np.isfinite(out).all():
            raise ValueError("function returned non-finite values")
        return out


@dataclass(frozen=True)
class AnchoredApprox:
    """S-variate anchored surrogate bound to a problem and reference point.

    Calling an instance evaluates :func:`rdd_direct` at the stored anchor.
    """

    problem: ProblemSpec
    order: int
    anchor: np.ndarray

    def __post_init__(self) -> None:
        anchor = _check_anchor(self.problem, self.anchor).copy()
        (order,) = _check_orders((self.order,), self.problem.dim - 1)
        anchor.setflags(write=False)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "order", order)

    def __call__(self, x) -> np.ndarray | float:
        return rdd_direct(self.problem, self.order, self.anchor, x)


class ComponentTable:
    """Components of a built decomposition, queried by subset.

    ADD tables hold component values on tensor subgrids of the Gauss nodes
    and evaluate them anywhere by barycentric interpolation (the weights are
    computed on first use).  RDD tables hold no values: components are
    reproduced on demand from anchored evaluations of the target, memoized
    within each row block of a call.

    Build through :func:`build_add` / :func:`build_rdd`, not directly.
    """

    def __init__(
        self,
        kind: str,
        problem: ProblemSpec,
        y_empty: float,
        *,
        anchor: np.ndarray | None = None,
        components: dict[int, np.ndarray] | None = None,
        full_values: np.ndarray | None = None,
    ) -> None:
        if kind not in (ADD, RDD):
            raise ValueError(f"kind must be {ADD!r} or {RDD!r}")
        if kind == RDD and anchor is None:
            raise ValueError("an RDD table needs an anchor")
        if kind == ADD and components is None:
            raise ValueError("an ADD table needs component grids")
        self.kind = kind
        self.problem = problem
        self.y_empty = float(y_empty)
        self.anchor = anchor
        self._components = components or {}
        self._full_values = full_values

    @property
    def dim(self) -> int:
        return self.problem.dim

    @property
    def scale(self) -> float:
        """Magnitude used to normalize structural residuals."""
        return max(1.0, abs(self.y_empty))

    def masks(self) -> list[int]:
        """Masks of stored components (ADD) in (cardinality, mask) order."""
        return sorted(self._components, key=lambda m: (m.bit_count(), m))

    def grid_values(self, u: VariableSubset) -> np.ndarray | float:
        """ADD component values on the subgrid of `u` (a scalar for ``u = {}``)."""
        self._require(ADD)
        if u.is_empty:
            return self.y_empty
        return self._components[u.mask]

    def component(self, u: VariableSubset, x) -> float | np.ndarray:
        """Evaluate one component at points ``x`` of shape ``(|u|,)`` or ``(m, |u|)``.

        Columns of ``x`` follow ``u.indices()`` in ascending order.  ADD
        tables interpolate between the Gauss nodes; at a node the result is
        the stored grid value, bit for bit.
        """
        if u.dim != self.dim:
            raise ValueError(f"subset dimension {u.dim} != table dimension {self.dim}")
        if u.is_empty:
            return self.y_empty
        X, squeeze = _as_rows(x, u.cardinality)
        if self.kind == ADD:
            coords = u.indices()
            out = np.empty(X.shape[0])
            for rows in self._row_blocks(X.shape[0], coords):
                out[rows] = _Interpolant(self, X[rows], coords)(self._components[u.mask], coords)
        else:
            out = self._rdd_component_at(u, X)
        return float(out[0]) if squeeze else out

    def truncated(self, order: int, x) -> float | np.ndarray:
        """Evaluate the S-variate truncated sum at full points ``x``."""
        return self.truncated_sums((order,), x)[0]

    def truncated_sums(self, orders: Sequence[int], x) -> list[float | np.ndarray]:
        """The truncated sums at several orders, one per entry of `orders`.

        One pass over the components up to ``max(orders)`` in (cardinality,
        mask) order keeps a running sum and copies it at each requested
        cardinality boundary, so every result is bit-for-bit the one a
        separate :meth:`truncated` call gives.  Repeated orders share one
        array.  ADD tables make the pass once per row block through the
        bilinear kernel (:class:`_Interpolant`): each component is one GEMM
        between Khatri-Rao factors that the block builds once and shares.
        The rows of a block depend on the table alone (see
        :meth:`_row_blocks`), so the requested orders never change a value;
        another block size changes values at roundoff level only.
        """
        orders = _check_orders(orders, self.dim)
        X, squeeze = _as_rows(x, self.dim)
        if self.kind == ADD:
            sums = self._interpolated_sums(self._components, self.y_empty, orders, X)
        else:
            sums = {s: np.empty(X.shape[0]) for s in orders}
            subsets = all_subsets_up_to(self.dim, max(orders))
            for rows, parts in _rdd_components(self.problem, self.anchor, X, subsets):
                _running_sums(parts, sums, rows, len(X[rows]))
        return [float(sums[s][0]) if squeeze else sums[s] for s in orders]

    # -- ADD internals ----------------------------------------------------

    def _require(self, kind: str) -> None:
        if self.kind != kind:
            raise ValueError(f"operation requires a {kind} table, not {self.kind}")

    @cached_property
    def _bary(self) -> list[np.ndarray]:
        """Barycentric weights of each coordinate's Gauss nodes."""
        return [_bary_weights(r.nodes) for r in self.problem.rules]

    def _row_blocks(self, m: int, coords: Sequence[int] | None = None) -> Iterator[slice]:
        """Row blocks of off-grid evaluation, sized by ``_BLOCK_VALUES``.

        The budget covers the Khatri-Rao factors a block holds and its
        largest GEMM output.  For the one component of `coords` that is its
        head and tail factors, each with its prefixes, and its output.  For
        truncated sums (`coords` None) a row may hold the factor of every
        subset of at most ``ceil(N/2)`` coordinates, ``sum_k e_k(q)``
        values, and an output of at most the ``floor(N/2)`` largest ``q_j``
        multiplied.  Rows per block (never less than one) thus depend on the
        table and the component alone, not on the orders asked for.
        """
        q = self.problem.orders
        if coords is None:
            q = sorted(q)
            N = len(q)
            e = [1] + [0] * N  # elementary symmetric polynomials of the q_j
            for qj in q:
                for k in range(N, 0, -1):
                    e[k] += qj * e[k - 1]
            per_row = sum(e[1 : (N + 1) // 2 + 1]) + prod(q[N - N // 2 :])
        else:
            q = [q[j] for j in coords]
            h = (len(q) + 1) // 2
            per_row = sum(accumulate(q[:h], mul)) + sum(accumulate(q[h:], mul)) + prod(q[h:])
        step = max(1, _BLOCK_VALUES // per_row)
        return (slice(start, start + step) for start in range(0, m, step))

    def _interpolated_sums(
        self,
        grids: dict[int, np.ndarray],
        constant: float,
        orders: tuple[int, ...],
        X: np.ndarray,
    ) -> dict[int, np.ndarray]:
        """Truncated sums, at the full points `X`, of the subgrid arrays
        `grids` (by subset mask, the table's layout) plus `constant`.

        Serves the table's own components and any same-shaped arrays (the
        perturbations of :func:`dimdecomp.mc.optimality_probe`) alike.
        """
        sums = {s: np.empty(X.shape[0]) for s in orders}
        top = max(orders)
        for rows in self._row_blocks(X.shape[0]):
            block = X[rows]
            interp = _Interpolant(self, block, range(self.dim))
            parts = (
                (u, interp(grids[u.mask], u.indices()) if u.mask else constant)
                for u in all_subsets_up_to(self.dim, top)
            )
            _running_sums(parts, sums, rows, len(block))
        return sums

    # -- RDD internals ----------------------------------------------------

    def _rdd_component_at(self, u: VariableSubset, X: np.ndarray) -> np.ndarray:
        # Recurse over the sub-lattice of u only; columns of X follow
        # u.indices().
        lattice = list(strict_subsets(u)) + [u]
        out = np.empty(X.shape[0])
        for rows, parts in _rdd_components(self.problem, self.anchor, X, lattice, u.indices()):
            out[rows] = dict(parts)[u]
        return out


# -- builders --------------------------------------------------------------


def build_add(
    problem: ProblemSpec,
    *,
    max_grid_points: int = DEFAULT_MAX_GRID_POINTS,
) -> ComponentTable:
    """Build the integration-based decomposition on the tensor Gauss grid.

    Follows the operator form ``y_u = prod_{j in u} (I - P_j)
    prod_{j not in u} P_j y``, where ``P_j`` is Gauss quadrature over
    coordinate ``j``.  The target is evaluated once on the full tensor grid
    (``prod q_j`` evaluations, in chunks).  One top-down sweep of the subset
    lattice then forms every conditional mean ``M_u`` from its parent
    ``M_{u + {j}}`` by a single one-axis contraction, and each mean becomes
    its component in place by applying ``I - P_j`` along its own axes.  The
    table stores ``prod (q_j + 1)`` values and costs one contraction per
    subset, plus ``|u|`` centering passes per component.  On a Gauss grid
    zero means, orthogonality and grid exactness hold to roundoff by
    construction.

    Parameters
    ----------
    problem : ProblemSpec
    max_grid_points : int, optional
        Reject builds whose full tensor grid exceeds this many points.
        Builds whose table would exceed ``MAX_TABLE_VALUES`` values are
        rejected as well, before the target is evaluated.

    Returns
    -------
    ComponentTable
        An ADD table holding all ``2**dim`` components, evaluable at any
        point by barycentric interpolation.
    """
    N = problem.dim
    table_values = prod(q + 1 for q in problem.orders)
    if table_values > MAX_TABLE_VALUES:
        raise ValueError(
            f"ADD table needs {table_values} values, over the budget {MAX_TABLE_VALUES}"
        )
    Y = _evaluate_full_grid(problem, max_grid_points)
    weights = [r.weights for r in problem.rules]
    full = (1 << N) - 1
    # (a) conditional means, each from its parent by one contraction; the
    # full-set mean is a copy because Y itself stays as the table's grid
    means = {full: Y.copy()}
    for u in range(full - 1, -1, -1):
        j = (full ^ u).bit_length() - 1  # highest coordinate outside u
        parent = u | 1 << j
        view, rest = _along(means[parent], parent, j)
        means[u] = _integrate(view, weights[j]).reshape(rest)
    y_empty = float(means.pop(0))
    # (b) components in place: (I - P_j) along every own coordinate
    for u, M in means.items():
        for j in range(N):
            if u >> j & 1:
                view, _ = _along(M, u, j)
                view -= _integrate(view, weights[j])[:, None, :]
    return ComponentTable(ADD, problem, y_empty, components=means, full_values=Y)


def build_rdd(problem: ProblemSpec, anchor) -> ComponentTable:
    """Build the anchored decomposition at reference point `anchor`.

    Nothing is precomputed beyond ``y(anchor)``; components are reproduced
    from anchored evaluations when queried.
    """
    c = _check_anchor(problem, anchor).copy()
    c.setflags(write=False)
    y_c = float(problem.evaluate(c[None, :])[0])
    return ComponentTable(RDD, problem, y_c, anchor=c)


def rdd_direct(problem: ProblemSpec, order: int, anchor, x) -> float | np.ndarray:
    """Evaluate the S-variate anchored surrogate directly.

    Uses the collapsed form: an alternating binomially weighted sum over
    all anchored evaluations with ``S - k`` free coordinates,

    ``sum_{k=0..S} (-1)**k C(N-S+k-1, k) sum_{|u|=S-k} y(x_u, c_-u)``.

    The ``sum_{k<=S} C(N, k)`` anchored evaluations per point run through
    :func:`_anchored` in row blocks of at most ``_ANCHOR_BLOCK_VALUES //
    N`` rows; each row gets the value a single batch would give it, so the
    block size never changes a result.

    Parameters
    ----------
    problem : ProblemSpec
    order : int
        Truncation order ``0 <= S < dim``.
    anchor : array
        Shape ``(dim,)``, or ``(m, dim)`` to pair each row of `x` with its
        own anchor.
    x : array
        Shape ``(dim,)`` or ``(m, dim)``.

    Returns
    -------
    float or ndarray
        Scalar for a single point, else shape ``(m,)``.
    """
    N = problem.dim
    (order,) = _check_orders((order,), N - 1)
    X, squeeze = _as_rows(x, N)
    C = _check_anchor(problem, anchor, rows=X.shape[0])
    # a subset of cardinality s = S - k carries the weight of term k above
    weight = [
        (-1) ** (order - s) * comb(N - s - 1, order - s) for s in range(order + 1)
    ]
    subsets = chain.from_iterable(
        subsets_of_cardinality(N, s) for s in range(order, -1, -1)
    )
    out = np.zeros(X.shape[0])
    for rows, block in _anchored(problem, C, X, subsets):
        acc = out[rows]
        for u, y in block:
            acc += weight[u.cardinality] * y
    return float(out[0]) if squeeze else out


def explicit_component(
    problem: ProblemSpec,
    u: VariableSubset,
    kind: str,
    x_u,
    *,
    anchor=None,
) -> float:
    """Evaluate one component by its non-recursive alternating-sum form.

    For ADD this sums signed conditional means over all ``v ⊆ u`` (each one
    a fresh quadrature over the complementary coordinates); for RDD it sums
    signed anchored evaluations.  Exists as an independent route against the
    recursive construction — the two must agree to roundoff.
    """
    if kind not in (ADD, RDD):
        raise ValueError(f"kind must be {ADD!r} or {RDD!r}")
    if u.dim != problem.dim:
        raise ValueError(f"subset dimension {u.dim} != problem dimension {problem.dim}")
    pt = np.asarray(x_u, dtype=float).reshape(-1)
    if pt.shape != (u.cardinality,):
        raise ValueError(f"x_u must have shape ({u.cardinality},)")
    coords = u.indices()
    lattice = list(strict_subsets(u)) + [u]
    if kind == RDD:
        c = _check_anchor(problem, anchor)
        ((_, block),) = _anchored(problem, c, pt[None, :], lattice, coords)
        terms = [float(y[0]) for _, y in block]
    else:
        value_at = dict(zip(coords, pt))
        terms = [
            _conditional_mean(problem, v.indices(), [value_at[j] for j in v.indices()])
            for v in lattice
        ]
    total = 0.0
    for v, term in zip(lattice, terms):
        total += (-1) ** (u.cardinality - v.cardinality) * term
    return total


# -- structural checks ------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One verified property: worst residual against its tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def check_add_structure(table: ComponentTable) -> list[CheckResult]:
    """Zero means, pairwise orthogonality and grid exactness of an ADD table.

    All three are expectations under the discrete Gauss measure, so they
    must hold to roundoff whatever the target function.  Orthogonality
    loops over all component pairs and is skipped above
    ``MAX_ORTHOGONALITY_DIM`` variables to keep the cost quadratic-small.
    Exactness sums all components back onto the full grid with the
    subset-sum (zeta) transform, the inverse of the build's sweep, and
    compares the sum with the stored grid values.
    """
    table._require(ADD)
    N = table.dim
    weights = [r.weights for r in table.problem.rules]
    scale = table.scale
    results = []

    worst = 0.0
    worst_label = ""
    for u in all_subsets_up_to(N, N):
        if u.is_empty:
            continue
        vals = table.grid_values(u)
        for j in u.indices():
            view, _ = _along(vals, u.mask, j)
            r = float(np.max(np.abs(_integrate(view, weights[j]))))
            if r > worst:
                worst, worst_label = r, f"subset {u.label()}, coordinate {j + 1}"
            # only the per-coordinate means matter; full mean is their special case
    tol = TOL_ZERO_MEAN * scale
    results.append(
        CheckResult("add_zero_mean", worst, tol, worst <= tol, worst_label)
    )

    if N <= MAX_ORTHOGONALITY_DIM:
        worst = 0.0
        worst_label = ""
        subsets = [u for u in all_subsets_up_to(N, N) if not u.is_empty]
        for a in range(len(subsets)):
            for b in range(a + 1, len(subsets)):
                u, v = subsets[a], subsets[b]
                r = abs(_pair_inner(table, u, v, weights))
                if r > worst:
                    worst, worst_label = r, f"pair {u.label()} x {v.label()}"
        tol = TOL_ORTHOGONALITY * scale**2
        results.append(
            CheckResult("add_orthogonality", worst, tol, worst <= tol, worst_label)
        )

    Y = table._full_values
    recon = _subset_sum(table, (1 << N) - 1, N)
    denom = max(1.0, float(np.max(np.abs(Y))))
    np.subtract(recon, Y, out=recon)
    r = float(np.max(np.abs(recon, out=recon))) / denom
    results.append(
        CheckResult("add_grid_exactness", r, TOL_EXACTNESS, r <= TOL_EXACTNESS, "")
    )
    return results


def check_rdd_structure(
    table: ComponentTable, *, n_points: int = 100, seed: int = 0
) -> list[CheckResult]:
    """Anchor annihilation and full-sum exactness of an RDD table.

    Annihilation: a nonempty component is zero whenever any one of its own
    coordinates sits at the matching anchor coordinate.  Exactness: summing
    all components reproduces the target at arbitrary points.  Both are
    probed at `n_points` random points drawn from the input measure.

    For a deterministic target the annihilation residual is exactly 0 by
    construction: with a coordinate pinned at the anchor, each anchored
    evaluation is bit-equal to its partner without that coordinate, and the
    Möbius recursion cancels them in the same order.  The check therefore
    guards the bookkeeping of the recursion (which strict subsets it
    subtracts), not roundoff; its label names the subset and the pinned
    coordinate of the worst row.
    """
    table._require(RDD)
    if n_points < 1:
        raise ValueError(f"structure checks need at least 1 point, got {n_points}")
    N = table.dim
    rng = np.random.default_rng(seed)
    X = table.problem.measure.sample(rng, n_points)
    scale = table.scale
    results = []

    full = table.truncated(N, X)
    y = table.problem.evaluate(X)
    denom = np.maximum(1.0, np.abs(y))
    r = float(np.max(np.abs(full - y) / denom))
    results.append(
        CheckResult("rdd_full_sum_exactness", r, TOL_EXACTNESS, r <= TOL_EXACTNESS, "")
    )

    # each row draws its subset and pinned coordinate; the rows of one
    # subset then share one component recursion
    Z = X.copy()
    drawn = []
    rows_of: dict[tuple[int, ...], list[int]] = {}
    for row in range(n_points):
        size = int(rng.integers(1, N + 1))
        coords = tuple(sorted(rng.choice(N, size=size, replace=False).tolist()))
        pin = coords[int(rng.integers(size))]
        Z[row, pin] = table.anchor[pin]
        drawn.append((VariableSubset.from_indices(coords, N), pin))
        rows_of.setdefault(coords, []).append(row)
    resid = np.empty(n_points)
    for coords, rows in rows_of.items():
        u = VariableSubset.from_indices(coords, N)
        resid[rows] = np.abs(table.component(u, Z[np.ix_(rows, coords)]))
    worst = 0.0
    worst_label = ""
    for r, (u, pin) in zip(resid, drawn):
        if r > worst:
            worst, worst_label = float(r), f"subset {u.label()}, pinned coordinate {pin + 1}"
    tol = TOL_ANNIHILATION * scale
    results.append(
        CheckResult("rdd_annihilation", worst, tol, worst <= tol, worst_label)
    )
    return results


def check_form_equivalence(
    problem: ProblemSpec, order: int, *, n_pairs: int = 100, seed: int = 0
) -> CheckResult:
    """Truncated component-sum route vs direct collapsed route, pointwise.

    Draws `n_pairs` independent (anchor, point) pairs from the input
    measure, anchor first within each pair, and runs each route once on the
    whole batch with one anchor per row: the Möbius component recursion
    summed up to ``|u| <= order`` (what ``build_rdd(problem,
    c).truncated(order, x)`` computes for each pair) against
    :func:`rdd_direct`.  Relative deviation is measured against
    ``max(1, |direct value|)``.
    """
    if n_pairs < 1:
        raise ValueError(f"form equivalence needs at least 1 pair, got {n_pairs}")
    rng = np.random.default_rng(seed)
    pairs = [
        (problem.measure.sample(rng), problem.measure.sample(rng))
        for _ in range(n_pairs)
    ]
    C = np.array([c for c, _ in pairs])
    X = np.array([x for _, x in pairs])
    direct = rdd_direct(problem, order, C, X)
    summed = np.zeros(n_pairs)
    subsets = all_subsets_up_to(problem.dim, order)
    for rows, parts in _rdd_components(problem, C, X, subsets):
        acc = summed[rows]
        for _, y in parts:
            acc += y
    worst = float(np.max(np.abs(summed - direct) / np.maximum(1.0, np.abs(direct))))
    return CheckResult(
        f"rdd_form_equivalence_S{order}",
        worst,
        TOL_FORM_EQUIVALENCE,
        worst <= TOL_FORM_EQUIVALENCE,
        f"{n_pairs} anchor/point pairs",
    )


# -- helpers ----------------------------------------------------------------


def _as_rows(x, width: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (width,):
            raise ValueError(f"point must have shape ({width},)")
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == width:
        return arr, False
    raise ValueError(f"points must have shape ({width},) or (m, {width})")


def _check_anchor(problem: ProblemSpec, anchor, rows: int | None = None) -> np.ndarray:
    """The anchor as a float array, checked for shape, finiteness and support.

    One point of shape ``(dim,)``; when `rows` is given, one anchor per row
    of shape ``(rows, dim)`` is accepted as well.
    """
    c = np.asarray(anchor, dtype=float)
    N = problem.dim
    if c.shape != (N,) and (rows is None or c.shape != (rows, N)):
        per_row = "" if rows is None else f" or ({rows}, {N}), one row per point"
        raise ValueError(f"anchor must have shape ({N},){per_row}")
    if not np.all(np.isfinite(c)):
        raise ValueError("anchor must be finite")
    if not np.all(problem.measure.contains(c)):
        raise ValueError("anchor lies outside the measure's support")
    return c


def _running_sums(
    parts: Iterable[tuple[VariableSubset, float | np.ndarray]],
    sums: dict[int, np.ndarray],
    rows: slice,
    m: int,
) -> None:
    """Sum `parts` (``(u, y_u)`` in (cardinality, mask) order, from the
    empty subset up to ``max(sums)``) into ``sums[s][rows]`` for each order
    ``s``: the running sum is copied out at each cardinality boundary."""
    out = np.zeros(m)
    card = 0
    for u, y in parts:
        if u.cardinality > card:
            card = u.cardinality
            if card - 1 in sums:
                sums[card - 1][rows] = out
        out += y
    sums[max(sums)][rows] = out


def _rdd_components(
    problem: ProblemSpec,
    anchor: np.ndarray,
    X: np.ndarray,
    subsets: Iterable[VariableSubset],
    coords: Sequence[int] | None = None,
) -> Iterator[tuple[slice, Iterator[tuple[VariableSubset, np.ndarray]]]]:
    """Yield ``(rows, parts)`` per row block, `parts` yielding ``(u, y_u)``
    for each anchored component at those rows, by Möbius recursion.

    `subsets` must be closed under taking subsets and ordered by
    (cardinality, mask), so every strict subset of ``u`` comes before it:
    ``y_u = y(x_u, c_{-u}) - sum_{v < u} y_v``.  `anchor`, `X`, `coords`
    and the row blocks are as in :func:`_anchored`; a per-row anchor gives
    each row its own decomposition.
    """
    subsets = list(subsets)
    below = [[v.mask for v in strict_subsets(u)] for u in subsets]
    for rows, block in _anchored(problem, anchor, X, subsets, coords):
        yield rows, _mobius(block, below)


def _mobius(
    block: Iterable[tuple[VariableSubset, np.ndarray]], below: list[list[int]]
) -> Iterator[tuple[VariableSubset, np.ndarray]]:
    """Components of one row block: subtract from each anchored value the
    components of the strict subsets `below` it (masks, in order)."""
    comp: dict[int, np.ndarray] = {}
    for (u, acc), masks in zip(block, below, strict=True):
        for v in masks:
            acc = acc - comp[v]
        comp[u.mask] = acc
        yield u, acc


def _anchored(
    problem: ProblemSpec,
    anchor: np.ndarray,
    X: np.ndarray,
    subsets: Iterable[VariableSubset],
    coords: Sequence[int] | None = None,
) -> Iterator[tuple[slice, Iterator[tuple[VariableSubset, np.ndarray]]]]:
    """Yield ``(rows, block)`` per row block of `X`; `block` yields
    ``(u, y(x_u, c_{-u}))`` at those rows for each subset ``u``, in order.

    The one anchored kernel.  `anchor` is a checked ``(dim,)`` point or one
    anchor per row of `X`; column ``k`` of `X` holds coordinate
    ``coords[k]`` (all coordinates in order by default).  A block has at
    most ``_ANCHOR_BLOCK_VALUES // dim`` rows (at least one), so the
    buffers it writes and the target reads stay in cache; the batch as a
    whole is never copied.  Every block sees the same subsets in the same
    order, and each row gets the values a single batch would give it.
    Which columns change between consecutive subsets is worked out once:
    a block restores only the columns that leave and writes only those
    that enter.
    """
    N = problem.dim
    col = {j: k for k, j in enumerate(range(N) if coords is None else coords)}
    steps = []  # (u, columns to restore, (column, column of X) to write)
    free: set[int] = set()
    for u in subsets:
        own = set(u.indices())
        steps.append((u, free - own, [(j, col[j]) for j in own - free]))
        free = own
    per_row = anchor.ndim == 2
    step = max(1, _ANCHOR_BLOCK_VALUES // N)
    for start in range(0, X.shape[0], step):
        rows = slice(start, start + step)
        block_anchor = anchor[rows] if per_row else anchor
        yield rows, _anchored_block(problem, block_anchor, X[rows], steps)


def _anchored_block(
    problem: ProblemSpec,
    anchor: np.ndarray,
    X: np.ndarray,
    steps: list[tuple[VariableSubset, set[int], list[tuple[int, int]]]],
) -> Iterator[tuple[VariableSubset, np.ndarray]]:
    """One row block of :func:`_anchored`.

    The block's points and per-row anchors are copied to Fortran order
    once, so each column written is a contiguous copy.  One Fortran-ordered
    ``(rows, dim)`` buffer starts at the anchor and is rewritten column by
    column as `steps` say; the target sees a read-only view of it.
    """
    X = np.asfortranarray(X)
    C = np.asfortranarray(anchor)
    Z = np.empty((X.shape[0], problem.dim), order="F")
    Z[:] = C
    batch = Z.view()
    batch.flags.writeable = False
    for u, leave, enter in steps:
        for j in leave:
            Z[:, j] = C[..., j]
        for j, k in enter:
            Z[:, j] = X[:, k]
        y = problem.evaluate(batch)
        if np.may_share_memory(y, Z):
            y = y.copy()  # the target returned a view of its input
        yield u, y


def _evaluate_full_grid(problem: ProblemSpec, max_grid_points: int) -> np.ndarray:
    orders = problem.orders
    total = int(np.prod(orders))
    if total > max_grid_points:
        raise ValueError(
            f"tensor grid has {total} points, over the budget {max_grid_points}"
        )
    nodes = [r.nodes for r in problem.rules]
    N = problem.dim
    vals = np.empty(total)
    for start in range(0, total, _EVAL_CHUNK):
        flat = np.arange(start, min(start + _EVAL_CHUNK, total))
        multi = np.unravel_index(flat, orders)
        pts = np.column_stack([nodes[j][multi[j]] for j in range(N)])
        vals[flat] = problem.evaluate(pts)
    return vals.reshape(orders)


def _along(arr: np.ndarray, mask: int, j: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Coordinate `j` of the array of subset `mask`.

    Returns an ``(before, q_j, after)`` view of `arr` and the shape `arr`
    has without that axis.  Subset arrays keep their axes in ascending
    coordinate order, so `j` is axis ``popcount(mask & ((1 << j) - 1))``.
    The reshape is a view only for a C-contiguous `arr`, as every array
    built here is; callers that write through it rely on that.
    """
    k = (mask & ((1 << j) - 1)).bit_count()
    shape = arr.shape
    return arr.reshape(prod(shape[:k]), shape[k], -1), shape[:k] + shape[k + 1 :]


def _expectation(arr, weights: Sequence[np.ndarray]) -> float:
    """Gauss expectation of a subgrid array: axis ``k`` is integrated
    against ``weights[k]``, contracting the last axis first."""
    for k in reversed(range(np.ndim(arr))):
        arr = np.tensordot(arr, weights[k], axes=([k], [0]))
    return float(arr)


def _integrate(view: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Quadrature along the middle axis of an ``(a, q, b)`` view: ``(a, b)``."""
    return np.einsum("aqb,q->ab", view, weights)


def _subset_sum(table: ComponentTable, w: int, j: int) -> np.ndarray:
    """Sum of the components ``y_v``, lifted onto the axes of subset `w`,
    over the subsets ``v`` of `w` that agree with `w` on coordinates >= j.

    ``_subset_sum(table, full, N)`` rebuilds the full grid.  This is the
    subset-sum (zeta) transform ``f(w) += lift_j f(w - {j})`` over the
    coordinates below `j`, restricted to the branch that feeds `w` and
    taken depth first, so each partial sum is freed once it is added in.
    Every mask visited contains ``j - 1``.
    """
    if j == 0:
        return table._components[w] if w else np.asarray(table.y_empty)
    acc = _subset_sum(table, w, j - 1)
    if j == 1:
        acc = acc.copy()  # the table's own array
    low = _subset_sum(table, w & ~(1 << (j - 1)), j - 1)
    view, _ = _along(acc, w, j - 1)
    view += low.reshape(view.shape[0], 1, view.shape[2])
    return acc


def _conditional_mean(
    problem: ProblemSpec,
    coords: tuple[int, ...],
    values: Iterable[float],
) -> float:
    """Quadrature of y over the coordinates not in `coords`, others fixed."""
    N = problem.dim
    rest = [j for j in range(N) if j not in set(coords)]
    orders = problem.orders
    total = int(np.prod([orders[j] for j in rest])) if rest else 1
    if total > DEFAULT_MAX_GRID_POINTS:
        raise ValueError(
            f"conditional-mean grid has {total} points, over the budget "
            f"{DEFAULT_MAX_GRID_POINTS}"
        )
    pts = np.empty((total, N))
    for j, val in zip(coords, values):
        pts[:, j] = val
    wprod = np.ones(total)
    if rest:
        shape = [orders[j] for j in rest]
        flat = np.arange(total)
        multi = np.unravel_index(flat, shape)
        for k, j in enumerate(rest):
            pts[:, j] = problem.rules[j].nodes[multi[k]]
            wprod *= problem.rules[j].weights[multi[k]]
    return float(np.dot(problem.evaluate(pts), wprod))


def _pair_inner(
    table: ComponentTable,
    u: VariableSubset,
    v: VariableSubset,
    weights: list[np.ndarray],
) -> float:
    """E[y_u y_v] under the discrete Gauss measure on the union subgrid."""
    union = sorted(set(u.indices()) | set(v.indices()))
    pos = {j: k for k, j in enumerate(union)}
    orders = table.problem.orders

    def lift(w: VariableSubset) -> np.ndarray:
        own = set(w.indices())
        shape = tuple(orders[j] if j in own else 1 for j in union)
        return np.asarray(table.grid_values(w)).reshape(shape)

    return _expectation(lift(u) * lift(v), [weights[j] for j in union])


def _bary_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights of the node set, normalized to unit max."""
    n = len(nodes)
    w = np.empty(n)
    for i in range(n):
        diff = nodes[i] - np.delete(nodes, i)
        w[i] = 1.0 / np.prod(diff)
    return w / np.max(np.abs(w))


def _cardinal_matrix(nodes: np.ndarray, bw: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Lagrange cardinal values ``L_i(t_r)`` as an (n, m) matrix, one row
    per node, so each row is contiguous over the points."""
    diff = t[None, :] - nodes[:, None]
    tol = 1e-14 * max(1.0, float(np.max(np.abs(nodes))))
    hit = np.abs(diff) < tol
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = bw[:, None] / diff
        L = ratio / np.sum(ratio, axis=0)
    cols = np.nonzero(np.any(hit, axis=0))[0]
    if cols.size:
        L[:, cols] = 0.0
        L[np.argmax(hit[:, cols], axis=0), cols] = 1.0
    return L


class _Interpolant:
    """Off-grid evaluation of subgrid arrays at one block of rows.

    For a subset with ascending coordinates ``u``, let the head be its first
    ``h = ceil(|u|/2)`` coordinates and the tail the rest, and let ``K_v``
    be the row-wise Kronecker (Khatri-Rao) product of the cardinal matrices
    of the coordinates in ``v``, in ascending order.  Barycentric
    interpolation of a subgrid array ``V`` is then bilinear,

    ``y_u(X) = rowsum((K_head(X) @ V.reshape(q^h, -1)) * K_tail(X))``,

    one GEMM per component.  Each factor is built once per block from its
    prefix, ``K_{v+j} = K_v (.) L_j``, and shared by every component whose
    head or tail it is.  Factors are stored transposed, ``(prod q_j, m)``,
    so that building one multiplies contiguous runs of rows.  Column ``k``
    of `X` holds coordinate ``coords[k]``.  A GEMM may round a row
    differently for another number of rows, so callers size row blocks by
    the table or the component alone (``ComponentTable._row_blocks``).
    """

    def __init__(self, table: ComponentTable, X: np.ndarray, coords: Iterable[int]) -> None:
        self._table = table
        self._X = X
        self._col = {j: k for k, j in enumerate(coords)}
        self._factors: dict[tuple[int, ...], np.ndarray] = {}

    def factor(self, coords: tuple[int, ...]) -> np.ndarray:
        """``K_v`` for the ascending coordinates `coords`, transposed."""
        K = self._factors.get(coords)
        if K is None:
            if len(coords) == 1:
                (j,) = coords
                t = self._X[:, self._col[j]]
                K = _cardinal_matrix(self._table.problem.rules[j].nodes, self._table._bary[j], t)
            else:
                A = self.factor(coords[:-1])
                L = self.factor(coords[-1:])
                K = (A[:, None, :] * L[None, :, :]).reshape(-1, A.shape[1])
            self._factors[coords] = K
        return K

    def __call__(self, vals: np.ndarray, coords: tuple[int, ...]) -> np.ndarray:
        """Interpolate `vals`, an array over the subgrid of `coords`."""
        h = (len(coords) + 1) // 2
        head = self.factor(coords[:h])
        if h == len(coords):
            return vals @ head
        out = vals.reshape(len(head), -1).T @ head
        return np.einsum("tm,tm->m", out, self.factor(coords[h:]))
