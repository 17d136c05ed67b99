"""Dimensional decompositions of multivariate functions.

A function ``y`` of ``N`` independent inputs splits into ``2**N`` component
functions, one per subset ``u`` of the variables, ``y(x) = sum_u y_u(x_u)``.
Two constructions, one table type each, follow the operator form ``y_u =
prod_{j in u} (I - P_j) prod_{j not in u} P_j y`` with different ``P_j``:

* **ADD** (:func:`build_add`, a :class:`ComponentTable`) integrates
  coordinate ``j`` out against the input product measure.  Every nonempty
  component has zero mean in each of its own coordinates and distinct
  components are orthogonal, so variances add across subsets.  All
  components live in one array with, per axis, the Gauss nodes plus one
  slot for "integrated out", so the build, the variances and the structure
  checks are ``N`` axis passes each.  The table answers on its own grid:
  under the Gauss grid measure (the nodes with their product weights) its
  values are the target's exact ADD; it holds no values off the nodes.
* **RDD** (:func:`build_rdd`, an :class:`AnchoredTable`) fixes coordinate
  ``j`` at an anchor point ``c``.  Components cost only function calls —
  no grids — and every nonempty component vanishes as soon as one of its
  own coordinates equals the matching anchor coordinate.  One kernel
  makes every anchored evaluation, streaming cache-sized row blocks: per
  block, the target sees one column-major buffer in which only the
  columns that change between consecutive subsets are rewritten, and one
  ``I - P_j`` pass per axis turns the values into components.

Truncating either expansion to ``|u| <= S`` gives an S-variate surrogate.
For the anchored expansion the truncated sum collapses telescopically into
a binomially weighted sum of anchored evaluations, which
:func:`rdd_direct` evaluates without materializing any components, and
:func:`rdd_direct_sums` at several orders from one pass; the two routes
agree pointwise and the test-suite holds them to that.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from math import comb, prod
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from dimdecomp.measures import (
    ProductMeasure,
    QuadratureRule,
    _check_quad_orders,
    product_rules,
)
from dimdecomp.subsets import (
    VariableSubset,
    _check_orders,
    all_subsets_up_to,
    strict_subsets,
    subsets_of_cardinality,
)

#: points of one full tensor grid (build_add) or conditional-mean grid:
#: 32 MiB of float64 target values
DEFAULT_MAX_GRID_POINTS = 4_000_000
#: an ADD table stores prod(q_j + 1) values; this caps it at 128 MiB of float64
MAX_TABLE_VALUES = 1 << 24
# rows per call of the target, on every path (see _block_rows).  The value
# budget holds a block's (rows, dim) float64 points to 512 KiB, so the
# columns the kernels write and the target reads stay near cache; the row
# floor holds while it costs at most _BLOCK_FLOOR_COST times the budget
# (dim <= 39), because the target's cost per value steps down between
# 4 096 and 4 200 rows (product_linear and sobol_g).  bench/anchor_blocks.py
# swept fixed block sizes of the anchored kernel (BENCH_30.json; 2 cores,
# one BLAS thread): 5 000 rows ran 29-63% faster than the budget's 3 276 at
# N = 20 and 20-28% faster than its 2 048 at N = 32; at N = 50 and 100 no
# size from 655 to 16 384 rows stood out of the spread of repeats, so the
# budget keeps them small.  bench/grid_blocks.py swept the grid path the
# same way (BENCH_33.json)
_BLOCK_VALUES = 1 << 16
_BLOCK_ROWS = 5_000
_BLOCK_FLOOR_COST = 3

# Structural tolerances: residuals scale with max(1, |y_empty|) (or its
# square for second-moment checks).
TOL_ZERO_MEAN = 1e-10
TOL_ORTHOGONALITY = 1e-10
TOL_EXACTNESS = 1e-10
TOL_ANNIHILATION = 1e-12
TOL_FORM_EQUIVALENCE = 1e-10
#: add_orthogonality loops over pairs of subsets, O(4**N); it runs up to here
MAX_ORTHOGONALITY_DIM = 5
#: random points at which check_rdd_structure probes an anchored table
RDD_STRUCTURE_POINTS = 100
#: (anchor, point) pairs at which check_form_equivalence compares the routes
FORM_EQUIVALENCE_PAIRS = 100


@dataclass(frozen=True)
class ProblemSpec:
    """A target function paired with its input measure and quadrature order.

    Parameters
    ----------
    function : callable
        Vectorized map from points of shape ``(..., dim)`` to ``(...,)``;
        :meth:`evaluate` rejects any other output shape and any non-finite
        value.
        Batches are column-major and read-only on every path: each
        column ``x[:, j]`` is contiguous, and :meth:`evaluate` passes a
        read-only view.  Each call sees at most one block of rows, by the
        one rule of :func:`_block_rows` (``2**16`` values, raised to 5 000
        rows up to ``dim = 39``), so a row's value must not depend on the
        other rows of its batch.  The tensor grid of :func:`build_add`
        reuses one column-major buffer for all its chunks, the anchored
        kernel one per row block, and sampled points are drawn into one
        column per coordinate.  The function must not write into its
        input (a read-only batch raises ``ValueError``) and must call
        ``np.ascontiguousarray`` itself if it needs C order.
    measure : ProductMeasure
        Independent product measure of the inputs.
    quad_order : int or sequence of int, optional
        Gauss nodes per coordinate (scalar broadcasts), each an integer in
        ``[1, GAUSS_MAX_ORDER]``; numpy integers pass, ``bool``,
        non-integers and orders above the cap raise ``ValueError`` at
        construction. Default 10.
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
        return _check_quad_orders(self.quad_order, self.dim)

    @cached_property
    def rules(self) -> tuple[QuadratureRule, ...]:
        return product_rules(self.measure, self.orders)

    def evaluate(self, x) -> np.ndarray:
        """Evaluate the target as a float array of shape ``x.shape[:-1]``.

        Every grid, anchored and sampled evaluation of the package goes
        through here.  A batch of ``(m, dim)`` points reaches the function
        in the row blocks of :func:`_block_rows`, so no call sees more
        than one block, and the function sees a read-only view of each.
        Raises ``ValueError`` naming both shapes when the function returns
        any other shape (say ``(m, 1)``), which would otherwise broadcast,
        and when any value is not finite.
        """
        x = np.asarray(x, dtype=float)
        m = len(x) if x.ndim == 2 else 1
        step = _block_rows(m, self.dim)
        if step >= m:
            return self._call(x)
        out = np.empty(m)
        for start in range(0, m, step):
            out[start : start + step] = self._call(x[start : start + step])
        return out

    def _call(self, x: np.ndarray) -> np.ndarray:
        """One checked call of the function on the float array `x`."""
        batch = x.view()
        batch.flags.writeable = False
        out = np.asarray(self.function(batch), dtype=float)
        if out.shape != x.shape[:-1]:
            raise ValueError(
                f"function returned shape {out.shape} for points of shape "
                f"{x.shape}; expected {x.shape[:-1]}"
            )
        if not np.isfinite(out).all():
            raise ValueError("function returned non-finite values")
        return out


class ComponentTable:
    """Components of an ADD decomposition, queried by subset.

    Holds component values on tensor subgrids of the Gauss nodes, views of
    one array (see :func:`build_add`); the mean ``y_empty`` is the array's
    all-slot entry.  Every query reads the grid alone and calls no target:
    :meth:`grid_values` gives one component on its subgrid, and
    :meth:`truncated` the S-variate sum on the full grid.  These are the
    target's own ADD under the Gauss grid measure, whatever the target;
    the sampled estimators of :mod:`dimdecomp.mc` need values off the nodes
    and therefore never read the table.

    Build through :func:`build_add`, not directly.
    """

    def __init__(
        self, problem: ProblemSpec, components: np.ndarray, full_values: np.ndarray
    ) -> None:
        self.problem = problem
        self.y_empty = float(components[problem.orders])
        self._array = components
        self._full_values = full_values

    @property
    def dim(self) -> int:
        return self.problem.dim

    @property
    def scale(self) -> float:
        """Magnitude used to normalize structural residuals."""
        return max(1.0, abs(self.y_empty))

    def grid_values(self, u: VariableSubset) -> np.ndarray | float:
        """Component values on the subgrid of `u` (a scalar for ``u = {}``):
        a view of the table array, so writing it writes the table."""
        if u.dim != self.dim:
            raise ValueError(f"subset dimension {u.dim} != table dimension {self.dim}")
        if u.is_empty:
            return self.y_empty
        idx = (slice(n - 1) if u.mask >> j & 1 else n - 1 for j, n in enumerate(self._array.shape))
        return self._array[tuple(idx)]

    def truncated(self, order: int) -> np.ndarray:
        """The S-variate truncated sum on the full tensor grid, an array of
        shape ``problem.orders`` in C order like the grid values.

        ``y_empty`` plus each component with ``|u| <= order``, broadcast
        over the axes it lacks, added in (cardinality, mask) order.  Under
        the Gauss grid measure this is the target's own ADD surrogate, and
        ``order = dim`` gives back the target values to roundoff.
        """
        (order,) = _check_orders((order,), self.dim)
        q = self.problem.orders
        out = np.full(q, self.y_empty)
        for u in all_subsets_up_to(self.dim, order):
            if u.mask:
                own = [n if u.mask >> j & 1 else 1 for j, n in enumerate(q)]
                out += self.grid_values(u).reshape(own)
        return out


@dataclass(frozen=True, eq=False)
class AnchoredTable:
    """Components of an RDD decomposition at the reference point `anchor`.

    Holds a checked, read-only copy of the anchor and ``y_empty =
    y(anchor)``, no other values: each query evaluates the target at
    anchored points, per row block (see :func:`_rdd_components`).  Build
    through :func:`build_rdd`.
    """

    problem: ProblemSpec
    anchor: np.ndarray
    y_empty: float = field(init=False)

    def __post_init__(self) -> None:
        c = _check_anchor(self.problem, self.anchor).copy()
        c.setflags(write=False)
        object.__setattr__(self, "anchor", c)
        object.__setattr__(self, "y_empty", float(self.problem.evaluate(c[None, :])[0]))

    @property
    def dim(self) -> int:
        return self.problem.dim

    @property
    def scale(self) -> float:
        """Magnitude used to normalize structural residuals."""
        return max(1.0, abs(self.y_empty))

    def component(self, u: VariableSubset, x) -> float | np.ndarray:
        """Evaluate one component at points ``x`` of shape ``(|u|,)`` or ``(m, |u|)``.

        Columns of ``x`` follow ``u.indices()`` in ascending order.  Only
        the ``2**|u|`` subsets of `u` are evaluated.
        """
        if u.dim != self.dim:
            raise ValueError(f"subset dimension {u.dim} != table dimension {self.dim}")
        if u.is_empty:
            return self.y_empty
        X, squeeze = _as_rows(x, u.cardinality)
        Z = np.tile(self.anchor, (X.shape[0], 1))
        Z[:, u.indices()] = X
        lattice = list(strict_subsets(u)) + [u]
        out = np.empty(X.shape[0])
        for rows, comps in _rdd_components(self.problem, self.anchor, Z, lattice):
            out[rows] = comps[-1]
        return float(out[0]) if squeeze else out

    def truncated(self, order: int, x) -> float | np.ndarray:
        """Evaluate the S-variate truncated sum at full points ``x``;
        ``order = dim`` sums every component."""
        (order,) = _check_orders((order,), self.dim)
        X, squeeze = _as_rows(x, self.dim)
        out = _rdd_truncated(self.problem, self.anchor, X, order)
        return float(out[0]) if squeeze else out


# -- builders --------------------------------------------------------------


def build_add(problem: ProblemSpec) -> ComponentTable:
    """Build the integration-based decomposition on the tensor Gauss grid.

    Follows the operator form ``y_u = prod_{j in u} (I - P_j)
    prod_{j not in u} P_j y``, where ``P_j`` is Gauss quadrature over
    coordinate ``j``.  The target is evaluated once on the full tensor grid
    (``prod q_j`` evaluations), in chunks of at most one block of rows
    (:func:`_block_rows`) that cover the grid in C order and share one
    column-major point buffer (see :func:`_evaluate_full_grid`).

    All components live in one C-ordered array ``T`` of shape
    ``(q_1 + 1, ..., q_N + 1)``: along axis ``j``, index ``i < q_j`` means
    "``j`` in ``u``, at node ``i``" and the slot ``q_j`` means "integrated
    out".  Component ``u`` is the view taking ``:q_j`` on its own axes and
    the slot on the others; the all-slot entry is the mean.  ``T`` is the
    Kronecker operator ``(x)_j [I - 1 w_j^T; w_j^T]`` applied to the grid:
    in 2N axis passes, last axis first, each axis gets its slot (the Gauss
    sum over its nodes) and then has the slot subtracted from its nodes,
    skipping the still-zero slots of the axes not yet passed.  On a Gauss
    grid zero means, orthogonality and grid exactness hold to roundoff by
    construction.

    Builds whose full tensor grid exceeds ``DEFAULT_MAX_GRID_POINTS``
    points, or whose table would exceed ``MAX_TABLE_VALUES`` values, are
    rejected before the target is evaluated.

    Parameters
    ----------
    problem : ProblemSpec

    Returns
    -------
    ComponentTable
        An ADD table holding all ``2**dim`` components on the Gauss grid.
    """
    q = problem.orders
    table_values = prod(n + 1 for n in q)
    if table_values > MAX_TABLE_VALUES:
        raise ValueError(
            f"ADD table needs {table_values} values, over the budget {MAX_TABLE_VALUES}"
        )
    Y = _evaluate_full_grid(problem)
    T = np.zeros(tuple(n + 1 for n in q))
    nodes = tuple(slice(0, n) for n in q)
    T[nodes] = Y
    for j in reversed(range(len(q))):
        # (q_0, ..., q_{j-1}, q_j + 1, rest): earlier axes have no slots yet
        V = T.reshape(T.shape[: j + 1] + (-1,))[nodes[:j]]
        np.matmul(problem.rules[j].weights, V[..., :-1, :], out=V[..., -1, :])  # P_j
        V[..., :-1, :] -= V[..., -1:, :]  # I - P_j
    return ComponentTable(problem, T, Y)


def build_rdd(problem: ProblemSpec, anchor) -> AnchoredTable:
    """Build the anchored decomposition at reference point `anchor`.

    Nothing is precomputed beyond ``y(anchor)``; components are reproduced
    from anchored evaluations when queried (see :class:`AnchoredTable`).
    """
    return AnchoredTable(problem, anchor)


def rdd_direct(problem: ProblemSpec, order: int, anchor, x) -> float | np.ndarray:
    """Evaluate the S-variate anchored surrogate directly.

    Uses the collapsed form: an alternating binomially weighted sum over
    all anchored evaluations with ``S - k`` free coordinates,

    ``sum_{k=0..S} (-1)**k C(N-S+k-1, k) sum_{|u|=S-k} y(x_u, c_-u)``.

    The ``sum_{k<=S} C(N, k)`` anchored evaluations per point run through
    :func:`_anchored` in the row blocks of :func:`_block_rows`; each
    row gets the value a single batch would give it, so the block size
    never changes a result.  This is the single-order case of
    :func:`rdd_direct_sums`.

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
    return rdd_direct_sums(problem, (order,), anchor, x)[0]


def rdd_direct_sums(
    problem: ProblemSpec, orders: Sequence[int], anchor, x
) -> list[float | np.ndarray]:
    """The anchored surrogates at several orders, one per entry of `orders`.

    One pass of :func:`_anchored` over the ``sum_{k<=S_max} C(N, k)``
    subsets of the largest order, from cardinality ``S_max`` down to 0
    (mask order inside), serves every order.  Each order adds only its own subsets,
    with its own collapsed weights (see :func:`rdd_direct`), in the same
    sequence as a single-order pass, so every result is bit-for-bit what
    :func:`rdd_direct` gives for that order.  Repeated orders share one
    array; `anchor` and `x` are as in :func:`rdd_direct`.
    """
    N = problem.dim
    orders = _check_orders(orders, N - 1)
    X, squeeze = _as_rows(x, N)
    C = _check_anchor(problem, anchor, rows=X.shape[0])
    top = max(orders)
    sums = {S: np.zeros(X.shape[0]) for S in orders}
    # per cardinality s: (order, weight) of every order whose sum holds s
    terms = [
        [(S, (-1) ** (S - s) * comb(N - s - 1, S - s)) for S in sums if S >= s]
        for s in range(top + 1)
    ]
    subsets = chain.from_iterable(subsets_of_cardinality(N, s) for s in range(top, -1, -1))
    # one block-sized array holds each product w * y; a weight of ±1 adds
    # or subtracts y itself, which IEEE arithmetic rounds the same way
    scratch = np.empty(_block_rows(X.shape[0], N))
    for rows, block in _anchored(problem, C, X, subsets):
        accs = [[(sums[S][rows], w) for S, w in t] for t in terms]
        wy = scratch[: rows.stop - rows.start]
        for u, y in block:
            for acc, w in accs[u.cardinality]:
                if w == 1:
                    acc += y
                elif w == -1:
                    acc -= y
                else:
                    acc += np.multiply(w, y, out=wy)
    return [float(sums[S][0]) if squeeze else sums[S] for S in orders]


def explicit_component(problem: ProblemSpec, u: VariableSubset, x_u, *, anchor=None) -> float:
    """Evaluate one component by its alternating-sum form.

    Without an `anchor` this is the ADD component: it sums signed
    conditional means over all ``v ⊆ u`` (each one a fresh quadrature over
    the complementary coordinates).  With one it is the RDD component at
    that anchor: it sums signed anchored evaluations.  Exists as an
    independent route against the tables' axis passes — the two must agree
    to roundoff.
    """
    if u.dim != problem.dim:
        raise ValueError(f"subset dimension {u.dim} != problem dimension {problem.dim}")
    pt = np.asarray(x_u, dtype=float).reshape(-1)
    if pt.shape != (u.cardinality,):
        raise ValueError(f"x_u must have shape ({u.cardinality},)")
    lattice = list(strict_subsets(u)) + [u]
    if anchor is not None:
        c = _check_anchor(problem, anchor)
        z = np.tile(c, (1, 1))
        z[:, u.indices()] = pt
        ((_, block),) = _anchored(problem, c, z, lattice)
        terms = [float(y[0]) for _, y in block]
    else:
        value_at = dict(zip(u.indices(), pt))
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
    """One verified property: worst residual against its tolerance.

    `passed` is derived, ``residual <= tolerance`` (False for a NaN
    residual), so a verdict never contradicts its own numbers.
    """

    name: str
    residual: float
    tolerance: float
    passed: bool = field(init=False)
    detail: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.residual <= self.tolerance))


def check_add_structure(table: ComponentTable) -> list[CheckResult]:
    """Zero means, pairwise orthogonality and grid exactness of an ADD table.

    All three are expectations under the discrete Gauss measure, so they
    must hold to roundoff whatever the target function.  Summing axis
    ``j`` of the table array over its nodes gives the mean along ``j`` of
    every component holding ``j``; the label decodes the worst subset from
    its index.  Orthogonality loops over all component pairs and is skipped
    above ``MAX_ORTHOGONALITY_DIM`` variables to keep the cost
    quadratic-small.  Exactness inverts the build's map (nodes plus slot,
    axis by axis) and compares the sum with the stored grid values.  Both
    sweeps read one leading-axis slab of the table at a time, so no
    temporary is larger than a few slabs.
    """
    N = table.dim
    q = table.problem.orders
    weights = [r.weights for r in table.problem.rules]
    T = table._array
    scale = table.scale
    results = []

    # Gauss sums along axis j over its nodes: axis 0 whole, the others by slab
    parts = chain([(0, 0, T)], ((i, j, T[i : i + 1]) for i in range(len(T)) for j in range(1, N)))
    worst, worst_label = 0.0, ""
    for i, j, part in parts:
        means = _axis_map(weights[j][None, :], part, j)
        k = int(np.abs(means, out=means).argmax())  # a NaN is the argmax
        r = float(means.flat[k])
        if r > worst or np.isnan(r):
            at = list(np.unravel_index(k, means.shape))
            at[0] += i
            u = VariableSubset.from_indices([c for c in range(N) if at[c] < q[c]], N)
            worst, worst_label = r, f"subset {u.label()}, coordinate {j + 1}"
    tol = TOL_ZERO_MEAN * scale
    results.append(CheckResult("add_zero_mean", worst, tol, worst_label))

    if N <= MAX_ORTHOGONALITY_DIM:
        # each component's grid values are sliced once, not once per pair
        grids = [(u, table.grid_values(u)) for u in all_subsets_up_to(N, N) if not u.is_empty]
        pairs = list(combinations(grids, 2))
        worst, worst_label = _worst(
            [abs(_pair_inner(u, U, v, V, q, weights)) for (u, U), (v, V) in pairs],
            lambda k: f"pair {pairs[k][0][0].label()} x {pairs[k][1][0].label()}",
        )
        tol = TOL_ORTHOGONALITY * scale**2
        results.append(CheckResult("add_orthogonality", worst, tol, worst_label))

    Y = table._full_values
    r = 0.0
    for i in range(q[0]):
        # slab i of the grid: nodes + slot on every axis, dropping the slot
        recon = T[i : i + 1] + T[-1:]
        for j in range(1, N):
            V = _around(recon, j)
            shape = recon.shape[:j] + (q[j],) + recon.shape[j + 1 :]
            recon = (V[:, :-1] + V[:, -1:]).reshape(shape)
        np.subtract(recon, Y[i : i + 1], out=recon)
        r = np.maximum(r, np.abs(recon, out=recon).max())  # keeps a NaN
    r = float(r) / max(1.0, float(Y.max()), -float(Y.min()))
    results.append(CheckResult("add_grid_exactness", r, TOL_EXACTNESS))
    return results


def check_rdd_structure(table: AnchoredTable, *, seed: int = 0) -> list[CheckResult]:
    """Anchor annihilation and full-sum exactness of an anchored table.

    Annihilation: a nonempty component is zero whenever any one of its own
    coordinates sits at the matching anchor coordinate.  Exactness: summing
    all components reproduces the target at arbitrary points.  Both are
    probed at ``RDD_STRUCTURE_POINTS`` random points drawn from the input
    measure.

    For a deterministic target the annihilation residual is exactly 0 by
    construction: with a coordinate pinned at the anchor, each anchored
    evaluation is bit-equal to its partner without that coordinate, the
    axis passes before the pinned axis's keep every such pair bit-equal,
    and the pinned axis's pass subtracts bit-equal partners.  The check
    therefore guards the bookkeeping of the axis passes (which partner each
    pass subtracts), not roundoff; its label names the subset and the
    pinned coordinate of the worst row.
    """
    anchor = table.anchor  # a ComponentTable has none: fails before any evaluation
    n_points = RDD_STRUCTURE_POINTS
    N = table.dim
    rng = np.random.default_rng(seed)
    X = table.problem.measure.sample(rng, n_points)
    scale = table.scale
    results = []

    full = table.truncated(N, X)
    y = table.problem.evaluate(X)
    denom = np.maximum(1.0, np.abs(y))
    r = float(np.max(np.abs(full - y) / denom))
    results.append(CheckResult("rdd_full_sum_exactness", r, TOL_EXACTNESS))

    # each row draws its subset and pinned coordinate; the rows of one
    # subset then share one component evaluation
    Z = X.copy()
    drawn = []
    rows_of: dict[tuple[int, ...], list[int]] = {}
    for row in range(n_points):
        size = int(rng.integers(1, N + 1))
        coords = tuple(sorted(rng.choice(N, size=size, replace=False).tolist()))
        pin = coords[int(rng.integers(size))]
        Z[row, pin] = anchor[pin]
        drawn.append((VariableSubset.from_indices(coords, N), pin))
        rows_of.setdefault(coords, []).append(row)
    resid = np.empty(n_points)
    for coords, rows in rows_of.items():
        u = VariableSubset.from_indices(coords, N)
        resid[rows] = np.abs(table.component(u, Z[np.ix_(rows, coords)]))
    worst, worst_label = _worst(
        resid, lambda k: f"subset {drawn[k][0].label()}, pinned coordinate {drawn[k][1] + 1}"
    )
    tol = TOL_ANNIHILATION * scale
    results.append(CheckResult("rdd_annihilation", worst, tol, worst_label))
    return results


def check_form_equivalence(problem: ProblemSpec, order: int, *, seed: int = 0) -> CheckResult:
    """Truncated component-sum route vs direct collapsed route, pointwise.

    Draws ``FORM_EQUIVALENCE_PAIRS`` independent (anchor, point) pairs from
    the input measure, anchor first within each pair, and runs each route
    once on the whole batch with one anchor per row: the components up to
    ``|u| <= order`` summed by the helper behind
    :meth:`AnchoredTable.truncated` (so each row gets what
    ``build_rdd(problem, c).truncated(order, x)`` gives for its pair)
    against :func:`rdd_direct`.  Relative deviation is measured against
    ``max(1, |direct value|)``.
    """
    n_pairs = FORM_EQUIVALENCE_PAIRS
    rng = np.random.default_rng(seed)
    pairs = [
        (problem.measure.sample(rng), problem.measure.sample(rng))
        for _ in range(n_pairs)
    ]
    C = np.array([c for c, _ in pairs])
    X = np.array([x for _, x in pairs])
    direct = rdd_direct(problem, order, C, X)
    summed = _rdd_truncated(problem, C, X, order)
    worst = float(np.max(np.abs(summed - direct) / np.maximum(1.0, np.abs(direct))))
    return CheckResult(
        f"rdd_form_equivalence_S{order}",
        worst,
        TOL_FORM_EQUIVALENCE,
        f"{n_pairs} anchor/point pairs",
    )


# -- helpers ----------------------------------------------------------------


def _worst(residuals, label: Callable[[int], str]) -> tuple[float, str]:
    """The largest of the nonnegative `residuals`, a NaN counting as the
    largest, and ``label(k)`` of its first holder ``k``, formatted for the
    winner only; ``(0.0, "")`` when none is above zero."""
    r = np.asarray(residuals, dtype=float)
    k = int(np.argmax(r)) if r.size else 0  # a NaN is the argmax
    return (float(r[k]), label(k)) if r.size and r[k] != 0.0 else (0.0, "")


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


def _rdd_truncated(
    problem: ProblemSpec, anchor: np.ndarray, X: np.ndarray, order: int
) -> np.ndarray:
    """Sum of the anchored components with ``|u| <= order`` at the rows of
    `X`, in (cardinality, mask) order; `anchor` is one point or one per row."""
    out = np.zeros(X.shape[0])
    subsets = all_subsets_up_to(problem.dim, order)
    for rows, comps in _rdd_components(problem, anchor, X, subsets):
        acc = out[rows]
        for y in comps:
            acc += y
    return out


def _rdd_components(
    problem: ProblemSpec,
    anchor: np.ndarray,
    X: np.ndarray,
    subsets: Iterable[VariableSubset],
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield ``(rows, comps)`` per row block, row ``k`` of `comps` the
    anchored component of ``subsets[k]`` at those rows.

    The block's anchored values ``y(x_u, c_{-u})`` are copied into `comps`;
    then pass ``j`` applies ``I - P_j``, ``y_u <- y_u - y_{u - {j}}`` for
    every ``u`` holding ``j``, ``sum_u |u|`` subtractions in all.
    `subsets` must be closed under taking subsets; `anchor`, `X` and the
    row blocks are as in :func:`_anchored`, and a per-row anchor
    gives each row its own decomposition.
    """
    subsets = list(subsets)
    passes = _axis_passes(subsets, problem.dim)
    for rows, block in _anchored(problem, anchor, X, subsets):
        comps = np.empty((len(subsets), len(X[rows])))
        for k, (_, y) in enumerate(block):
            comps[k] = y
        for hold, drop in passes:
            comps[hold] -= comps[drop]
        yield rows, comps


def _axis_passes(
    subsets: list[VariableSubset], dim: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis ``j`` that some subset holds, ``(hold, drop)``: the
    positions in `subsets` of every ``u`` holding ``j`` and of its partner
    ``u - {j}``, which never holds ``j``: a pass reads no entry it writes."""
    at = {u.mask: k for k, u in enumerate(subsets)}
    pairs = [
        [(k, at[u.mask ^ 1 << j]) for k, u in enumerate(subsets) if u.mask >> j & 1]
        for j in range(dim)
    ]
    return [tuple(np.array(p).T) for p in pairs if p]


def _anchored(
    problem: ProblemSpec,
    anchor: np.ndarray,
    X: np.ndarray,
    subsets: Iterable[VariableSubset],
) -> Iterator[tuple[slice, Iterator[tuple[VariableSubset, np.ndarray]]]]:
    """Yield ``(rows, block)`` per row block of `X`; `block` yields
    ``(u, y(x_u, c_{-u}))`` at those rows for each subset ``u``, in order.

    The one anchored kernel.  `X` holds full ``(m, dim)`` points, and
    `anchor` is a checked ``(dim,)`` point or one anchor per row of `X`.
    Blocks have the rows :func:`_block_rows` gives, so the buffers
    they write and the target reads stay near cache while each target call
    sees enough rows; the batch as a whole is never copied.  Every block
    sees the same subsets in the same order, and each row gets the values
    a single batch would give it.  Which columns change between
    consecutive subsets is worked out once: a block restores only the
    columns that leave and writes only those that enter.
    """
    N = problem.dim
    steps = []  # (u, columns to restore, columns to write)
    free: set[int] = set()
    for u in subsets:
        own = set(u.indices())
        steps.append((u, free - own, own - free))
        free = own
    per_row = anchor.ndim == 2
    m = X.shape[0]
    step = _block_rows(m, N)
    for start in range(0, m, step):
        rows = slice(start, min(start + step, m))
        block_anchor = anchor[rows] if per_row else anchor
        yield rows, _anchored_block(problem, block_anchor, X[rows], steps)


def _block_rows(m: int, dim: int) -> int:
    """Rows per target call for a batch of `m` points of `dim` coordinates:
    the package's one rule, which :meth:`ProblemSpec.evaluate` enforces and
    the grid path and the anchored kernel size their buffers by.

    The cap is ``_BLOCK_VALUES // dim`` rows, raised to ``_BLOCK_ROWS``
    wherever that costs at most ``_BLOCK_FLOOR_COST`` times the value
    budget (``dim <= 39``), and at least one.  The batch splits into
    ``ceil(m / cap)`` blocks of ``ceil(m / blocks)`` rows, so no call gets
    a short ragged tail: only the last block is shorter, by fewer rows than
    there are blocks.
    """
    cap = _BLOCK_VALUES // dim
    if _BLOCK_ROWS * dim <= _BLOCK_FLOOR_COST * _BLOCK_VALUES:
        cap = max(cap, _BLOCK_ROWS)
    blocks = max(1, -(-m // max(cap, 1)))
    return max(1, -(-m // blocks))


def _anchored_block(
    problem: ProblemSpec,
    anchor: np.ndarray,
    X: np.ndarray,
    steps: list[tuple[VariableSubset, set[int], set[int]]],
) -> Iterator[tuple[VariableSubset, np.ndarray]]:
    """One row block of :func:`_anchored`.

    Each column written is a contiguous copy: the block's points and
    per-row anchors are read in place when their columns are contiguous
    already (a block of a column-major batch, such as sampled points), and
    copied to Fortran order once otherwise.  One Fortran-ordered ``(rows,
    dim)`` buffer starts at the anchor and is rewritten column by column as
    `steps` say, through column views taken once per block; the target
    sees a read-only view of it.
    """
    X, C = (A if A.strides[0] == A.itemsize else np.asfortranarray(A) for A in (X, anchor))
    Z = np.empty((X.shape[0], problem.dim), order="F")
    Z[:] = C
    z, x, c = ([A[..., j] for j in range(problem.dim)] for A in (Z, X, C))
    for u, leave, enter in steps:
        for j in leave:
            np.copyto(z[j], c[j])
        for j in enter:
            np.copyto(z[j], x[j])
        y = problem.evaluate(Z)
        if np.may_share_memory(y, Z):
            y = y.copy()  # the target returned a view of its input
        yield u, y


def _evaluate_full_grid(
    problem: ProblemSpec, fixed: dict[int, float] | None = None
) -> np.ndarray:
    """Target values on the full tensor Gauss grid, of shape ``orders``;
    each coordinate ``j`` in `fixed` is held at ``fixed[j]`` instead, an
    axis of length 1.

    Equal chunks of at most one block of rows (:func:`_block_rows` of the
    grid's points) cover the grid in C order.  The trailing block, the
    longest run of last axes with at most one block of points, lies whole
    in every chunk, and the chunks split the index tuples of the leading
    axes evenly.  One column-major ``(rows, dim)`` buffer serves every
    chunk: its trailing columns are written once, and each chunk rewrites
    only the leading ones, so the target reads contiguous columns.
    """
    fixed = fixed or {}
    nodes = [
        np.array([fixed[j]]) if j in fixed else rule.nodes
        for j, rule in enumerate(problem.rules)
    ]
    orders = tuple(len(n) for n in nodes)
    total = prod(orders)
    if total > DEFAULT_MAX_GRID_POINTS:
        raise ValueError(
            f"tensor grid has {total} points, over the budget {DEFAULT_MAX_GRID_POINTS}"
        )
    N = problem.dim
    cap = _block_rows(total, N)
    t, T = N, 1  # the trailing block: axes t.. with T points
    while t and T * orders[t - 1] <= cap:
        t -= 1
        T *= orders[t]
    n_lead = total // T
    chunks = -(-n_lead // (cap // T))
    step = -(-n_lead // chunks)  # leading index tuples per chunk
    # allocated before the point buffer: the other order raised the peak
    # RSS of add_grid runs by about 0.8 MiB through heap layout alone
    vals = np.empty(total)
    Z = np.empty((step * T, N), order="F")
    # a column is written through a contiguous reshaped view of itself, so
    # its node values broadcast into place without column-sized temporaries:
    # in C order, trailing axis k repeats each node prod(orders[k+1:]) times
    for k in range(t, N):
        Z[:, k].reshape(-1, orders[k], prod(orders[k + 1 :]))[...] = nodes[k][:, None]
    for start in range(0, n_lead, step):
        n = min(step, n_lead - start)
        if t:
            lead = np.unravel_index(np.arange(start, start + n), orders[:t])
            for k, i in enumerate(lead):
                Z[: n * T, k].reshape(n, T)[...] = nodes[k][i][:, None]
        vals[start * T : (start + n) * T] = problem.evaluate(Z[: n * T])
    return vals.reshape(orders)


def _around(arr: np.ndarray, k: int) -> np.ndarray:
    """``(before, n_k, after)`` view of the C-contiguous `arr` around axis
    `k`; callers that write through it rely on the view."""
    shape = arr.shape
    return arr.reshape(prod(shape[:k]), shape[k], -1)


def _axis_map(matrix: np.ndarray, arr: np.ndarray, k: int) -> np.ndarray:
    """`matrix` applied to the first ``matrix.shape[1]`` entries of axis `k`
    of the C-contiguous `arr` (one matmul); axis `k` gets ``len(matrix)``."""
    out = np.matmul(matrix, _around(arr, k)[:, : matrix.shape[1]])
    return out.reshape(arr.shape[:k] + (len(matrix),) + arr.shape[k + 1 :])


def _expectation(arr, weights: Sequence[np.ndarray]) -> float:
    """Gauss expectation of a subgrid array: axis ``k`` is integrated
    against ``weights[k]``, contracting the last axis first, one
    matrix-vector product per axis."""
    for k in reversed(range(np.ndim(arr))):
        arr = np.dot(arr.reshape(-1, arr.shape[-1]), weights[k]).reshape(arr.shape[:-1])
    return float(arr)


def _conditional_mean(
    problem: ProblemSpec,
    coords: tuple[int, ...],
    values: Iterable[float],
) -> float:
    """Quadrature of y over the coordinates not in `coords`, others fixed,
    on a grid of its own (not the table's) evaluated by
    :func:`_evaluate_full_grid` and integrated by :func:`_expectation`."""
    rest = [j for j in range(problem.dim) if j not in set(coords)]
    vals = _evaluate_full_grid(problem, dict(zip(coords, values)))
    shape = [problem.orders[j] for j in rest]
    return _expectation(vals.reshape(shape), [problem.rules[j].weights for j in rest])


def _pair_inner(
    u: VariableSubset,
    U: np.ndarray,
    v: VariableSubset,
    V: np.ndarray,
    orders: tuple[int, ...],
    weights: list[np.ndarray],
) -> float:
    """E[y_u y_v] under the discrete Gauss measure on the union subgrid,
    from the grid values `U` of `u` and `V` of `v`."""
    union = sorted(set(u.indices()) | set(v.indices()))

    def lift(w: VariableSubset, W: np.ndarray) -> np.ndarray:
        own = set(w.indices())
        return W.reshape(tuple(orders[j] if j in own else 1 for j in union))

    return _expectation(lift(u, U) * lift(v, V), [weights[j] for j in union])
