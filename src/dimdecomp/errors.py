"""Truncation-error calculus for both decompositions.

For a truncation order ``S`` the integration-based surrogate leaves the
mean-square error ``e_add(S) = sum_{s > S} V_s``, where ``V_s`` is the total
component variance at cardinality ``s`` — simply the variance the surrogate
cannot represent.  The anchored surrogate carries the same missing variance
*amplified*: averaging its error over anchors drawn from the input measure
gives ``sum_{s > S} (1 + b_S(s)) V_s`` with a combinatorial amplification
factor

    ``b_S(s) = sum_{k=0..S} C(s - S + k - 1, k)**2 * C(s, S - k)``,

computed in exact integer arithmetic here.  The factor grows with ``s``, so
the expected anchored error is pinched between ``(1 + b_S(S+1)) * e_add(S)``
and ``(1 + b_S(N)) * e_add(S)``; the lower coefficient is ``2**(S+1)``.

Everything in this module is exact arithmetic on variance totals — no
grids, no sampling — so it scales to thousands of variables when fed
per-cardinality sums instead of per-subset maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, fsum
from typing import Iterator, Mapping, Protocol, runtime_checkable

from dimdecomp.measures import _check_integer, _check_real
from dimdecomp.subsets import _check_orders


@runtime_checkable
class VarianceLike(Protocol):
    """Anything exposing a dimension and per-cardinality variance sums."""

    dim: int

    def cardinality_sums(self) -> dict[int, float]: ...


@dataclass(frozen=True)
class CardinalitySums:
    """Per-cardinality variance totals ``s -> V_s``; absent keys mean zero.

    The sparse twin of a full variance map: enough for every error formula
    here, and usable at dimensions where subsets cannot be enumerated.
    """

    dim: int
    sums: Mapping[int, float]

    def __post_init__(self) -> None:
        if _check_integer(self.dim, "dimension") < 1:
            raise ValueError("dimension must be at least 1")
        clean = {}
        for s, v in self.sums.items():
            s = int(s)
            if not 1 <= s <= self.dim:
                raise ValueError(f"cardinality {s} outside [1, {self.dim}]")
            v = float(v)
            if not 0.0 <= v < math.inf:  # NaN fails too
                raise ValueError("variance sums must be finite and nonnegative")
            clean[s] = v
        object.__setattr__(self, "sums", dict(sorted(clean.items())))

    def cardinality_sums(self) -> dict[int, float]:
        return dict(self.sums)


@dataclass(frozen=True)
class ErrorBudget:
    """Error of one truncation order, itemized by missing cardinality.

    Attributes
    ----------
    order : int
        Truncation order S.
    e_add : float
        Mean-square error of the integration-based surrogate.
    e_rdd_expected : float
        Anchored-surrogate error averaged over anchors from the measure.
    lower, upper : float
        ``2**(S+1) * e_add`` and ``(1 + b_S(N)) * e_add`` — the exact pinch
        on `e_rdd_expected`.
    per_cardinality : dict
        ``s -> (V_s, 1 + b_S(s))`` for each missing cardinality
        ``s = S+1 .. N`` (coefficients are exact integers).
    """

    order: int
    e_add: float
    e_rdd_expected: float
    lower: float
    upper: float
    per_cardinality: dict[int, tuple[float, int]]


def coeff_b(order: int, s: int) -> int:
    """Amplification factor ``b_S(s)`` as an exact integer.

    For ``s <= S`` the sum telescopes to 1; past the truncation order it
    grows polynomially in ``s`` with degree ``2 S``.  A negative upper
    argument ``r = s - S + k - 1`` (only for ``s <= S``) is reflected to
    ``k - r - 1 = S - s``; the sign drops out of the square.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if s < 0:
        raise ValueError("cardinality must be nonnegative")
    total = 0
    for k in range(order + 1):
        r = s - order + k - 1
        c = comb(r, k) if r >= 0 else comb(order - s, k)
        total += c * c * comb(s, order - k)
    return total


def _variance_sums(v: VarianceLike) -> tuple[int, dict[int, float]]:
    if not isinstance(v, VarianceLike):
        raise TypeError("expected an object with dim and cardinality_sums()")
    return int(v.dim), v.cardinality_sums()


def add_error(order: int, v: VarianceLike) -> float:
    """Mean-square truncation error of the integration-based surrogate:
    the variance sitting above the truncation order, ``sum_{s > S} V_s``."""
    dim, sums = _variance_sums(v)
    (order,) = _check_orders((order,), dim - 1)
    return fsum(val for s, val in sums.items() if s > order)


def rdd_expected_error(order: int, v: VarianceLike) -> ErrorBudget:
    """Expected anchored-surrogate error and its exact pinch.

    The expectation is over anchors drawn from the input measure; each
    missing cardinality contributes ``(1 + b_S(s)) * V_s``.  At ``S = 0``
    the coefficients are all 2, so the budget is exactly twice the missing
    variance whatever the variance profile.
    """
    dim, sums = _variance_sums(v)
    (order,) = _check_orders((order,), dim - 1)
    per = {}
    for s in range(order + 1, dim + 1):
        per[s] = (sums.get(s, 0.0), 1 + coeff_b(order, s))
    e_add = fsum(vs for vs, _ in per.values())
    e_rdd = fsum(vs * coeff for vs, coeff in per.values())
    return ErrorBudget(
        order=order,
        e_add=e_add,
        e_rdd_expected=e_rdd,
        lower=per[order + 1][1] * e_add,  # the pinch of error_bounds
        upper=per[dim][1] * e_add,
        per_cardinality=per,
    )


def error_bounds(order: int, dim: int) -> tuple[int, int]:
    """Exact integer coefficients pinching the expected anchored error:
    ``(1 + b_S(S+1), 1 + b_S(N))``.  The lower one equals ``2**(S+1)``."""
    (order,) = _check_orders((order,), dim - 1)
    return 1 + coeff_b(order, order + 1), 1 + coeff_b(order, dim)


# -- geometric decay model ----------------------------------------------------


@dataclass(frozen=True)
class DecayModel:
    """Variance profile ``V_s = C(N, s) * p**-s`` (equality case of a
    per-subset geometric bound ``sigma2_u <= C p**-|u|``, taken at
    ``C = 1``: the constant cancels from every normalized error)."""

    dim: int
    rate: float

    def __post_init__(self) -> None:
        if _check_integer(self.dim, "dimension") < 1:
            raise ValueError("dimension must be at least 1")
        if not _check_real(self.rate, "decay rate") > 1.0:
            raise ValueError("decay rate must exceed 1")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "rate", float(self.rate))

    @property
    def total_variance(self) -> float:
        """``(1 + 1/p)**N - 1``, computed in the log domain."""
        return math.expm1(self.dim * math.log1p(1.0 / self.rate))


@dataclass(frozen=True)
class DecayPoint:
    """One truncation order of a decay-model error sweep; `e_rdd` is
    ``inf`` where the anchored budget passes the float range while its
    normalized share does not (see :func:`decay_curves`)."""

    order: int
    e_add: float
    e_rdd: float
    sigma2_total: float
    e_add_normalized: float
    e_rdd_normalized: float


def _decay_term(coeff: int, dim: int, s: int, rate: float, binom=None, power=None) -> float:
    """``coeff * C(dim, s) * rate**-s`` without overflow.  A sweep passes
    ``binom = C(dim, s)`` and ``power = rate**s`` from rows it builds once;
    left ``None``, each is computed here (so an overflowing power raises)."""
    big = coeff * (comb(dim, s) if binom is None else binom)
    try:
        return float(big) / (rate**s if power is None else power)
    except OverflowError:
        return math.exp(math.log(big) - s * math.log(rate))


def _amplification_rows(dim: int) -> Iterator[list[int]]:
    """Yield ``[1 + b_S(s) for s = S+1 .. dim]`` for ``S = 0 .. dim - 1``,
    as exact integers.

    Row 0 is all 2s; row ``S + 1`` starts at ``2**(S+2)`` and follows from
    row ``S`` by a three-term recurrence in ``B = 1 + b`` (proved by a
    creative-telescoping certificate in the README): for ``m = s - S >= 1``,
    ``m B_{S+1}(s+2) = (s+S+2) B_{S+1}(s+1) - 2(s+1) B_S(s) + 2m B_S(s+1)``.
    Four products and one exact division per entry, two rows alive at once;
    a nonzero remainder raises ``ArithmeticError``.
    """
    row = [2] * dim
    yield row
    for S in range(dim - 1):
        nxt = [2 ** (S + 2)]
        for m in range(1, dim - 1 - S):  # B_{S+1}(s+2) at s = S + m
            t = (2 * S + m + 2) * nxt[-1] - 2 * (S + m + 1) * row[m - 1] + 2 * m * row[m]
            q, r = divmod(t, m)
            if r:  # pragma: no cover - the recurrence is an identity
                raise ArithmeticError(f"recurrence inexact at S={S + 1}, s={S + m + 2}")
            nxt.append(q)
        yield (row := nxt)


def decay_curves(model: DecayModel) -> list[DecayPoint]:
    """Error-vs-order sweep ``S = 0 .. N-1`` under the decay model.

    The integration-based error only sheds variance as S grows, so it is
    strictly decreasing.  The anchored budget multiplies each shed term by
    its amplification factor and can *rise* with S when the decay is slow —
    the crossover this table is built to expose.  The factors come from one
    exact table per call (:func:`_amplification_rows`, O(N²) integer
    steps); ``C(N, s)`` and ``rate**s`` are built once per ``s`` and the
    unamplified terms once per sweep, so every float equals the one a
    term-by-term :func:`coeff_b` sweep gives.

    Where an anchored budget passes the float range (slow decay at large
    N, say N = 500 at rate 1.5), its ``e_rdd`` is ``inf`` and its share of
    the total variance is summed from log-domain terms (relative error
    about ``|log term| * 2**-52``); a sweep whose shares or total variance
    pass the float range too raises ``ValueError``.
    """
    N, rate = model.dim, model.rate
    binoms = [comb(N, s) for s in range(N + 1)]
    powers = []
    for s in range(N + 1):  # None where rate**s overflows: _decay_term takes logs
        try:
            powers.append(rate**s)
        except OverflowError:
            powers.append(None)
    out = []
    try:
        shed = [_decay_term(1, N, s, rate, binoms[s], powers[s]) for s in range(N + 1)]
        total = model.total_variance
        for order, coeffs in enumerate(_amplification_rows(N)):
            e_add = fsum(shed[order + 1 :])
            terms = list(enumerate(coeffs, order + 1))
            try:
                e_rdd = fsum(_decay_term(c, N, s, rate, binoms[s], powers[s]) for s, c in terms)
                e_rdd_normalized = e_rdd / total
            except OverflowError:
                e_rdd = math.inf
                log_total = math.log(total)
                e_rdd_normalized = fsum(
                    math.exp(math.log(c * binoms[s]) - s * math.log(rate) - log_total)
                    for s, c in terms
                )
            out.append(
                DecayPoint(
                    order=order,
                    e_add=e_add,
                    e_rdd=e_rdd,
                    sigma2_total=total,
                    e_add_normalized=e_add / total,
                    e_rdd_normalized=e_rdd_normalized,
                )
            )
    except OverflowError:
        raise ValueError(
            f"the decay sweep at dimension {N}, rate {rate!r} passes the float range"
        ) from None
    return out


def lambert_w0(x: float) -> float:
    """Principal branch of ``w e**w = x`` for ``x >= -1/e``.

    Halley iteration from a branch-point-aware start; the result satisfies
    ``|w e**w - x| <= 1e-12 * max(1, |x|)``.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    if x < -1.0 / math.e:
        raise ValueError(f"argument {x} below the branch point -1/e")
    if x == 0.0:
        return 0.0
    # start: series near the branch point, log asymptote for large x
    if x < -0.25:
        p = math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
        w = -1.0 + p - p * p / 3.0
    elif x < 1.0:
        w = x * (1.0 - x + 1.5 * x * x)
    else:
        w = math.log(x)
        if w > 1.0:
            w -= math.log(w) * (1.0 - math.log(w) / (1.0 + w))
    tol = 1e-12 * max(1.0, abs(x))
    for _ in range(100):
        e = math.exp(w)
        f = w * e - x
        if abs(f) <= tol:
            return w
        d1 = e * (w + 1.0)
        step = f / (d1 - f * (w + 2.0) / (2.0 * (w + 1.0)))
        w -= step
    raise ArithmeticError(f"no convergence for argument {x}")  # pragma: no cover


def dim_for_pmin(rate: float) -> float:
    """Dimension at which a given decay rate sits exactly on the threshold
    where the first-order anchored budget stops improving on the zeroth:
    ``N = 1 + W(2 (1 + p) ln(1 + 1/p)) / ln(1 + 1/p)``."""
    if not rate > 1.0:
        raise ValueError("decay rate must exceed 1")
    t = math.log1p(1.0 / rate)
    return 1.0 + lambert_w0(2.0 * (1.0 + rate) * t) / t


#: decay rates searched by :func:`pmin_for_N`: just above 1 (no decay) up to 1e6
PMIN_BRACKET = (1.0 + 1e-9, 1.0e6)


def _pmin_residual(rate: float, dim: int) -> float:
    """Threshold condition ``2/p = (N-1) (1 + 1/p)**N / (1 + p)**2`` as a
    signed residual (positive when the anchored budget still inverts)."""
    return (dim - 1) * math.exp(dim * math.log1p(1.0 / rate)) / (1.0 + rate) ** 2 - 2.0 / rate


def pmin_for_N(dim: int) -> float:
    """Slowest decay rate at which moving from ``S = 0`` to ``S = 1`` still
    helps the anchored surrogate, for a given dimension.

    Below the returned rate, the expected first-order anchored error
    *exceeds* the zeroth-order one even though more variance is captured.
    Solved by bisection on the threshold condition and cross-checked
    against the closed-form inversion :func:`dim_for_pmin`; the two must
    agree to 1e-6 relative.

    Raises
    ------
    ValueError
        If no root lies in ``PMIN_BRACKET`` (at ``dim = 2`` the inversion never
        happens, so there is no threshold to find).
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    lo, hi = PMIN_BRACKET
    flo, fhi = _pmin_residual(lo, dim), _pmin_residual(hi, dim)
    if flo == 0.0:
        root = lo
    elif fhi == 0.0:
        root = hi
    elif flo * fhi > 0.0:
        raise ValueError(
            f"no threshold rate bracketed in ({lo:g}, {hi:g}) for dimension {dim}"
        )
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = _pmin_residual(mid, dim)
            if fmid == 0.0:
                break
            if (fmid > 0.0) == (flo > 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
            if hi - lo <= 1e-14 * max(1.0, abs(lo)):
                break
        root = 0.5 * (lo + hi)
    check = dim_for_pmin(root)
    if abs(check - dim) > 1e-6 * dim:
        raise ArithmeticError(
            f"threshold routes disagree: bisection {root:.12g} inverts to {check:.9g}"
        )  # pragma: no cover
    return root


# -- the two-scale stress case -------------------------------------------------


@dataclass(frozen=True)
class TwoScaleReport:
    """Error budgets for a variance profile concentrated at the extremes.

    With 99.9% of the variance univariate and the remaining 0.1% in the
    single full-dimension interaction, the integration-based error is tiny
    and flat while the anchored budget explodes — and *grows* when the
    truncation order is raised from 1 to 2.  All values are in units of the
    total variance.
    """

    dim: int
    univariate_share: float
    top_share: float
    e_add_order1: float
    e_add_order2: float
    e_rdd_order1: float
    e_rdd_order2: float
    inversion: bool


#: variables of the two-scale stress case, the paper's N
CONTRIVED_DIM = 100
#: share of the variance in the univariate terms; the rest is the top interaction
CONTRIVED_UNIVARIATE_SHARE = 0.999


def contrived_example() -> TwoScaleReport:
    """Build the two-scale stress case: ``CONTRIVED_DIM`` variables,
    ``CONTRIVED_UNIVARIATE_SHARE`` of the variance univariate.

    Exercises the real budget machinery on per-cardinality sums, so it runs
    at dimensions far past subset enumeration.
    """
    dim, univariate_share = CONTRIVED_DIM, CONTRIVED_UNIVARIATE_SHARE
    top = 1.0 - univariate_share
    sums = CardinalitySums(dim, {1: univariate_share, dim: top})
    b1 = rdd_expected_error(1, sums)
    b2 = rdd_expected_error(2, sums)
    return TwoScaleReport(
        dim=dim,
        univariate_share=univariate_share,
        top_share=top,
        e_add_order1=b1.e_add,
        e_add_order2=b2.e_add,
        e_rdd_order1=b1.e_rdd_expected,
        e_rdd_order2=b2.e_rdd_expected,
        inversion=b2.e_rdd_expected > b1.e_rdd_expected,
    )
