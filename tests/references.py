"""Second routes and the full series catalogue, for the tests only.

The lab evaluates each mean from one closed form and reads three series
expansions.  The definitions here are what the tests hold those against:

* a second route to each of L, I, P, X and Y;
* the six-kind catalogue of even expansions (valid for |x| < pi), with the
  exact Bernoulli table up to |B_60|, a truncated-series evaluator, its
  truncation yardstick and a coefficient-ratio monotonicity classifier;

    x*cot(x)      = 1 - sum_{n>=1} 4^n |B_2n| x^(2n) / (2n)!
    cot(x)        = 1/x - sum_{n>=1} 4^n |B_2n| x^(2n-1) / (2n)!
    coth(x)       = 1/x + sum_{n>=1} 4^n B_2n x^(2n-1) / (2n)!
    1/sin(x)^2    = 1/x^2 + sum_{n>=1} 4^n |B_2n| (2n-1) x^(2n-2) / (2n)!
    1/sinh(x)^2   = 1/x^2 - sum_{n>=1} 4^n B_2n (2n-1) x^(2n-2) / (2n)!
    x/sin(x)      = 1 + sum_{n>=1} (4^n - 2) |B_2n| x^(2n) / (2n)!

  where B_2n are the even-indexed Bernoulli numbers (signed where the
  expansion alternates: the hyperbolic ones need B_2n = (-1)^(n+1) |B_2n|);
* three small entry points: the Cusa margin, a typed-pair expression
  evaluator and a chain lookup by id;
* the plain bracket: every order decided on the whole grid.

They build on the library's own pieces (Pair, the series kernels, Horner
evaluation and the Bernoulli recurrence), so a test that compares a route
with the lab differs only in the steps the route takes differently.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from meanlab import series
from meanlab.chains import (
    BRACKET_SEARCH_RANGE,
    DEFAULT_MARGIN_GUARD,
    GridSpec,
    InequalityChain,
    _OrderTest,
    builtin_suite,
)
from meanlab.errors import DomainError, NonMonotonePredicateError, SeriesDomainError
from meanlab.expressions import MeanExpr, evaluate, parse_expr
from meanlab.means import (
    SERIES_T_THRESHOLD,
    Pair,
    PositivePair,
    _piecewise,
    _ret,
    arithmetic,
    logarithmic,
    seiffert,
)
from meanlab.ratios import _check_open_interval
from meanlab.series import DEFAULT_TERMS, _poly_in_x2, _signed_bernoulli

# ---------------------------------------------------------------------------
# Second routes to the means
# ---------------------------------------------------------------------------


def logarithmic_param(a, b):
    """Hyperbolic route L = G sinh(y)/y, series below the threshold.  Above
    it G sinh(y) = hi (1 - e^(-2y))/2, which stays finite past y = 710."""
    pair = Pair(a, b)
    with np.errstate(all="ignore"):
        out = pair.hi * -np.expm1(-2.0 * pair.y) / (2.0 * pair.y)
    small = pair.t < SERIES_T_THRESHOLD
    out = _piecewise(small, out, lambda g, y: g * sinh_over_y(y), pair.g, pair.y)
    return _ret(out, pair.scalar)


def identric_param(a, b):
    """Identity route log(I/G) = A/L - 1, anchored at hi = G e^y so that it
    stays finite where G e^(A/L - 1) overflows."""
    pair = Pair(a, b)
    ratio = arithmetic(a, b, pair=pair) / logarithmic(a, b, pair=pair)
    return _ret(pair.hi * np.exp(ratio - 1.0 - pair.y), pair.scalar)


def seiffert_param(a, b):
    """Series route P = A / (x/sin x) on the whole domain."""
    pair = Pair(a, b)
    sin_ratio = 1.0 + series.xoversin_minus_one(pair.x)
    return _ret(arithmetic(a, b, pair=pair) / sin_ratio, pair.scalar)


def x_mean_direct(a, b):
    """Defining route X = A e^(G/P - 1)."""
    pair = Pair(a, b)
    p = seiffert(a, b, pair=pair)
    return _ret(arithmetic(a, b, pair=pair) * np.exp(pair.g / p - 1.0), pair.scalar)


def y_mean_direct(a, b):
    """Defining route Y = G e^(L/A - 1)."""
    pair = Pair(a, b)
    ratio = logarithmic(a, b, pair=pair) / arithmetic(a, b, pair=pair)
    return _ret(pair.g * np.exp(ratio - 1.0), pair.scalar)


# ---------------------------------------------------------------------------
# The six-kind series catalogue
# ---------------------------------------------------------------------------

#: Largest index n for which |B_2n| is tabulated by default.
DEFAULT_BERNOULLI_LIMIT = 30

INCREASING = "increasing"
DECREASING = "decreasing"
NEITHER = "neither"


class BernoulliTable:
    """Immutable table of |B_2n| for n = 1..limit, exact and rounded."""

    def __init__(self, limit: int = DEFAULT_BERNOULLI_LIMIT):
        if limit < 1:
            raise DomainError("Bernoulli table needs limit >= 1")
        signed = _signed_bernoulli(2 * limit)
        self.limit = limit
        self.exact = tuple(abs(signed[2 * n]) for n in range(1, limit + 1))
        self.floats = tuple(float(v) for v in self.exact)

    def abs_value(self, n: int) -> Fraction:
        if not 1 <= n <= self.limit:
            raise DomainError(
                f"Bernoulli index n={n} outside tabulated range 1..{self.limit}"
            )
        return self.exact[n - 1]


_TABLE = BernoulliTable()


def bernoulli_even_abs(n: int, table: BernoulliTable | None = None) -> Fraction:
    """|B_2n| as an exact rational."""
    return (table or _TABLE).abs_value(n)


class SeriesKind(enum.Enum):
    X_COT_X = "x_cot_x"
    COT_X = "cot_x"
    COTH_X = "coth_x"
    INV_SIN_SQ = "inv_sin_sq"
    INV_SINH_SQ = "inv_sinh_sq"
    X_OVER_SIN = "x_over_sin"


def series_coefficients(
    kind: SeriesKind, terms: int, table: BernoulliTable | None = None
) -> list[Fraction]:
    """Exact coefficients of each expansion's sum part, n = 1..terms.

    The sign convention matches the closed forms in the module docstring: the
    returned c_n is the factor multiplying the monomial inside the sum, so a
    term contributes +/- c_n x^k exactly as written there.
    """
    tab = table or _TABLE
    if terms < 1:
        raise DomainError("terms must be >= 1")
    if terms > tab.limit:
        raise DomainError(f"terms={terms} exceeds Bernoulli table limit {tab.limit}")
    out = []
    for n in range(1, terms + 1):
        b = tab.abs_value(n)
        base = Fraction(4**n, math.factorial(2 * n)) * b
        sign = 1 if n % 2 == 1 else -1  # B_2n = (-1)^(n+1) |B_2n|
        if kind in (SeriesKind.X_COT_X, SeriesKind.COT_X):
            out.append(base)
        elif kind == SeriesKind.COTH_X:
            out.append(sign * base)
        elif kind == SeriesKind.INV_SIN_SQ:
            out.append(base * (2 * n - 1))
        elif kind == SeriesKind.INV_SINH_SQ:
            out.append(sign * base * (2 * n - 1))
        elif kind == SeriesKind.X_OVER_SIN:
            out.append(Fraction(4**n - 2, math.factorial(2 * n)) * b)
        else:  # pragma: no cover
            raise DomainError(f"unknown series kind {kind}")
    return out


@functools.cache
def _float_coeffs(kind: SeriesKind, terms: int) -> np.ndarray:
    return np.array([float(c) for c in series_coefficients(kind, terms)])


def _check_series_domain(kind: SeriesKind, x) -> None:
    xs = np.asarray(x, dtype=float)
    if not (np.abs(xs) < math.pi).all():  # false at NaN too
        if not np.isfinite(xs).all():
            raise SeriesDomainError("series argument must be finite")
        raise SeriesDomainError("series require |x| < pi")
    singular = kind in (
        SeriesKind.COT_X,
        SeriesKind.COTH_X,
        SeriesKind.INV_SIN_SQ,
        SeriesKind.INV_SINH_SQ,
    )
    if singular and np.any(xs == 0.0):
        raise SeriesDomainError(f"{kind.value} has a pole at x = 0")


def series_eval(kind: SeriesKind, x, terms: int = DEFAULT_TERMS):
    """Truncated series value; scalar in, float out; array in, array out.

    Truncation error is bounded by twice the first omitted term whenever
    |x| <= pi/2 (consecutive terms shrink by at least (x/pi)^2 < 1/4).
    """
    _check_series_domain(kind, x)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    x2 = xs * xs
    c = _float_coeffs(kind, terms)
    s = _poly_in_x2(c, x2)
    if kind == SeriesKind.X_COT_X:
        out = 1.0 - x2 * s
    elif kind == SeriesKind.COT_X:
        out = 1.0 / xs - xs * s
    elif kind == SeriesKind.COTH_X:
        out = 1.0 / xs + xs * s
    elif kind == SeriesKind.INV_SIN_SQ:
        out = 1.0 / x2 + s
    elif kind == SeriesKind.INV_SINH_SQ:
        out = 1.0 / x2 - s
    else:  # X_OVER_SIN
        out = 1.0 + x2 * s
    return float(out) if scalar else out


def first_omitted_term(kind: SeriesKind, x: float, terms: int) -> float:
    """Magnitude of term number terms+1; the truncation-error yardstick."""
    c = _float_coeffs(kind, terms + 1)[-1]
    n = terms + 1
    if kind in (SeriesKind.X_COT_X, SeriesKind.X_OVER_SIN):
        power = 2 * n
    elif kind in (SeriesKind.COT_X, SeriesKind.COTH_X):
        power = 2 * n - 1
    else:
        power = 2 * n - 2
    return abs(c) * abs(x) ** power


#: The most terms sinh_over_y takes: past them (2k+1)! exceeds the doubles.
_SINH_MAX_TERMS = 84


@functools.cache
def _sinh_coeffs(terms: int) -> np.ndarray:
    # 1/(2k+1)! for k = 1..terms, rounded from the float quotient:
    # float(Fraction(1, (2k+1)!)) differs from it in the last bit for some k
    return np.array([1.0 / math.factorial(2 * k + 1) for k in range(1, terms + 1)])


def sinh_over_y(y, terms: int = 10):
    """sinh(y)/y = sum y^(2k)/(2k+1)!; entire, used for small |y|."""
    if not 1 <= terms <= _SINH_MAX_TERMS:
        raise DomainError(f"terms must be in 1..{_SINH_MAX_TERMS}")
    ys = np.asarray(y, dtype=float)
    y2 = ys * ys
    out = 1.0 + y2 * _poly_in_x2(_sinh_coeffs(terms), y2)
    return float(out) if ys.ndim == 0 else out


def coeff_ratio_monotonicity(
    numer: Sequence, denom: Sequence, count: int
) -> str:
    """Classify the sequence numer[n]/denom[n], n = 1..count.

    Returns "increasing", "decreasing", or "neither" (constants and mixed
    behaviour both map to "neither").  Denominator entries must be positive.
    """
    if count < 2:
        raise DomainError("need count >= 2 to classify monotonicity")
    if len(numer) < count or len(denom) < count:
        raise DomainError("sequences shorter than requested count")
    dn = [Fraction(d) for d in denom[:count]]
    if any(d <= 0 for d in dn):
        raise DomainError("denominator entries must be positive")
    ratios = [Fraction(n) / d for n, d in zip(numer[:count], dn)]
    if all(b > a for a, b in zip(ratios, ratios[1:])):
        return INCREASING
    if all(b < a for a, b in zip(ratios, ratios[1:])):
        return DECREASING
    return NEITHER


# ---------------------------------------------------------------------------
# Small entry points
# ---------------------------------------------------------------------------


def cusa_margin(x):
    """(cos x + 2)/3 - sin(x)/x, rearranged so the O(x^4) value survives."""
    xs = _check_open_interval(x)
    s = series.xoversin_minus_one(xs)
    out = s / (1.0 + s) - (2.0 / 3.0) * np.sin(0.5 * xs) ** 2
    return float(out) if xs.ndim == 0 else out


def eval_expr(expr: MeanExpr, pair: PositivePair) -> float:
    """Spec-shaped scalar entry point."""
    return evaluate(expr, pair.a, pair.b)


def get_chain(chain_id: str) -> InequalityChain:
    for c in builtin_suite():
        if c.id == chain_id:
            return c
    raise DomainError(f"unknown chain id {chain_id!r}")


# ---------------------------------------------------------------------------
# The plain bracket
# ---------------------------------------------------------------------------


def plain_bracket(target, side, tolerance, grid=None, margin_guard=DEFAULT_MARGIN_GUARD):
    """chains.bracket_best_exponent with neither the sign rule nor the
    witness: every order is decided on the whole grid, by
    _OrderTest.decide and else _OrderTest.exact, and the integer orders are
    tried in ascending order on both sides."""
    if side not in ("lower", "upper"):
        raise DomainError("side must be 'lower' or 'upper'")
    if not (tolerance > 0.0 and math.isfinite(tolerance)):
        raise DomainError("tolerance must be positive")
    lower = side == "lower"
    test = _OrderTest(parse_expr(target), lower, grid or GridSpec(), margin_guard)

    def holds(s):
        decided = test.decide(s)
        return test.exact(s) if decided is None else decided

    steps = np.arange(BRACKET_SEARCH_RANGE[0], BRACKET_SEARCH_RANGE[1] + 1.0).tolist()
    flags = [holds(s) for s in steps]
    if not any(flags):
        raise DomainError(
            f"no integer exponent in {BRACKET_SEARCH_RANGE} satisfies the {side} relation"
        )
    if all(flags):
        raise DomainError(f"the {side} relation never breaks inside {BRACKET_SEARCH_RANGE}")
    below = flags if lower else [not f for f in flags]
    if below != sorted(below, reverse=True):
        raise NonMonotonePredicateError(
            f"predicate not monotone over integer scan {steps}: {flags}"
        )
    k = below.count(True)
    lo, hi = steps[k - 1], steps[k]
    while abs(hi - lo) > tolerance:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if holds(mid) == lower:
            lo = mid
        else:
            hi = mid
    return lo if lower else hi
