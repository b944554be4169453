"""Bernoulli numbers and the even power-series expansions used everywhere else.

All expansion coefficients are generated once as exact rationals and converted
to floats a single time, so coefficient error never accumulates.  The six
catalogued expansions (valid for |x| < pi) are

    x*cot(x)      = 1 - sum_{n>=1} 4^n |B_2n| x^(2n) / (2n)!
    cot(x)        = 1/x - sum_{n>=1} 4^n |B_2n| x^(2n-1) / (2n)!
    coth(x)       = 1/x + sum_{n>=1} 4^n B_2n x^(2n-1) / (2n)!
    1/sin(x)^2    = 1/x^2 + sum_{n>=1} 4^n |B_2n| (2n-1) x^(2n-2) / (2n)!
    1/sinh(x)^2   = 1/x^2 - sum_{n>=1} 4^n B_2n (2n-1) x^(2n-2) / (2n)!
    x/sin(x)      = 1 + sum_{n>=1} (4^n - 2) |B_2n| x^(2n) / (2n)!

where B_2n are the even-indexed Bernoulli numbers (signed where the expansion
alternates: the hyperbolic ones need B_2n = (-1)^(n+1) |B_2n|).
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, SeriesDomainError

#: Largest index n for which |B_2n| is tabulated by default.
DEFAULT_BERNOULLI_LIMIT = 30

#: Default truncation depth.  Terms decay like (x/pi)^(2n), so at x = pi/2 the
#: tail after 24 terms is below 1e-14; 12 terms would leave ~1e-7 there.
DEFAULT_TERMS = 24

INCREASING = "increasing"
DECREASING = "decreasing"
NEITHER = "neither"


def _signed_bernoulli(count: int) -> list[Fraction]:
    """B_0 .. B_count via the defining recurrence sum C(m+1,k) B_k = 0."""
    table = [Fraction(1)]
    for m in range(1, count + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * table[k]
        table.append(-acc / (m + 1))
    return table


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


def _poly_in_x2(coeffs: np.ndarray, x2):
    """Horner evaluation of sum c_n * x2^(n-1) over n = 1..len(coeffs); on
    an array in place, so it allocates one array however many terms."""
    acc = np.zeros_like(np.asarray(x2, dtype=float))
    if acc.ndim:
        for c in coeffs[::-1]:
            acc *= x2
            acc += c
        return acc
    for c in coeffs[::-1]:
        acc = acc * x2 + c
    return acc


def _check_series_domain(kind: SeriesKind, x) -> None:
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise SeriesDomainError("series argument must be finite")
    if np.any(np.abs(xs) >= math.pi):
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


# Cancellation-free small-quantity kernels built on the same coefficients.
# These return the sum part alone, so callers never subtract the leading 1.


def xcotx_minus_one(x, terms: int = DEFAULT_TERMS):
    """x*cot(x) - 1 with full relative accuracy on (-pi, pi)."""
    _check_series_domain(SeriesKind.X_COT_X, x)
    xs = np.asarray(x, dtype=float)
    x2 = xs * xs
    out = -x2 * _poly_in_x2(_float_coeffs(SeriesKind.X_COT_X, terms), x2)
    return float(out) if xs.ndim == 0 else out


def xoversin_minus_one(x, terms: int = DEFAULT_TERMS):
    """x/sin(x) - 1 with full relative accuracy on (-pi, pi)."""
    _check_series_domain(SeriesKind.X_OVER_SIN, x)
    xs = np.asarray(x, dtype=float)
    x2 = xs * xs
    out = x2 * _poly_in_x2(_float_coeffs(SeriesKind.X_OVER_SIN, terms), x2)
    return float(out) if xs.ndim == 0 else out


def ycothy_minus_one(y, terms: int = DEFAULT_TERMS):
    """y*coth(y) - 1; intended for small |y| (radius of convergence pi)."""
    ys = np.asarray(y, dtype=float)
    if np.any(np.abs(ys) >= math.pi):
        raise SeriesDomainError("ycothy_minus_one requires |y| < pi")
    y2 = ys * ys
    out = y2 * _poly_in_x2(_float_coeffs(SeriesKind.COTH_X, terms), y2)
    return float(out) if ys.ndim == 0 else out


@functools.cache
def _tanh_coeffs() -> np.ndarray:
    # tanh(y) = sum_{n>=1} 4^n (4^n - 1) B_2n y^(2n-1) / (2n)!, B_2n = (-1)^(n+1) |B_2n|
    return np.array([
        float((-1) ** (n + 1) * Fraction(4**n * (4**n - 1), math.factorial(2 * n)) * b)
        for n, b in enumerate(_TABLE.exact, start=1)
    ])


def tanh_over_y_minus_one(y, terms: int = 12):
    """tanh(y)/y - 1, cancellation-free; full precision for |y| <= ~0.5
    (radius of convergence pi/2, so accuracy degrades toward the edge)."""
    if not 1 <= terms <= _TABLE.limit - 1:
        raise DomainError(f"terms must be in 1..{_TABLE.limit - 1}")
    ys = np.asarray(y, dtype=float)
    if np.any(np.abs(ys) >= math.pi / 2):
        raise SeriesDomainError("tanh_over_y_minus_one requires |y| < pi/2")
    y2 = ys * ys
    # drop n=1 (the leading y/y = 1)
    out = y2 * _poly_in_x2(_tanh_coeffs()[1 : terms + 1], y2)
    return float(out) if ys.ndim == 0 else out


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
