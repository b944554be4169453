"""Bernoulli numbers and the three even power-series expansions the kernels read.

Each expansion's coefficients are generated once as exact rationals and
converted to floats a single time, so coefficient error never accumulates.
The three expansions (valid for |x| < pi) are

    x cot(x) - 1  = - sum_{n>=1} 4^n |B_2n| x^(2n) / (2n)!
    x coth(x) - 1 =   sum_{n>=1} 4^n B_2n x^(2n) / (2n)!
    x/sin(x) - 1  =   sum_{n>=1} (4^n - 2) |B_2n| x^(2n) / (2n)!

where B_2n are the even-indexed Bernoulli numbers, signed in the hyperbolic
one: B_2n = (-1)^(n+1) |B_2n|.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, SeriesDomainError

#: Truncation depth.  Terms decay like (x/pi)^(2n), so at x = pi/2 the
#: tail after 24 terms is below 1e-14; 12 terms would leave ~1e-7 there.
DEFAULT_TERMS = 24


def _signed_bernoulli(count: int) -> list[Fraction]:
    """B_0 .. B_count via the defining recurrence sum C(m+1,k) B_k = 0."""
    table = [Fraction(1)]
    for m in range(1, count + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * table[k]
        table.append(-acc / (m + 1))
    return table


#: |B_2n| for n = 1..DEFAULT_TERMS, exact.
_BERNOULLI_ABS = tuple(abs(b) for b in _signed_bernoulli(2 * DEFAULT_TERMS)[2::2])


class SeriesKind(enum.Enum):
    X_COT_X = "x_cot_x"
    COTH_X = "coth_x"
    X_OVER_SIN = "x_over_sin"


def series_coefficients(kind: SeriesKind, terms: int) -> list[Fraction]:
    """Exact coefficients c_n, n = 1..terms, of each expansion's sum part.

    The sign convention matches the closed forms in the module docstring: the
    returned c_n is the factor multiplying x^(2n) inside the sum, so a term
    contributes +/- c_n x^(2n) exactly as written there.
    """
    if not 1 <= terms <= DEFAULT_TERMS:
        raise DomainError(f"terms must be in 1..{DEFAULT_TERMS}")
    offset = 2 if kind == SeriesKind.X_OVER_SIN else 0
    out = []
    for n, b in enumerate(_BERNOULLI_ABS[:terms], start=1):
        c = Fraction(4**n - offset, math.factorial(2 * n)) * b
        # B_2n = (-1)^(n+1) |B_2n|
        out.append(-c if kind == SeriesKind.COTH_X and n % 2 == 0 else c)
    return out


@functools.cache
def _float_coeffs(kind: SeriesKind) -> np.ndarray:
    return np.array([float(c) for c in series_coefficients(kind, DEFAULT_TERMS)])


def _poly_in_x2(coeffs: np.ndarray, x2):
    """Horner evaluation of sum c_n * x2^(n-1) over n = 1..len(coeffs); on
    an array in place, so it allocates one array however many terms, and on
    a scalar in Python floats, which cost a fraction of numpy scalars."""
    if isinstance(x2, np.ndarray) and x2.ndim:
        acc = np.zeros_like(x2, dtype=float)
        for c in coeffs[::-1]:
            acc *= x2
            acc += c
        return acc
    acc, x2 = 0.0, float(x2)
    for c in coeffs[::-1].tolist():
        acc = acc * x2 + c
    return acc


# Cancellation-free small-quantity kernels: each returns the sum part alone,
# so callers never subtract the leading 1.


def _sum_part(kind: SeriesKind, x):
    """x^2 sum c_n x^(2n-2), the sum part of the kind's series; a float at a
    scalar x.  Raises SeriesDomainError unless every |x| < pi."""
    xs = np.asarray(x, dtype=float)
    if not (np.abs(xs) < math.pi).all():  # false at NaN too
        if not np.isfinite(xs).all():
            raise SeriesDomainError("series argument must be finite")
        raise SeriesDomainError("series require |x| < pi")
    x2 = xs * xs
    out = x2 * _poly_in_x2(_float_coeffs(kind), x2)
    return float(out) if xs.ndim == 0 else out


def xcotx_minus_one(x):
    """x*cot(x) - 1 with full relative accuracy on (-pi, pi)."""
    return -_sum_part(SeriesKind.X_COT_X, x)


def xoversin_minus_one(x):
    """x/sin(x) - 1 with full relative accuracy on (-pi, pi)."""
    return _sum_part(SeriesKind.X_OVER_SIN, x)


def ycothy_minus_one(y):
    """y*coth(y) - 1 with full relative accuracy for |y| up to about 1.4
    (radius of convergence pi)."""
    return _sum_part(SeriesKind.COTH_X, y)
