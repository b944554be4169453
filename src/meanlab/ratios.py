"""Scalar ratio functions on (0, pi/2) whose endpoint limits are the sharp
constants of the mean inequalities, plus their monotonicity and limit tools.

In mean language (x = arcsin(t), both sides normalized by A):

    log_gap_exponent(x)   = log(A/P) / log(P/X)      decreasing, (beta2, 1)
    x_gap_ratio(x)        = (A - X) / (A - G)         decreasing, ((e-1)/e, 2/3)
    seiffert_gap_ratio(x) = P / (A + G - X)           increasing, (1, 2e/(pi(e-1)))
    x_over_p(x)           = X / P                     decreasing, (pi/(2e), 1)
    cusa_aux(x)           = x cot x + (x/sin x)^2     > 2 on the open interval

Everything is evaluated through the cancellation-free series kernels, so the
0/0 endpoints cost no precision.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import series
from .errors import DomainError, ExtrapolationError

_E = math.e
_PI = math.pi


class RatioFn(enum.Enum):
    LOG_GAP_EXPONENT = "log_gap_exponent"
    X_GAP_RATIO = "x_gap_ratio"
    SEIFFERT_GAP_RATIO = "seiffert_gap_ratio"
    X_OVER_P = "x_over_p"
    CUSA_AUX = "cusa_aux"


def _check_open_interval(x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)) or np.any(xs <= 0.0) or np.any(xs >= _PI / 2):
        raise DomainError("ratio functions are defined on the open interval (0, pi/2)")
    return xs


def ratio_eval(fn: RatioFn, x):
    """Evaluate one ratio function; scalar in, float out; array in, array out."""
    xs = _check_open_interval(x)
    s = series.xoversin_minus_one(xs)  # x/sin(x) - 1 > 0
    w = series.xcotx_minus_one(xs)  # x cot(x) - 1 < 0
    with np.errstate(all="ignore"):
        if fn == RatioFn.LOG_GAP_EXPONENT:
            numer = np.log1p(s)  # log(x/sin x)
            out = numer / (-w - numer)  # log(e^(1 - x cot x) sin(x)/x)
        elif fn == RatioFn.X_GAP_RATIO:
            out = -np.expm1(w) / (2.0 * np.sin(0.5 * xs) ** 2)
        elif fn == RatioFn.SEIFFERT_GAP_RATIO:
            out = (1.0 / (1.0 + s)) / (np.cos(xs) - np.expm1(w))
        elif fn == RatioFn.X_OVER_P:
            out = np.exp(w) * (1.0 + s)
        elif fn == RatioFn.CUSA_AUX:
            out = (1.0 + w) + (1.0 + s) ** 2
        else:  # pragma: no cover
            raise DomainError(f"unknown ratio function {fn!r}")
    return float(out) if xs.ndim == 0 else out


def cusa_margin(x):
    """(cos x + 2)/3 - sin(x)/x, rearranged so the O(x^4) value survives."""
    xs = _check_open_interval(x)
    s = series.xoversin_minus_one(xs)
    out = s / (1.0 + s) - (2.0 / 3.0) * np.sin(0.5 * xs) ** 2
    return float(out) if xs.ndim == 0 else out


def cusa_aux_margin(x):
    """cusa_aux(x) - 2 = s^2 + 2 s - u with s = x/sin x - 1, u = 1 - x cot x."""
    xs = _check_open_interval(x)
    s = series.xoversin_minus_one(xs)
    u = -series.xcotx_minus_one(xs)
    out = s * s + 2.0 * s - u
    return float(out) if xs.ndim == 0 else out


@functools.cache
def _seiffert_gap_dev_coeffs() -> np.ndarray:
    """Exact z^k coefficients (z = x^2, k >= 3) of
    sin(x)/x - cos(x) + expm1(x cot x - 1).

    The k = 0..2 coefficients cancel identically (the ratio P/(A+G-X) is
    tangent to 1 through x^4), leaving x^6/3240 as the leading deviation.
    Built once in exact rationals via exp-of-series composition.
    """
    n = series.DEFAULT_TERMS
    c = series.series_coefficients(series.SeriesKind.X_COT_X, n)
    w = [Fraction(0)] + [-ci for ci in c]  # W(z) = sum w_j z^j, x cot x - 1
    e = [Fraction(1)] + [Fraction(0)] * n  # exp(W)
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += j * w[j] * e[k - j]
        e[k] = acc / k
    g = []
    for k in range(n + 1):
        sinc_k = Fraction((-1) ** k, math.factorial(2 * k + 1))
        cos_k = Fraction((-1) ** k, math.factorial(2 * k))
        g.append(sinc_k - cos_k + e[k])
    g[0] -= 1  # expm1, not exp: drop the constant term of E
    assert g[0] == 0 and g[1] == 0 and g[2] == 0
    assert g[3] == Fraction(1, 3240)
    return np.array([float(v) for v in g[3:]])


def seiffert_gap_deviation(x):
    """seiffert_gap_ratio(x) - 1, cancellation-free (value is O(x^6) near 0)."""
    xs = _check_open_interval(x)
    z = xs * xs
    numer = z * z * z * series._poly_in_x2(_seiffert_gap_dev_coeffs(), z)
    out = numer / (np.cos(xs) - np.expm1(series.xcotx_minus_one(xs)))
    return float(out) if xs.ndim == 0 else out


@dataclass(frozen=True)
class MonotonicityVerdict:
    direction: str  # "increasing" | "decreasing" | "violated"
    violation: tuple[float, float] | None = None

    def __str__(self):
        if self.direction == "violated":
            return f"violated between x={self.violation[0]!r} and x={self.violation[1]!r}"
        return self.direction


EXPECTED_DIRECTION = {
    RatioFn.LOG_GAP_EXPONENT: "decreasing",
    RatioFn.X_GAP_RATIO: "decreasing",
    RatioFn.SEIFFERT_GAP_RATIO: "increasing",
    RatioFn.X_OVER_P: "decreasing",
    RatioFn.CUSA_AUX: "increasing",
}


def monotone_samples(samples: int) -> np.ndarray:
    """check_monotone's fixed grid: samples points on [1e-6, pi/2 - 1e-6]."""
    return np.linspace(1e-6, _PI / 2 - 1e-6, samples)


def check_monotone(fn: RatioFn, samples: int) -> MonotonicityVerdict:
    """Strict-ordering verdict over the deterministic grid monotone_samples.

    Sample based, not a proof; the grid is fixed so any failure reproduces.
    The two functions that are flat to fourth order or beyond at 0 are
    monitored through their centered deviations (value minus the limit),
    which order strictly where the raw doubles would tie.
    """
    if samples < 2:
        raise DomainError("need at least two samples")
    xs = monotone_samples(samples)
    if fn == RatioFn.SEIFFERT_GAP_RATIO:
        vals = seiffert_gap_deviation(xs)
    elif fn == RatioFn.CUSA_AUX:
        vals = cusa_aux_margin(xs)
    else:
        vals = ratio_eval(fn, xs)
    diffs = np.diff(vals)
    if np.all(diffs > 0.0):
        return MonotonicityVerdict("increasing")
    if np.all(diffs < 0.0):
        return MonotonicityVerdict("decreasing")
    sign = 1.0 if np.median(diffs) > 0 else -1.0
    bad = int(np.argmin(sign * diffs))
    return MonotonicityVerdict("violated", (float(xs[bad]), float(xs[bad + 1])))


#: The interval ends at which endpoint_limit extrapolates.
ENDPOINTS = ("zero", "half_pi")


def _richardson(values: np.ndarray, ratio: float, levels: int) -> float:
    col = np.asarray(values, dtype=float)
    if len(col) < levels + 2:
        raise ExtrapolationError("not enough nodes for the requested depth")
    for j in range(1, levels + 1):
        f = ratio**j
        col = (f * col[1:] - col[:-1]) / (f - 1.0)
    est, prev = col[-1], col[-2]
    if not (math.isfinite(est) and math.isfinite(prev)):
        raise ExtrapolationError("extrapolation produced non-finite values")
    if abs(est - prev) > 1e-6 * max(1.0, abs(est)):
        raise ExtrapolationError(
            f"extrapolation did not settle: last two estimates {prev!r}, {est!r}"
        )
    return float(est)


def endpoint_limit(fn: RatioFn, endpoint: str) -> float:
    """Limit at an interval end via Richardson extrapolation on 1e-2/2^k, k < 11.

    Near zero the functions are even series in x, so the step variable is x^2
    (ratio 4); near pi/2 the expansion has every power of the distance d, so
    the plain ratio-2 tableau applies.  Four extrapolation levels.
    """
    if endpoint not in ENDPOINTS:
        raise DomainError(f"endpoint must be one of {ENDPOINTS}")
    steps = 1e-2 * 0.5 ** np.arange(11)
    if endpoint == "zero":
        xs = steps
        ratio = 4.0
    else:
        xs = _PI / 2 - steps
        ratio = 2.0
    vals = ratio_eval(fn, xs)
    return _richardson(vals, ratio, levels=4)


@dataclass(frozen=True)
class NamedConstant:
    """A sharp constant with its closed form (in the expression grammar) and
    the (function, endpoint) limit that recovers it, if one does, with the
    map from that limit to the constant (None: the identity)."""

    name: str
    closed_form: str
    value: float
    limit: tuple[RatioFn, str] | None = None
    of_limit: Callable[[float], float] | None = None


_LOG2 = math.log(2.0)


def named_constants() -> dict[str, NamedConstant]:
    """The sharp constants recovered by this module's endpoint limits."""
    consts = [
        NamedConstant("alpha", "2/3", 2.0 / 3.0, (RatioFn.X_GAP_RATIO, "zero")),
        NamedConstant("beta", "(e-1)/e", (_E - 1.0) / _E, (RatioFn.X_GAP_RATIO, "half_pi")),
        NamedConstant("alpha1", "1", 1.0, (RatioFn.SEIFFERT_GAP_RATIO, "zero")),
        NamedConstant(
            "beta1",
            "pi*(e-1)/(2*e)",
            _PI * (_E - 1.0) / (2.0 * _E),
            (RatioFn.SEIFFERT_GAP_RATIO, "half_pi"),
            lambda c: 1.0 / c,
        ),
        NamedConstant("alpha2", "2", 2.0, (RatioFn.LOG_GAP_EXPONENT, "zero"), lambda v: 1.0 + v),
        NamedConstant(
            "beta2",
            "log(pi/2)/log(2*e/pi)",
            math.log(_PI / 2.0) / math.log(2.0 * _E / _PI),
            (RatioFn.LOG_GAP_EXPONENT, "half_pi"),
        ),
        NamedConstant("q", "log(2)/(1+log(2))", _LOG2 / (1.0 + _LOG2)),
        NamedConstant(
            "k",
            "(5*log(2)+2)/(6*(log(2)+1))",
            (5.0 * _LOG2 + 2.0) / (6.0 * (_LOG2 + 1.0)),
        ),
        NamedConstant(
            "c",
            "2*e/(pi*(e-1))",
            2.0 * _E / (_PI * (_E - 1.0)),
            (RatioFn.SEIFFERT_GAP_RATIO, "half_pi"),
        ),
        NamedConstant("pi_over_2e", "pi/(2*e)", _PI / (2.0 * _E), (RatioFn.X_OVER_P, "half_pi")),
    ]
    return {c.name: c for c in consts}


#: The plain limit 1 at the zero ends that recover no named constant.
_UNIT_LIMITS = (
    NamedConstant("one_log_gap", "1", 1.0, (RatioFn.LOG_GAP_EXPONENT, "zero")),
    NamedConstant("one_x_over_p", "1", 1.0, (RatioFn.X_OVER_P, "zero")),
)


def constant_recovery() -> list[dict]:
    """The verify report's constant rows: each named constant, then the unit
    limits.  A constant with a limit is estimated from it, each (function,
    endpoint) limit computed once; q and k have none, so their rows give the
    closed form itself and an error of 0 by construction."""
    table = [*named_constants().values(), *_UNIT_LIMITS]
    limits = {key: endpoint_limit(*key) for key in dict.fromkeys(nc.limit for nc in table) if key}
    rows = []
    for nc in table:
        estimate = nc.value if nc.limit is None else limits[nc.limit]
        estimate = estimate if nc.of_limit is None else nc.of_limit(estimate)
        rows.append(
            {
                "name": nc.name,
                "closed_form": nc.closed_form,
                "value": nc.value,
                "estimate": estimate,
                "abs_error": abs(estimate - nc.value),
                "method": "closed_form" if nc.limit is None else "endpoint_limit",
            }
        )
    return rows


def limit_target(fn: RatioFn, endpoint: str) -> float:
    """Closed-form value the endpoint limit should reproduce."""
    for nc in (*named_constants().values(), *_UNIT_LIMITS):
        if nc.limit == (fn, endpoint) and nc.of_limit is None:
            return nc.value
    if fn == RatioFn.CUSA_AUX:
        return 2.0 if endpoint == "zero" else _PI * _PI / 4.0
    raise DomainError(f"no catalogued limit for {fn} at {endpoint}")
