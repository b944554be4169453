"""The ten bivariate means, evaluated without catastrophic cancellation.

Each kernel (``arithmetic`` .. ``heronian_mean``) accepts floats or numpy
arrays elementwise and is total on a == b via continuity limits; a
:class:`MeanKind` names one, and :func:`mean_kernel` gives its kernel.

A kernel's pairs are validated and canonicalized to hi >= lo once, in a
:class:`Pair`, so symmetry is exact.  Kernels called on the same pairs can
share one through ``pair=``, and with it the quantities they all read.  With
t = (hi - lo)/(hi + lo) the trigonometric parametrization is x = arcsin(t),
the hyperbolic one y = artanh(t) = log(hi/lo)/2, and

    P = A sin(x)/x     G = A cos(x)      H = A cos(x)^2    X = A e^(x cot x - 1)
    L = G sinh(y)/y    L = A tanh(y)/y   H = G / cosh(y)   Y = G e^(tanh(y)/y - 1)
    log(I/G) = A/L - 1

L, P, H and I are each one closed form over these, with u = (hi - lo)/lo:

    L = (hi - lo)/(2y)   P = (hi - lo)/(2x)   H = lo (1 + t)   I = hi e^(2y/u - 1)

The pair also keeps the two exponents that X, Y and the log offsets
(:func:`log_over_arithmetic`) share: x cot x - 1 = log(X/A), and
w = y coth y - 1 >= 0, whence, with nothing cancelling,

    log(I/G) = w     log(L/A) = -log1p(w)     log(Y/G) = tanh(y)/y - 1 = w/(-1 - w)

Both take truncated series below one threshold on t, ``SERIES_T_THRESHOLD``;
the only other series is P's offset, x/sin x - 1 at every t.  A series or
overflow branch is evaluated only on the points that take it; a scalar pair
takes it whole.  Each kernel returns an array of its own.
:func:`power_mean_exponent`, which the bracket asks for on every order,
takes the pair's y alone, the one quantity that it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import series
from .errors import DomainError

#: t below which the exponents x cot x - 1 and y coth y - 1 take their
#: series (radius pi), within a few ulp up to x ~ 1.07 and y ~ 1.35 here.
#: Their direct forms cancel as t -> 0 and are within a few ulp from about
#: t = 0.8 up.
SERIES_T_THRESHOLD = 0.875

#: |p| below which the power-type means use the log-space p -> 0 limit.
POWER_LIMIT_THRESHOLD = 1e-8

#: hi + lo can overflow only where hi exceeds this.
_HALF_MAX = np.finfo(float).max / 2

#: e^E overflows only above _LOG_MAX; _TINY is the smallest normal double.
_LOG_MAX = math.log(np.finfo(float).max)
_TINY = np.finfo(float).tiny


def _piecewise(mask, values, fn, *args):
    """values with fn(*(arg[mask] for arg in args)) written at the masked
    points; fn runs on those points only, and not at all if there are none.
    Args other than arrays pass whole; 0-d arrays must not arrive here.  A
    numpy bool mask (a scalar pair) takes one branch whole: it returns
    fn(*args) or values, with no gather or scatter.  The caller must use the
    returned value, since a scalar cannot be written in place.  fn may write
    over its gathered array arguments."""
    if not isinstance(mask, np.ndarray):
        if not mask:
            return values
        with np.errstate(all="ignore"):
            return fn(*args)
    idx = np.flatnonzero(mask)
    if idx.size:
        with np.errstate(all="ignore"):
            taken = (arg.take(idx) if isinstance(arg, np.ndarray) else arg for arg in args)
            # a flat view of values, always a contiguous buffer (a kernel's
            # fresh result): the same writes as np.put, at well under half its cost
            values.reshape(-1)[idx] = fn(*taken)
    return values


def _sum_safe(fn, degree, hi, *args):
    """fn(hi, *args), a formula homogeneous of the given degree in its
    arguments (hi and other quantities of degree 1, none above hi) whose only
    overflow is a sum such as hi + lo.  Where hi > max/2, where that sum can
    overflow, it is 2^degree fn of the halved arguments: halving such hi is
    exact, and the other arguments lose a bit only far below hi's last one.
    A scalar compares before it sums, so it enters no errstate; a grid sums
    everywhere with warnings off, then redoes its wide points."""
    if not isinstance(hi, np.ndarray):
        if hi <= _HALF_MAX:
            return fn(hi, *args)
        return _halved(fn, degree, hi, *args)
    with np.errstate(all="ignore"):
        values = fn(hi, *args)
    return _piecewise(hi > _HALF_MAX, values, partial(_halved, fn, degree), hi, *args)


def _halved(fn, degree, *args):
    return fn(*(0.5 * v for v in args)) * 2.0**degree


# The formulas _sum_safe guards: t, A, lo/(hi + lo) and cos x = G/A.
def _t(hi, lo):
    return (hi - lo) / (hi + lo)


def _mid(hi, lo):
    return (hi + lo) * 0.5


def _lo_share(hi, lo):
    return lo / (hi + lo)


def _cos_x(hi, lo, g):
    return 2.0 * g / (hi + lo)


def _ndim(v):
    """np.ndim(v), without that call (about 1 us) on an ndarray or a float."""
    return v.ndim if isinstance(v, np.ndarray) else 0 if isinstance(v, float) else np.ndim(v)


class _cached:
    """functools.cached_property without its lock, which Python 3.11 takes
    on every first read; a pair fills in its quantities on one thread."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Pair:
    """Pairs (a, b), validated and canonicalized to hi >= lo once, with the
    quantities that several kernels read, each computed on first use.

    A kernel given ``pair=`` reads these instead of validating its (a, b)
    again; the pair must be ``Pair(a, b)`` of the same arguments.  A scalar
    pair is held as two ``np.float64`` values, so every quantity and every
    kernel output on it is 0-d and each branch is taken whole (see
    :func:`_piecewise`); the kernel bodies are the same as on grids.

    A prepared pair (:meth:`prepared`) has every quantity computed and every
    array read-only: kernels only read a pair's arrays, so one prepared pair
    serves any number of callers, on any threads, and a write into it
    raises."""

    def __init__(self, a, b):
        self.scalar = _ndim(a) == 0 and _ndim(b) == 0
        if self.scalar:  # float comparisons: numpy reductions cost microseconds
            a, b = float(a), float(b)
            if not (0.0 < a < math.inf and 0.0 < b < math.inf):
                raise DomainError("means are defined for positive finite arguments only")
            self.hi, self.lo = np.float64(max(a, b)), np.float64(min(a, b))
            return
        aa = np.asarray(a, dtype=float)
        bb = np.asarray(b, dtype=float)
        if not all(np.isfinite(arr).all() and not (arr <= 0.0).any() for arr in (aa, bb)):
            raise DomainError("means are defined for positive finite arguments only")
        self.hi = np.maximum(aa, bb)
        self.lo = np.minimum(aa, bb)

    def prepared(self) -> "Pair":
        """This array pair with every quantity computed now and every array
        made read-only."""
        for name, attr in vars(Pair).items():
            if isinstance(attr, _cached):
                getattr(self, name)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return self

    @_cached
    def eq(self):
        """The points with hi == lo, where every mean is hi."""
        return self.hi == self.lo

    @_cached
    def t(self):
        """t = (hi - lo)/(hi + lo), in [0, 1]."""
        return _sum_safe(_t, 0, self.hi, self.lo)

    @_cached
    def g(self):
        """sqrt(hi)*sqrt(lo): the geometric mean, except where hi == lo."""
        return np.sqrt(self.hi) * np.sqrt(self.lo)

    @_cached
    def y(self):
        """y = artanh(t) = log(hi/lo)/2 at full relative accuracy for any
        ratio; unlike arctanh(t) it stays accurate when t is within a few
        ulp of 1."""
        hi, lo = self.hi, self.lo
        with np.errstate(all="ignore"):
            u = (hi - lo) / lo
            log_ratio = np.log1p(u)
        # past u = 1e15 log1p gains nothing, and u itself may overflow
        log_ratio = _piecewise(u >= 1e15, log_ratio, _log_ratio, hi, lo)
        return 0.5 * log_ratio

    @_cached
    def x(self):
        """x = arcsin(t), accurate up to t -> 1.

        Plain arcsin amplifies the rounding of t by 1/sqrt(1-t^2); past 0.9
        the half-angle form pi/2 - 2 arcsin(sqrt(lo/(hi+lo))) uses the
        exactly computable 1 - t instead."""
        hi, lo = self.hi, self.lo
        # on grids to large ratios most points are past 0.9, and computing
        # the half-angle form everywhere beats gathering them
        with np.errstate(all="ignore"):
            half_angle = 2.0 * np.arcsin(np.sqrt(_sum_safe(_lo_share, 0, hi, lo)))
            x = 0.5 * math.pi - half_angle
        return _piecewise(self.t <= 0.9, x, np.arcsin, self.t)

    @_cached
    def log_g(self):
        """log(G/A) = log1p(-t^2)/2.  Past y = 1 log1p(-t^2) loses the
        digits of 1 - t^2, and from a ratio of about 1e16 it is log1p(-1);
        there it is -log(cosh y) = -(y - log 2 + log1p(e^(-2y)))."""
        with np.errstate(all="ignore"):
            out = np.log1p(-self.t * self.t)
        out *= 0.5
        return _piecewise(self.y > 1.0, out, _minus_log_cosh, self.y)

    @_cached
    def xc(self):
        """x cot x - 1 = G/P - 1 = log(X/A).  Above the threshold it is
        x (G/A)/t - 1, which keeps cos(x) = G/A exact as t -> 1."""
        small = self.t < SERIES_T_THRESHOLD
        if self.scalar and small:  # the series alone; a grid takes it where small
            return series.xcotx_minus_one(self.x)
        xc = _sum_safe(_cos_x, 0, self.hi, self.lo, self.g)
        with np.errstate(all="ignore"):
            xc *= self.x
            xc /= self.t
            xc -= 1.0
        return _piecewise(small, xc, series.xcotx_minus_one, self.x)

    @_cached
    def w(self):
        """w = y coth y - 1 = A/L - 1 = log(I/G), y/tanh(y) - 1 above the
        threshold; w >= 0, so 1 + w never cancels."""
        small = self.t < SERIES_T_THRESHOLD
        if self.scalar and small:
            return series.ycothy_minus_one(self.y)
        with np.errstate(all="ignore"):
            w = self.y / np.tanh(self.y)
            w -= 1.0
        return _piecewise(small, w, series.ycothy_minus_one, self.y)


def _minus_log_cosh(y):
    """-(y - log 2 + log1p(e^(-2y))) = log(G/A), for y > 1.  Most points of
    a grid to large ratios take it, so it writes over y, a gathered copy."""
    e = np.log1p(np.exp(-2.0 * y))
    y -= math.log(2.0)
    y += e
    y *= -1.0
    return y


def _log_ratio(hi, lo):
    """log(hi/lo), from the quotient where it is finite; where it overflows,
    lo < 1 < hi, and log(hi) - log(lo) adds two positive terms."""
    out = np.log(hi / lo)
    return _piecewise(np.isinf(out), out, lambda hi, lo: np.log(hi) - np.log(lo), hi, lo)


def _pair(a, b, pair):
    return Pair(a, b) if pair is None else pair


def _on_diagonal(pair, values):
    """values with hi written where hi == lo."""
    if pair.scalar:  # values is 0-d, or a row of power-mean orders
        return np.full_like(values, pair.hi) if pair.eq else values
    np.copyto(values, pair.hi, where=pair.eq)
    return values


def _ret(values, scalar):
    return float(values) if scalar else values


def arithmetic(a, b, *, pair=None):
    pair = _pair(a, b, pair)
    return _ret(_sum_safe(_mid, 1, pair.hi, pair.lo), pair.scalar)


def geometric(a, b, *, pair=None):
    pair = _pair(a, b, pair)
    # +g: a copy, since the pair's g is shared and may be read-only
    return _ret(_on_diagonal(pair, +pair.g), pair.scalar)


def harmonic(a, b, *, pair=None):
    """H = lo (1 + t), since 2 hi/(hi + lo) = 1 + t."""
    pair = _pair(a, b, pair)
    h = 1.0 + pair.t
    h *= pair.lo
    return _ret(h, pair.scalar)


def _half_slope(pair, angle):
    """(hi - lo)/(2 angle), with hi where hi == lo: L from y, P from x."""
    with np.errstate(all="ignore"):
        m = (pair.hi - pair.lo) / (2.0 * angle)
    return _on_diagonal(pair, m)


def _log_y_over_g(pair):
    """log(Y/G) = tanh(y)/y - 1 = L/A - 1 = w/(-1 - w)."""
    return pair.w / (-1.0 - pair.w)


def logarithmic(a, b, *, pair=None):
    """L = (a - b)/log(a/b) = (hi - lo)/(2y)."""
    pair = _pair(a, b, pair)
    return _ret(_half_slope(pair, pair.y), pair.scalar)


def identric(a, b, *, pair=None):
    """I = (1/e)(a^a/b^b)^(1/(a-b)), anchored at hi.

    With u = (hi - lo)/lo the exponent (hi log hi - lo log lo)/(hi - lo) - 1
    is exactly log hi + 2y/u - 1, and 2y/u = log1p(u)/u lies in (0, 1).  So
    I = hi e^(2y/u - 1) with an exponent in (-1, 0); u = inf gives hi/e.
    """
    pair = _pair(a, b, pair)
    with np.errstate(all="ignore"):
        u = pair.hi - pair.lo
        u /= pair.lo
        e = 2.0 * pair.y
        e /= u
        e -= 1.0
        m = np.exp(e)
    m *= pair.hi
    return _ret(_on_diagonal(pair, m), pair.scalar)


def seiffert(a, b, *, pair=None):
    """P = (a - b)/(2 arcsin t) = (hi - lo)/(2x)."""
    pair = _pair(a, b, pair)
    return _ret(_half_slope(pair, pair.x), pair.scalar)


def x_mean(a, b, *, pair=None):
    """X = A e^(x cot x - 1)."""
    pair = _pair(a, b, pair)
    m = np.exp(pair.xc)
    m *= _sum_safe(_mid, 1, pair.hi, pair.lo)
    return _ret(m, pair.scalar)


def y_mean(a, b, *, pair=None):
    """Y = G e^(tanh(y)/y - 1)."""
    pair = _pair(a, b, pair)
    m = np.exp(_log_y_over_g(pair))
    m *= pair.g
    return _ret(_on_diagonal(pair, m), pair.scalar)


#: (weight, asymptote, p -> 0 divisor) of the power-type means; see
#: _power_exponent.
_POWER_TYPE = {"Mp": (2.0, math.log(2.0), 2.0), "Hp": (4.0 / 3.0, math.log(3.0), 3.0)}


def _wide(y, p):
    """Where |p y| > 700, past which sinh(p y/2) overflows, at the points of
    a Pair's y, or None where no point is: with one order the rounded |p| y
    rises with y, so the largest y tells, as on most grids, for less than
    the mask costs.  A product p y that overflows is wide."""
    top = y.max(initial=0.0) if isinstance(y, np.ndarray) else y
    if p.ndim or abs(float(p)) * float(top) > 700.0:  # Python floats overflow silently
        with np.errstate(over="ignore"):
            return np.abs(p * y) > 700.0
    return None


def _power_exponent(y, p, weight, asymptote, divisor):
    """log(M/G) = log1p(weight sinh(p y/2)^2)/p of a power-type mean at the
    points of a Pair's y: weight 2 gives M_p, 4/3 the Heronian H_p.  Past
    |p y| = 700, where sinh overflows, it is copysign(y, p) - asymptote/p,
    which cannot overflow; as p -> 0 it is p y^2/divisor.  Each step is
    elementwise, so a point's value does not depend on the others."""
    p = np.asarray(p, dtype=float)[()]  # a 0-d p as a numpy scalar, passed whole
    if p.ndim:
        p, y = np.broadcast_arrays(p, y)
    elif abs(p) < POWER_LIMIT_THRESHOLD:
        return p * y * y / divisor
    with np.errstate(all="ignore"):
        # (p/2) y is (p y)/2 exactly except where p y overflows or |p| is
        # below POWER_LIMIT_THRESHOLD, points that are replaced below.
        # s * s, not s ** 2: on an array ** 2 is this product, but on a
        # scalar it calls pow, which can differ from it in the last bit
        s = np.sinh(0.5 * p * y)
        s *= s
        s *= weight
        out = np.log1p(s)
        out /= p
    wide = _wide(y, p)
    if wide is not None:
        out = _piecewise(wide, out, lambda y, p: np.copysign(y, p) - asymptote / p, y, p)
    if p.ndim:
        out = _piecewise(
            np.abs(p) < POWER_LIMIT_THRESHOLD, out, lambda p, y: p * y * y / divisor, p, y
        )
    return out


def _power_type_mean(tag, p, a, b, *, pair=None):
    pair = _pair(a, b, pair)
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        name = "power mean" if tag == "Mp" else "Heronian"
        raise DomainError(f"{name} exponent must be finite")
    expo, anchor = _power_exponent(pair.y, p, *_POWER_TYPE[tag]), pair.g
    # where e^E overflows or G is subnormal, M = G e^E is hi e^(E - y): G = hi e^(-y).
    # The extremes tell whether any point is far, for less than the mask costs.
    top = expo.max(initial=-math.inf) if isinstance(expo, np.ndarray) else expo
    low = anchor.min(initial=math.inf) if isinstance(anchor, np.ndarray) else anchor
    if top > _LOG_MAX or low < _TINY:
        far = (expo > _LOG_MAX) | (anchor < _TINY)
        expo, anchor = np.where(far, expo - pair.y, expo), np.where(far, pair.hi, anchor)
    # past |p y| = 700, M is the end it tends to, hi for p > 0 and lo for
    # p < 0, times e^(-asymptote/p): for M_p, log(M/hi) is
    # (log1p(e^(-2 p y)) - log 2)/p, and e^(-1400) is far below an ulp
    wide = _wide(pair.y, p[()])
    if wide is not None:
        with np.errstate(divide="ignore"):  # p = 0 in an array of orders
            expo = np.where(wide, -_POWER_TYPE[tag][1] / p, expo)
        anchor = np.where(wide, np.where(p > 0.0, pair.hi, pair.lo), anchor)
    m = np.exp(expo)
    m *= anchor
    # M lies in [lo, hi], but within an ulp or two of an end the roundings
    # of G and e^E can step past it
    if isinstance(m, np.ndarray):
        np.minimum(np.maximum(m, pair.lo, out=m), pair.hi, out=m)
    elif m > pair.hi:  # np.clip costs microseconds on a scalar
        m = pair.hi
    elif m < pair.lo:
        m = pair.lo
    return _ret(_on_diagonal(pair, m), pair.scalar and not p.ndim)


def power_mean(a, b, p, *, pair=None):
    """M_p = ((a^p + b^p)/2)^(1/p), with M_0 = G and a stable p ~ 0 limit."""
    return _power_type_mean("Mp", p, a, b, pair=pair)


def power_mean_exponent(y, p):
    """log(M_p/G) at the points of a Pair's y = log(hi/lo)/2, for a finite
    scalar p: the exponent that power_mean raises, with the same bits (0
    where y == 0, where M_p is hi itself)."""
    return _power_exponent(y, p, *_POWER_TYPE["Mp"])


def heronian_mean(a, b, p, *, pair=None):
    """H_p = ((a^p + (ab)^(p/2) + b^p)/3)^(1/p), H_0 = G."""
    return _power_type_mean("Hp", p, a, b, pair=pair)


# ---------------------------------------------------------------------------
# Log offsets u = log(M/A), with full relative accuracy even where they are
# O(t^2), and finite however far M falls below A.  Vanishing differences of
# means like G - Y and log(X/A) are functions of u1 - u2 (see expressions).
# ---------------------------------------------------------------------------


def log_over_arithmetic(kind: "MeanKind", a, b, *, pair=None):
    """u = log(M/A) elementwise, accurate in relative terms for every t."""
    pair = _pair(a, b, pair)
    tag = kind.tag
    # + copies a quantity of the pair, which is shared and may be read-only
    if tag == "A":
        u = 0.0 * pair.hi
    elif tag == "G":
        u = +pair.log_g
    elif tag == "H":  # H/A = (G/A)^2
        u = 2.0 * pair.log_g
    elif tag == "P":  # P/A = sin(x)/x
        u = -np.log1p(series.xoversin_minus_one(pair.x))
    elif tag == "X":
        u = +pair.xc
    elif tag == "L":  # L/A = 1/(1 + w)
        u = -np.log1p(pair.w)
    elif tag == "Y":
        u = _log_y_over_g(pair) + pair.log_g
    elif tag == "I":
        u = pair.w + pair.log_g
    elif tag in _POWER_TYPE:
        u = _power_exponent(pair.y, kind.exponent, *_POWER_TYPE[tag]) + pair.log_g
    else:  # pragma: no cover
        raise DomainError(f"unknown mean kind {kind!r}")
    return _ret(u, pair.scalar)


_PLAIN_TAGS = ("A", "G", "H", "L", "I", "P", "X", "Y")


@dataclass(frozen=True)
class MeanKind:
    """A mean selector: one of the eight named kinds or Mp[p] / Hp[p]."""

    tag: str
    exponent: float | None = None

    def __post_init__(self):
        if self.tag in _PLAIN_TAGS:
            if self.exponent is not None:
                raise DomainError(f"{self.tag} takes no exponent")
        elif self.tag in ("Mp", "Hp"):
            e = self.exponent
            if e is None or not math.isfinite(e):
                raise DomainError(f"{self.tag} needs a finite exponent")
        else:
            raise DomainError(f"unknown mean tag {self.tag!r}")

    @classmethod
    def power(cls, p: float) -> "MeanKind":
        return cls("Mp", float(p))

    @classmethod
    def heronian(cls, p: float) -> "MeanKind":
        return cls("Hp", float(p))

    def label(self) -> str:
        if self.exponent is None:
            return self.tag
        return f"{self.tag}[{self.exponent!r}]"


PLAIN_KINDS = {tag: MeanKind(tag) for tag in _PLAIN_TAGS}

#: The plain means' kernels.
_KERNELS = {
    "A": arithmetic,
    "G": geometric,
    "H": harmonic,
    "L": logarithmic,
    "I": identric,
    "P": seiffert,
    "X": x_mean,
    "Y": y_mean,
}


def mean_kernel(kind: MeanKind):
    """Two-argument array function implementing the kind; it takes the
    prepared ``Pair(a, b)`` as the keyword ``pair`` too."""
    if kind.tag in _POWER_TYPE:
        return partial(_power_type_mean, kind.tag, kind.exponent)
    return _KERNELS[kind.tag]
