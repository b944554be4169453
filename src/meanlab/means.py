"""The ten bivariate means, evaluated without catastrophic cancellation.

Two layers live here:

* array kernels (``arithmetic`` .. ``heronian_mean``) that accept floats or
  numpy arrays elementwise and are total on a == b via continuity limits;
* a typed scalar facade (:class:`PositivePair`, :class:`MeanKind`,
  :func:`eval_mean`, :func:`eval_all`, :func:`param_point`).

A kernel's pairs are validated and canonicalized to hi >= lo once, in a
:class:`Pair`, so symmetry is exact.  Kernels called on the same pairs can
share one through ``pair=``, and with it the quantities they all read.  With
t = (hi - lo)/(hi + lo) the trigonometric parametrization is x = arcsin(t),
the hyperbolic one y = artanh(t) = log(hi/lo)/2, and

    P = A sin(x)/x     G = A cos(x)      H = A cos(x)^2    X = A e^(x cot x - 1)
    L = G sinh(y)/y    L = A tanh(y)/y   H = G / cosh(y)   Y = G e^(tanh(y)/y - 1)
    log(I/G) = A/L - 1

Direct closed forms are used where they are stable; below ``SERIES_T_THRESHOLD``
the removable-singularity routes switch to truncated series.  A series or
overflow branch is evaluated only on the points that take it; a scalar pair
takes it whole.  A grid kernel given ``out=`` computes its steps in that array
and returns it, so a caller that reuses its arrays (a grid stage's workspace)
allocates only the kernel's few temporaries per call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import series
from .errors import DegeneratePairError, DomainError

#: |t| below which L, P, X, Y switch to their series fallbacks.  Direct
#: formulas keep roughly 8 fewer digits there; four series terms already
#: restore full double precision.
SERIES_T_THRESHOLD = 1e-4

#: |p| below which the power-type means use the log-space p -> 0 limit.
POWER_LIMIT_THRESHOLD = 1e-8

_TINY = np.finfo(float).tiny

#: hi + lo can overflow only where hi exceeds this.
_HALF_MAX = np.finfo(float).max / 2


#: The operator form of each ufunc that _into calls without an output.
_OPERATORS = {
    np.add: operator.add,
    np.subtract: operator.sub,
    np.multiply: operator.mul,
    np.divide: operator.truediv,
    np.negative: operator.neg,
    np.positive: operator.pos,
}


def _into(out, ufunc, *args):
    """ufunc(*args), written into out when one is given (a grid's reused
    buffer).  Without one it is the operator form and passes no out keyword:
    on numpy scalars a ufunc call costs some 20 times the operator, and an
    out=None keyword alone about triples the cost of np.exp."""
    if out is None:
        return _OPERATORS.get(ufunc, ufunc)(*args)
    return ufunc(*args, out=out)


def _piecewise(mask, out, fn, *args):
    """out with fn(*(arg[mask] for arg in args)) written at the masked
    points; fn runs on those points only, and not at all if there are none.
    Scalar args pass whole.  A 0-d mask (a scalar pair) takes one branch
    whole: it returns fn(*args) or out, with no gather or scatter.  The
    caller must use the returned value, since a scalar cannot be written in
    place."""
    if not np.ndim(mask):
        if not mask:
            return out
        with np.errstate(all="ignore"):
            return fn(*args)
    idx = np.flatnonzero(mask)
    if idx.size:
        with np.errstate(all="ignore"):
            np.put(out, idx, fn(*(arg.take(idx) if np.ndim(arg) else arg for arg in args)))
    return out


def _sum_safe(fn, degree, out, hi, *args):
    """fn(hi, *args, out), a formula homogeneous of the given degree in its
    arguments (hi and other quantities of degree 1, none above hi) whose only
    overflow is a sum such as hi + lo.  Where hi > max/2, where that sum can
    overflow, it is 2^degree fn of the halved arguments: halving such hi is
    exact, and the other arguments lose a bit only far below hi's last one.
    A scalar compares before it sums, so it enters no errstate; a grid sums
    everywhere with warnings off, then redoes its wide points."""
    if not isinstance(hi, np.ndarray):
        if hi <= _HALF_MAX:
            return fn(hi, *args, out)
        return _halved(fn, degree, hi, *args)
    with np.errstate(all="ignore"):
        out = fn(hi, *args, out)
    return _piecewise(hi > _HALF_MAX, out, partial(_halved, fn, degree), hi, *args)


def _halved(fn, degree, *args):
    return fn(*(0.5 * v for v in args), None) * 2.0**degree


# The formulas _sum_safe guards: t, A, lo/(hi + lo) and cos x = G/A.
def _t(hi, lo, out):
    return _into(out, np.divide, hi - lo, hi + lo)


def _mid(hi, lo, out):
    return _into(out, np.multiply, _into(out, np.add, hi, lo), 0.5)


def _lo_share(hi, lo, out):
    return _into(out, np.divide, lo, hi + lo)


def _cos_x(hi, lo, g, out):
    return _into(out, np.divide, _into(out, np.multiply, 2.0, g), hi + lo)


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

    ``alloc``, for array pairs: a function returning a fresh float64 buffer
    of the pairs' shape, into which the pair writes hi, lo and every cached
    quantity but ``eq``; the caller owns those buffers."""

    _alloc = None

    def __init__(self, a, b, alloc=None):
        self.scalar = np.ndim(a) == 0 and np.ndim(b) == 0
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
        self._alloc = alloc
        self.hi = np.maximum(aa, bb, out=alloc and alloc())
        self.lo = np.minimum(aa, bb, out=alloc and alloc())

    @_cached
    def eq(self):
        """The points with hi == lo, where every mean is hi."""
        return self.hi == self.lo

    @_cached
    def t(self):
        """t = (hi - lo)/(hi + lo), in [0, 1]."""
        return _sum_safe(_t, 0, self._alloc and self._alloc(), self.hi, self.lo)

    @_cached
    def g(self):
        """sqrt(hi)*sqrt(lo): the geometric mean, except where hi == lo."""
        return _into(self._alloc and self._alloc(), np.multiply, np.sqrt(self.hi), np.sqrt(self.lo))

    @_cached
    def y(self):
        """y = artanh(t) = log(hi/lo)/2 at full relative accuracy for any
        ratio; unlike arctanh(t) it stays accurate when t is within a few
        ulp of 1."""
        hi, lo = self.hi, self.lo
        out = self._alloc and self._alloc()
        with np.errstate(all="ignore"):
            u = (hi - lo) / lo
            log_ratio = _into(out, np.log1p, u)
        # past u = 1e15 log1p gains nothing, and u itself may overflow
        log_ratio = _piecewise(
            u >= 1e15, log_ratio, lambda hi, lo: np.log(hi) - np.log(lo), hi, lo
        )
        return _into(out, np.multiply, 0.5, log_ratio)

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
            half_angle = 2.0 * np.arcsin(np.sqrt(_sum_safe(_lo_share, 0, None, hi, lo)))
            x = _into(self._alloc and self._alloc(), np.subtract, 0.5 * math.pi, half_angle)
        return _piecewise(self.t <= 0.9, x, np.arcsin, self.t)


def _pair(a, b, pair):
    return Pair(a, b) if pair is None else pair


def _on_diagonal(pair, out):
    """out with hi written where hi == lo."""
    if pair.scalar:  # out is 0-d, or a row of power-mean orders
        return np.full_like(out, pair.hi) if pair.eq else out
    np.copyto(out, pair.hi, where=pair.eq)
    return out


def _ret(out, scalar):
    return float(out) if scalar else out


def arithmetic(a, b, *, pair=None, out=None):
    pair = _pair(a, b, pair)
    return _ret(_sum_safe(_mid, 1, out, pair.hi, pair.lo), pair.scalar)


def geometric(a, b, *, pair=None, out=None):
    pair = _pair(a, b, pair)
    return _ret(_on_diagonal(pair, _into(out, np.positive, pair.g)), pair.scalar)


def harmonic(a, b, *, pair=None, out=None):
    """H = 2 (lo/(hi + lo)) hi; 2 (lo/(1 + lo/hi)) where lo/(hi + lo) is not
    a normal double (hi + lo overflows, or lo is that small next to hi)."""
    pair = _pair(a, b, pair)
    with np.errstate(over="ignore"):
        out = _into(out, np.divide, pair.lo, _into(out, np.add, pair.hi, pair.lo))
    tiny = out < _TINY
    out *= 2.0
    out *= pair.hi
    out = _piecewise(tiny, out, lambda lo, hi: 2.0 * (lo / (1.0 + lo / hi)), pair.lo, pair.hi)
    return _ret(out, pair.scalar)


def _small(pair):
    return pair.t < SERIES_T_THRESHOLD


def logarithmic(a, b, *, pair=None, out=None):
    """L = (a - b)/log(a/b); series route G sinh(y)/y below the threshold."""
    pair = _pair(a, b, pair)
    with np.errstate(all="ignore"):
        out = _into(out, np.divide, pair.hi - pair.lo, _into(out, np.multiply, 2.0, pair.y))
    out = _piecewise(
        _small(pair), out, lambda g, y: g * series.sinh_over_y(y, terms=6), pair.g, pair.y
    )
    return _ret(_on_diagonal(pair, out), pair.scalar)


def logarithmic_direct(a, b):
    """Pure closed-form route, no series branch (a == b still returns a)."""
    pair = Pair(a, b)
    with np.errstate(all="ignore"):
        out = (pair.hi - pair.lo) / (2.0 * pair.y)
    return _ret(_on_diagonal(pair, out), pair.scalar)


def logarithmic_param(a, b):
    """Hyperbolic route G sinh(y)/y, series below the threshold."""
    pair = Pair(a, b)
    with np.errstate(all="ignore"):
        ratio = np.sinh(pair.y) / pair.y
    ratio = _piecewise(_small(pair), ratio, lambda y: series.sinh_over_y(y, terms=6), pair.y)
    return _ret(pair.g * ratio, pair.scalar)


def identric(a, b, *, pair=None, out=None):
    """I = (1/e)(a^a/b^b)^(1/(a-b)), via the cancellation-free u-form.

    With u = (a-b)/b the exponent (a log a - b log b)/(a - b) - 1 rewrites
    exactly to log b + (1+u) log1p(u)/u - 1, which is stable for all u > 0.
    """
    pair = _pair(a, b, pair)
    hi, lo = pair.hi, pair.lo
    with np.errstate(all="ignore"):
        u = hi - lo
        u /= lo
        # log1p(u) = 2y exactly while u < 1e15: the exponent is
        # (1 + u)(2y)/u - 1
        e = _into(out, np.add, 1.0, u)
        e *= 2.0 * pair.y
        e /= u
        e -= 1.0
        out = _into(out, np.exp, e)
        out *= lo
    # for astronomically large ratios (1+u) overflows; anchored at hi the
    # exponent lo log(hi/lo)/(hi - lo) - 1 stays near -1, where exp does not
    # amplify its rounding, and 2y = log(hi) - log(lo) there
    out = _piecewise(
        u >= 1e15,
        out,
        lambda hi, lo, y: hi * np.exp(lo * (2.0 * y) / (hi - lo) - 1.0),
        hi,
        lo,
        pair.y,
    )
    return _ret(_on_diagonal(pair, out), pair.scalar)


identric_direct = identric


def identric_param(a, b):
    """Identity route log(I/G) = A/L - 1."""
    pair = Pair(a, b)
    ratio = arithmetic(a, b, pair=pair) / logarithmic(a, b, pair=pair)
    return _ret(pair.g * np.exp(ratio - 1.0), pair.scalar)


def seiffert(a, b, *, pair=None, out=None):
    """P = (a - b)/(2 arcsin t); series route below the threshold."""
    pair = _pair(a, b, pair)
    with np.errstate(all="ignore"):
        out = _into(out, np.divide, pair.hi - pair.lo, _into(out, np.multiply, 2.0, pair.x))
    out = _piecewise(
        _small(pair),
        out,
        lambda hi, lo, x: (
            _sum_safe(_mid, 1, None, hi, lo) / (1.0 + series.xoversin_minus_one(x, terms=6))
        ),
        pair.hi,
        pair.lo,
        pair.x,
    )
    return _ret(out, pair.scalar)


def seiffert_direct(a, b):
    pair = Pair(a, b)
    with np.errstate(all="ignore"):
        out = (pair.hi - pair.lo) / (2.0 * pair.x)
    return _ret(_on_diagonal(pair, out), pair.scalar)


def seiffert_param(a, b):
    """Series route P = A / (x/sin x) on the whole domain."""
    pair = Pair(a, b)
    return _ret(0.5 * (pair.hi + pair.lo) / (1.0 + series.xoversin_minus_one(pair.x)), pair.scalar)


def x_mean(a, b, *, pair=None, out=None):
    """X = A e^(x cot x - 1); exponent by series below the threshold.

    Above it x cot x - 1 = arcsin(t) (G/A) / t - 1, which keeps cos(x) = G/A
    exact as t -> 1."""
    pair = _pair(a, b, pair)
    w = _sum_safe(_cos_x, 0, out, pair.hi, pair.lo, pair.g)
    with np.errstate(all="ignore"):
        w *= pair.x
        w /= pair.t
        w -= 1.0
    w = _piecewise(_small(pair), w, lambda x: series.xcotx_minus_one(x, terms=6), pair.x)
    out = _into(out, np.exp, w)
    out *= _sum_safe(_mid, 1, None, pair.hi, pair.lo)
    return _ret(out, pair.scalar)


x_mean_param = x_mean


def x_mean_direct(a, b):
    """Defining route X = A e^(G/P - 1)."""
    pair = Pair(a, b)
    p = seiffert(a, b, pair=pair)
    return _ret(0.5 * (pair.hi + pair.lo) * np.exp(pair.g / p - 1.0), pair.scalar)


def y_mean(a, b, *, pair=None, out=None):
    """Y = G e^(tanh(y)/y - 1); exponent by series below the threshold."""
    pair = _pair(a, b, pair)
    with np.errstate(all="ignore"):
        w = _into(out, np.tanh, pair.y)
        w /= pair.y
        w -= 1.0
    w = _piecewise(_small(pair), w, lambda y: series.tanh_over_y_minus_one(y, terms=6), pair.y)
    out = _into(out, np.exp, w)
    out *= pair.g
    return _ret(_on_diagonal(pair, out), pair.scalar)


def y_mean_direct(a, b):
    """Defining route Y = G e^(L/A - 1)."""
    pair = Pair(a, b)
    ratio = logarithmic(a, b, pair=pair) / arithmetic(a, b, pair=pair)
    return _ret(pair.g * np.exp(ratio - 1.0), pair.scalar)


#: (weight, asymptote, p -> 0 divisor) of the power-type means; see
#: _power_exponent.
_POWER_TYPE = {"Mp": (2.0, math.log(2.0), 2.0), "Hp": (4.0 / 3.0, math.log(3.0), 3.0)}


def _power_exponent(pair, p, weight, asymptote, divisor, out=None):
    """log(M/G) = log1p(weight sinh(p y/2)^2)/p of a power-type mean: weight
    2 gives M_p, 4/3 the Heronian H_p.  Past |p y| = 700, where sinh
    overflows, it is (|p y| - asymptote)/p; as p -> 0 it is p y^2/divisor.
    Each step after p y is written into out, when one is given."""
    y = pair.y
    p = np.asarray(p, dtype=float)
    if p.ndim:
        p, y = np.broadcast_arrays(p, y)
    elif abs(p) < POWER_LIMIT_THRESHOLD:
        return p * y * y / divisor
    v = p * y
    with np.errstate(all="ignore"):
        # s * s, not s ** 2: on an array ** 2 is this product, but on a
        # scalar it calls pow, which can differ from it in the last bit
        s = _into(out, np.sinh, _into(out, np.multiply, 0.5, v))
        s *= s
        s *= weight
        out = _into(out, np.log1p, s)
        out /= p
    out = _piecewise(np.abs(v) > 700.0, out, lambda v, p: (np.abs(v) - asymptote) / p, v, p)
    if p.ndim:
        out = _piecewise(
            np.abs(p) < POWER_LIMIT_THRESHOLD, out, lambda p, y: p * y * y / divisor, p, y
        )
    return out


def _power_type_mean(tag, a, b, p, pair, out):
    pair = _pair(a, b, pair)
    if not np.isfinite(np.asarray(p, dtype=float)).all():
        name = "power mean" if tag == "Mp" else "Heronian"
        raise DomainError(f"{name} exponent must be finite")
    out = _into(out, np.exp, _power_exponent(pair, p, *_POWER_TYPE[tag], out))
    out *= pair.g
    return _ret(_on_diagonal(pair, out), pair.scalar and np.ndim(p) == 0)


def power_mean(a, b, p, *, pair=None, out=None):
    """M_p = ((a^p + b^p)/2)^(1/p), with M_0 = G and a stable p ~ 0 limit."""
    return _power_type_mean("Mp", a, b, p, pair, out)


def heronian_mean(a, b, p, *, pair=None, out=None):
    """H_p = ((a^p + (ab)^(p/2) + b^p)/3)^(1/p), H_0 = G."""
    return _power_type_mean("Hp", a, b, p, pair, out)


# ---------------------------------------------------------------------------
# Relative-to-A kernels: rel(M) = M/A - 1 computed with full relative
# accuracy even when it is O(t^2).  These power the stable evaluation of
# vanishing mean differences like (G - Y)/(A - L) and log(X/A).
# ---------------------------------------------------------------------------

#: y below which the relative kernels of L, Y and I use their series; above
#: it the direct transcendentals are as accurate.
_REL_DIRECT_CUTOFF = 0.1


def _rel_geometric(t, out=None):
    """G/A - 1 = -t^2/(1 + sqrt(1 - t^2))."""
    t2 = t * t
    d = _into(out, np.sqrt, _into(out, np.subtract, 1.0, t2))
    d += 1.0
    return _into(out, np.divide, -t2, d)


def _log_geometric_over_arithmetic(pair):
    """log(G/A) = -log(cosh y).  log1p(G/A - 1) loses the digits of G/A as
    t -> 1, and from a ratio of about 1e16 it is log1p(-1); past y = 1 the
    form -(y - log 2 + log1p(e^(-2y))) keeps them."""
    with np.errstate(all="ignore"):
        out = np.log1p(_rel_geometric(pair.t))
    return _piecewise(
        pair.y > 1.0, out, lambda y: -(y - math.log(2.0) + np.log1p(np.exp(-2.0 * y))), pair.y
    )


def _rel_logarithmic(y, out=None):
    with np.errstate(all="ignore"):
        out = _into(out, np.tanh, y)
        out /= y
        out -= 1.0
    return _piecewise(
        y < _REL_DIRECT_CUTOFF, out, lambda v: series.tanh_over_y_minus_one(v, terms=10), y
    )


def _rel_identric_exponent(y, out=None):
    # A/L - 1 = y coth y - 1
    with np.errstate(all="ignore"):
        out = _into(out, np.divide, y, _into(out, np.tanh, y))
        out -= 1.0
    return _piecewise(
        y < _REL_DIRECT_CUTOFF, out, lambda v: series.ycothy_minus_one(v, terms=10), y
    )


def rel_to_arithmetic(kind: "MeanKind", a, b, *, pair=None, out=None):
    """(M/A) - 1 elementwise, accurate in relative terms for every t; on a
    grid given ``out=``, written there and returned."""
    pair = _pair(a, b, pair)
    tag = kind.tag
    if tag == "A":
        if out is None:
            out = np.zeros_like(pair.hi)
        else:
            out.fill(0.0)
    elif tag == "G":
        out = _rel_geometric(pair.t, out)
    elif tag == "H":
        out = _into(out, np.negative, _into(out, np.multiply, pair.t, pair.t))
    elif tag == "P":
        sser = series.xoversin_minus_one(pair.x)
        out = _into(out, np.divide, -sser, _into(out, np.add, 1.0, sser))
    elif tag == "X":
        out = _into(out, np.expm1, series.xcotx_minus_one(pair.x))
    elif tag == "L":
        out = _rel_logarithmic(pair.y, out)
    elif tag in ("Y", "I"):
        # rg + e + rg e, with e = expm1(the exponent of M/G)
        exponent = _rel_logarithmic if tag == "Y" else _rel_identric_exponent
        e = _into(out, np.expm1, exponent(pair.y, out))
        rg = _rel_geometric(pair.t)
        rg_e = rg * e
        out = _into(out, np.add, rg, e)
        out += rg_e
    elif tag in _POWER_TYPE:
        expo = _power_exponent(pair, kind.exponent, *_POWER_TYPE[tag], out)
        out = _into(out, np.expm1, _into(out, np.add, _log_geometric_over_arithmetic(pair), expo))
    else:  # pragma: no cover
        raise DomainError(f"unknown mean kind {kind!r}")
    return _ret(out, pair.scalar)


# ---------------------------------------------------------------------------
# Typed facade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositivePair:
    """An unordered pair of positive reals; the argument of every mean."""

    a: float
    b: float

    def __post_init__(self):
        for v in (self.a, self.b):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"pair entries must be positive finite reals, got {v!r}")

    @property
    def t(self) -> float:
        """(a - b)/(a + b), signed; always in (-1, 1)."""
        return (self.a - self.b) / (self.a + self.b)


@dataclass(frozen=True)
class ParamPoint:
    """Trigonometric/hyperbolic coordinates of a pair with a != b."""

    x: float  # arcsin(t) in (0, pi/2)
    y: float  # artanh(t) = log(a/b)/2 > 0


def param_point(pair: PositivePair) -> ParamPoint:
    """Coordinates satisfying cos(x) = G/A and cosh(y) = A/G exactly."""
    if pair.a == pair.b:
        raise DegeneratePairError("x, y are undefined at a == b; use continuity limits")
    hi, lo = max(pair.a, pair.b), min(pair.a, pair.b)
    t = (hi - lo) / (hi + lo)
    if t > 0.9:
        x = 0.5 * math.pi - 2.0 * math.asin(math.sqrt(lo / (hi + lo)))
    else:
        x = math.asin(t)
    return ParamPoint(x=x, y=0.5 * math.log1p((hi - lo) / lo))


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

#: The plain means' kernels, in the order of MeanVector's fields.
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
    prepared ``Pair(a, b)`` as the keyword ``pair`` too, and an array to
    write its result into as ``out``."""
    if kind.tag == "Mp":
        return lambda a, b, *, pair=None, out=None: power_mean(
            a, b, kind.exponent, pair=pair, out=out
        )
    if kind.tag == "Hp":
        return lambda a, b, *, pair=None, out=None: heronian_mean(
            a, b, kind.exponent, pair=pair, out=out
        )
    return _KERNELS[kind.tag]


def eval_mean(kind: MeanKind, pair: PositivePair) -> float:
    return float(mean_kernel(kind)(pair.a, pair.b))


@dataclass(frozen=True)
class MeanVector:
    """All eight named means of one pair plus its parametrization."""

    pair: PositivePair
    point: ParamPoint | None
    arithmetic: float
    geometric: float
    harmonic: float
    logarithmic: float
    identric: float
    seiffert: float
    x_mean: float
    y_mean: float

    def as_dict(self) -> dict[str, float]:
        means = fields(self)[2:]  # in the order of _KERNELS
        return {tag: getattr(self, f.name) for tag, f in zip(_KERNELS, means)}


def eval_all(pair: PositivePair) -> MeanVector:
    point = None if pair.a == pair.b else param_point(pair)
    shared = Pair(pair.a, pair.b)
    return MeanVector(pair, point, *(fn(pair.a, pair.b, pair=shared) for fn in _KERNELS.values()))
