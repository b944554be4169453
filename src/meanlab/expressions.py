"""Expression trees over mean symbols, with a parser and a grid evaluator.

Grammar (usual precedence, ^ binds tightest and right-associates):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-' unary | primary
    primary := NUMBER | 'e' | 'pi'
             | MEAN | MEAN '(' expr ',' expr ')'
             | ('Mp'|'Hp') '[' NUMBER ']' [ '(' expr ',' expr ')' ]
             | ('exp'|'log'|'sqrt') '(' expr ')'
             | '(' expr ')'
    MEAN    := 'A'|'G'|'H'|'L'|'I'|'P'|'X'|'Y'

A tree is walked by one :func:`fold`, whose algebra gives a node's text,
the means it reads, or its value: elementwise over numpy arrays of pairs in
the float algebra of a :class:`GridContext`, which caches the grid's means.
Subtrees of the shapes M1 - M2, log(M1/M2), 1 - M1/M2 and M1/M2 - 1 (mean
leaves only) are computed from d = log(M1/M2) = u1 - u2, the difference of
the means' log offsets u = log(M/A), so differences that vanish at a == b
keep full relative accuracy instead of dissolving into rounding noise, and
stay finite however far the means fall below A.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Union

import numpy as np

from . import means
from .errors import EvalError, ParseError
from .means import MeanKind


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # "e" | "pi"


@dataclass(frozen=True)
class MeanSymbol:
    kind: MeanKind


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    lhs: "MeanExpr"
    rhs: "MeanExpr"


@dataclass(frozen=True)
class Call:
    fn: str  # exp | log | sqrt
    arg: "MeanExpr"


@dataclass(frozen=True)
class MeanCall:
    kind: MeanKind
    lhs: "MeanExpr"
    rhs: "MeanExpr"


MeanExpr = Union[Num, Const, MeanSymbol, BinOp, Call, MeanCall]

_CONSTANTS = {"e": math.e, "pi": math.pi}
_FUNCTIONS = ("exp", "log", "sqrt")
_MEAN_NAMES = set(means.PLAIN_KINDS)
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()\[\],]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self):
        return self.tokens[self.i]

    def _next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, value: str):
        kind, text, pos = self._next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def parse(self) -> MeanExpr:
        node = self.expr()
        kind, text, pos = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self) -> MeanExpr:
        node = self.term()
        while self._peek()[1] in ("+", "-"):
            op = self._next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> MeanExpr:
        node = self.factor()
        while self._peek()[1] in ("*", "/"):
            op = self._next()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> MeanExpr:
        node = self.unary()
        if self._peek()[1] == "^":
            self._next()
            node = BinOp("^", node, self.factor())  # right associative
        return node

    def unary(self) -> MeanExpr:
        if self._peek()[1] == "-":
            pos = self._next()[2]
            child = self.unary()
            return BinOp("-", Num(0.0), child) if not isinstance(child, Num) else Num(
                -child.value
            )
        return self.primary()

    def _bracket_number(self) -> float:
        self._expect("[")
        sign = 1.0
        if self._peek()[1] == "-":
            self._next()
            sign = -1.0
        kind, text, pos = self._next()
        if kind != "num":
            raise ParseError("expected a numeric exponent inside [..]", pos)
        self._expect("]")
        return sign * float(text)

    def _mean_args(self):
        self._expect("(")
        lhs = self.expr()
        self._expect(",")
        rhs = self.expr()
        self._expect(")")
        return lhs, rhs

    def primary(self) -> MeanExpr:
        kind, text, pos = self._next()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text in _CONSTANTS:
                return Const(text)
            if text in _FUNCTIONS:
                self._expect("(")
                arg = self.expr()
                self._expect(")")
                return Call(text, arg)
            if text in _MEAN_NAMES:
                mk = means.PLAIN_KINDS[text]
                if self._peek()[1] == "(":
                    return MeanCall(mk, *self._mean_args())
                return MeanSymbol(mk)
            if text in ("Mp", "Hp"):
                expo = self._bracket_number()
                mk = MeanKind.power(expo) if text == "Mp" else MeanKind.heronian(expo)
                if self._peek()[1] == "(":
                    return MeanCall(mk, *self._mean_args())
                return MeanSymbol(mk)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if text == "(":
            node = self.expr()
            self._expect(")")
            return node
        raise ParseError(f"unexpected token {text or 'end of input'!r}", pos)


@functools.lru_cache(maxsize=1024)
def parse_expr(text: str) -> MeanExpr:
    """Parse expression text; raises ParseError with a byte offset.

    Each text is parsed once: the tree is cached (the last 1024 texts) and
    the same object is returned again, which is safe because every node is
    a frozen dataclass.  A text that fails to parse is not cached, so it
    raises afresh on every call."""
    return _Parser(text).parse()


def fold(node: MeanExpr, algebra):
    """node's value in algebra, folding each node's children left to right.

    Leaves call ``num(value)``, ``const(name)`` and ``mean(kind)``, inner
    nodes ``call(node, x)``, ``nested(node, u, v)`` and ``binop(node, l, r)``.
    An algebra with ``offset_form(node, form, kind1, kind2)`` gets each match
    of :func:`_offset_form` whole, with no child folded."""
    if isinstance(node, Num):
        return algebra.num(node.value)
    if isinstance(node, Const):
        return algebra.const(node.name)
    if isinstance(node, MeanSymbol):
        return algebra.mean(node.kind)
    log_or_minus = getattr(node, "fn", None) == "log" or getattr(node, "op", None) == "-"
    form = _offset_form(node) if log_or_minus and hasattr(algebra, "offset_form") else None
    if form is not None:
        return algebra.offset_form(node, *form)
    if isinstance(node, Call):
        return algebra.call(node, fold(node.arg, algebra))
    if isinstance(node, MeanCall):
        return algebra.nested(node, fold(node.lhs, algebra), fold(node.rhs, algebra))
    if isinstance(node, BinOp):
        return algebra.binop(node, fold(node.lhs, algebra), fold(node.rhs, algebra))
    raise TypeError(f"not an expression node: {node!r}")


_TEXT = SimpleNamespace(
    num=lambda value: repr(value) if value >= 0 else f"({value!r})",
    const=str,
    mean=MeanKind.label,
    call=lambda node, x: f"{node.fn}({x})",
    nested=lambda node, u, v: f"{node.kind.label()}({u}, {v})",
    binop=lambda node, l, r: f"({l} {node.op} {r})",
)


def to_text(expr: MeanExpr) -> str:
    """Round-trippable rendering (fully parenthesized where it matters)."""
    return fold(expr, _TEXT)


class GridContext:
    """One grid of pairs, the float algebra that folds expressions over it,
    and a cache of the grid's means by MeanKind.

    Every expression evaluated on the same context shares the cache, so each
    mean kernel runs once per grid however many expressions use it, and all
    of them read one validated :class:`means.Pair`.  Nothing else is cached:
    a mean of subexpressions (``L(X, A)``) prepares its own pair, and an
    offset form's two log offsets are node results.

    With ``pair``, a prepared ``means.Pair(a, b)`` (:meth:`means.Pair.prepared`),
    the context reads it instead of building its own.
    """

    def __init__(self, a, b, pair: means.Pair | None = None):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self._pair = pair
        self._cache: dict[MeanKind, np.ndarray] = {}

    def forget(self, kinds) -> None:
        """Drop the cached means of these kinds (as from cached_reads); a
        mean read again is computed again."""
        for kind in kinds:
            self._cache.pop(kind, None)

    @property
    def pair(self) -> means.Pair:
        """The grid's pairs, validated and canonicalized once for every
        kernel (on first use, so a grid that no mean reads is not checked)."""
        if self._pair is None:
            self._pair = means.Pair(self.a, self.b)
        return self._pair

    def _kernel(self, kernel, *args):
        """kernel(*args, a, b) of the grid's pairs."""
        got = kernel(*args, self.a, self.b, pair=self.pair)
        # a scalar pair's value is held as a numpy scalar, on which the
        # expression's arithmetic is some 20 times cheaper than on a 0-d array
        return np.float64(got) if isinstance(got, float) else np.asarray(got)

    def _guard(self, node: MeanExpr, values, bad):
        """values, or an EvalError at the first pair where bad holds."""
        if bad.any():
            i = int(np.argmax(bad))
            pair = tuple(float(x.flat[i]) for x in np.broadcast_arrays(self.a, self.b))
            raise EvalError("invalid operand", to_text(node), pair)
        return values

    num = np.float64  # the float algebra's leaves are numpy scalars

    def const(self, name: str):
        return np.float64(_CONSTANTS[name])

    def mean(self, kind: MeanKind):
        got = self._cache.get(kind)  # one hash of kind, a dataclass's
        if got is None:
            got = self._cache[kind] = self._kernel(means.mean_kernel(kind))
        return got

    def call(self, node: Call, x):
        if node.fn == "exp":
            with np.errstate(all="ignore"):
                out = np.exp(x)
            return self._guard(node, out, ~np.isfinite(np.asarray(out)))
        self._guard(node, x, ~(np.asarray(x) > 0.0) if node.fn == "log" else np.asarray(x) < 0.0)
        return getattr(np, node.fn)(x)  # log or sqrt

    def nested(self, node: MeanCall, u, v):
        """The mean of computed operands (as in ``L(X, A)``), which must be
        positive and finite.  Its pair is prepared for this call alone."""
        bad = ~((np.asarray(u) > 0.0) & (np.asarray(v) > 0.0) & np.isfinite(u) & np.isfinite(v))
        self._guard(node, None, bad)
        return np.asarray(means.mean_kernel(node.kind)(u, v))

    def binop(self, node: BinOp, lhs, rhs):
        with np.errstate(all="ignore"):
            out = _BINARY[node.op](lhs, rhs)
        if node.op in ("/", "^"):
            return self._guard(node, out, ~np.isfinite(np.asarray(out)))
        return out

    def offset_form(self, node: MeanExpr, form: str, kind1: MeanKind, kind2: MeanKind):
        """An offset form as a function of d = log(M1/M2) = u1 - u2, from
        the means' log offsets u = log(M/A); a non-finite result raises, as
        a non-finite quotient does."""
        u1, u2 = (self._kernel(means.log_over_arithmetic, kind) for kind in (kind1, kind2))
        d = u1 - u2
        if form == "log":
            out = d
        elif form == "difference":
            out = np.maximum(self.mean(kind1), self.mean(kind2)) * _signed_gap(d)
        else:  # M1/M2 - 1 = expm1(d)
            with np.errstate(all="ignore"):
                out = np.expm1(d)
            if form == "one_minus":
                out = -out
        return self._guard(node, out, ~np.isfinite(np.asarray(out)))

    def evaluate(self, expr: MeanExpr):
        """Evaluate over this context's pairs: a float for a scalar pair,
        otherwise an array of the grid's shape."""
        value = fold(expr, self)
        if self.a.ndim == 0 and self.b.ndim == 0:
            return float(value)
        out = np.asarray(value, dtype=float)
        if out.ndim == 0:  # constant expression over an array grid
            return np.full(np.broadcast(self.a, self.b).shape, float(out))
        return out


def _is_one(node: MeanExpr) -> bool:
    return isinstance(node, Num) and node.value == 1.0


def _mean_ratio(node: MeanExpr):
    if (
        isinstance(node, BinOp)
        and node.op == "/"
        and isinstance(node.lhs, MeanSymbol)
        and isinstance(node.rhs, MeanSymbol)
    ):
        return node.lhs.kind, node.rhs.kind
    return None


def _offset_form(node: MeanExpr):
    """(form, kind1, kind2) when node is computed from its means' log
    offsets: ``log(M1/M2)``, ``M1 - M2``, ``1 - M1/M2`` or ``M1/M2 - 1`` of mean
    symbols.  Else None."""
    if isinstance(node, Call) and node.fn == "log":
        ratio = _mean_ratio(node.arg)
        return None if ratio is None else ("log", *ratio)
    if isinstance(node, BinOp) and node.op == "-":
        if isinstance(node.lhs, MeanSymbol) and isinstance(node.rhs, MeanSymbol):
            return "difference", node.lhs.kind, node.rhs.kind
        ratio = _mean_ratio(node.rhs)
        if _is_one(node.lhs) and ratio is not None:
            return ("one_minus", *ratio)
        ratio = _mean_ratio(node.lhs)
        if ratio is not None and _is_one(node.rhs):
            return ("minus_one", *ratio)
    return None


_READS = SimpleNamespace(
    num=lambda value: set(),
    const=lambda name: set(),
    mean=lambda kind: {kind},
    call=lambda node, x: x,
    nested=lambda node, u, v: u | v,
    binop=lambda node, l, r: l | r,
    offset_form=lambda node, form, *kinds: set(kinds) if form == "difference" else set(),
)


def cached_reads(node: MeanExpr) -> set:
    """The kinds of the grid's means that a context caches to evaluate node."""
    return fold(node, _READS)


def _signed_gap(d):
    """sign(d) (1 - e^(-|d|)): (M1 - M2)/max(M1, M2) for d = log(M1/M2).
    expm1 never sees a positive argument, so it cannot overflow."""
    return np.copysign(np.expm1(-abs(d)), d)


#: The operator forms, which on numpy scalars cost some 20 times less than a
#: ufunc call; but ^ is np.power, whose results ** on numpy scalars does not
#: match bit for bit.
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": np.power,
}


def evaluate(expr: MeanExpr, a, b):
    """Evaluate over scalars or arrays of pair values (elementwise)."""
    return GridContext(a, b).evaluate(expr)
