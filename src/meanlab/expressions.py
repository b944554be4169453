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

Evaluation is elementwise over numpy arrays of pairs.  Subtrees of the shapes
M1 - M2, log(M1/M2), 1 - M1/M2 and M1/M2 - 1 (mean leaves only) are computed
through the relative-to-A kernels, so differences that vanish at a == b keep
full relative accuracy instead of dissolving into rounding noise.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import means
from .errors import EvalError, ParseError
from .means import MeanKind

_QUIET = dict(divide="ignore", invalid="ignore", over="ignore", under="ignore")


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


def to_text(expr: MeanExpr) -> str:
    """Round-trippable rendering (fully parenthesized where it matters)."""
    if isinstance(expr, Num):
        return repr(expr.value) if expr.value >= 0 else f"({expr.value!r})"
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, MeanSymbol):
        return expr.kind.label()
    if isinstance(expr, Call):
        return f"{expr.fn}({to_text(expr.arg)})"
    if isinstance(expr, MeanCall):
        return f"{expr.kind.label()}({to_text(expr.lhs)}, {to_text(expr.rhs)})"
    if isinstance(expr, BinOp):
        return f"({to_text(expr.lhs)} {expr.op} {to_text(expr.rhs)})"
    raise TypeError(f"not an expression node: {expr!r}")


class GridContext:
    """One grid of pairs with a cache of mean values and relative offsets.

    Every expression evaluated on the same context shares the cache, so each
    mean kernel runs once per grid however many expressions use it, and all
    of them read one validated :class:`means.Pair`.  Means applied to
    subexpressions (``L(X, A)``) are not cached and prepare their own pair.
    """

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self._pair = None
        self._mean_cache: dict[MeanKind, np.ndarray] = {}
        self._rel_cache: dict[MeanKind, np.ndarray] = {}

    @property
    def pair(self) -> means.Pair:
        """The grid's pairs, validated and canonicalized once for every
        kernel (on first use, so a grid that no mean reads is not checked)."""
        if self._pair is None:
            self._pair = means.Pair(self.a, self.b)
        return self._pair

    def mean(self, kind: MeanKind):
        got = self._mean_cache.get(kind)
        if got is None:
            got = np.asarray(means.mean_kernel(kind)(self.a, self.b, pair=self.pair))
            self._mean_cache[kind] = got
        return got

    def rel(self, kind: MeanKind):
        got = self._rel_cache.get(kind)
        if got is None:
            got = np.asarray(means.rel_to_arithmetic(kind, self.a, self.b, pair=self.pair))
            self._rel_cache[kind] = got
        return got

    def first_bad_pair(self, mask):
        idx = int(np.argmax(mask))
        a = self.a if self.a.ndim else np.full(1, float(self.a))
        b = self.b if self.b.ndim else np.full(1, float(self.b))
        return (float(np.ravel(a)[min(idx, a.size - 1)]), float(np.ravel(b)[min(idx, b.size - 1)]))

    def evaluate(self, expr: MeanExpr):
        """Evaluate over this context's pairs: a float for a scalar pair,
        otherwise an array of the grid's shape."""
        out = np.asarray(_eval(expr, self), dtype=float)
        if self.a.ndim == 0 and self.b.ndim == 0:
            return float(out if out.ndim == 0 else out[()])
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


def _guard(ctx: GridContext, node: MeanExpr, values, condition_bad):
    if condition_bad.any():
        raise EvalError("invalid operand", to_text(node), ctx.first_bad_pair(condition_bad))
    return values


def _eval(node: MeanExpr, ctx: GridContext):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Const):
        return np.float64(_CONSTANTS[node.name])
    if isinstance(node, MeanSymbol):
        return ctx.mean(node.kind)
    if isinstance(node, Call):
        if node.fn == "log":
            ratio = _mean_ratio(node.arg)
            if ratio is not None:
                r1, r2 = ctx.rel(ratio[0]), ctx.rel(ratio[1])
                return np.log1p((r1 - r2) / (1.0 + r2))
            arg = _eval(node.arg, ctx)
            _guard(ctx, node, arg, ~(np.asarray(arg) > 0.0))
            return np.log(arg)
        arg = _eval(node.arg, ctx)
        if node.fn == "exp":
            with np.errstate(**_QUIET):
                out = np.exp(arg)
            return _guard(ctx, node, out, ~np.isfinite(np.asarray(out)))
        # sqrt
        _guard(ctx, node, arg, np.asarray(arg) < 0.0)
        return np.sqrt(arg)
    if isinstance(node, MeanCall):
        u = _eval(node.lhs, ctx)
        v = _eval(node.rhs, ctx)
        bad = ~((np.asarray(u) > 0.0) & (np.asarray(v) > 0.0))
        _guard(ctx, node, None, bad)
        return np.asarray(means.mean_kernel(node.kind)(u, v))
    if isinstance(node, BinOp):
        if node.op == "-":
            if isinstance(node.lhs, MeanSymbol) and isinstance(node.rhs, MeanSymbol):
                a_mean = ctx.mean(means.PLAIN_KINDS["A"])
                return a_mean * (ctx.rel(node.lhs.kind) - ctx.rel(node.rhs.kind))
            ratio = _mean_ratio(node.rhs)
            if _is_one(node.lhs) and ratio is not None:
                r1, r2 = ctx.rel(ratio[0]), ctx.rel(ratio[1])
                return -(r1 - r2) / (1.0 + r2)
            ratio = _mean_ratio(node.lhs)
            if ratio is not None and _is_one(node.rhs):
                r1, r2 = ctx.rel(ratio[0]), ctx.rel(ratio[1])
                return (r1 - r2) / (1.0 + r2)
        lhs = _eval(node.lhs, ctx)
        rhs = _eval(node.rhs, ctx)
        with np.errstate(**_QUIET):
            if node.op == "+":
                return lhs + rhs
            if node.op == "-":
                return lhs - rhs
            if node.op == "*":
                return lhs * rhs
            if node.op == "/":
                out = lhs / rhs
                return _guard(ctx, node, out, ~np.isfinite(np.asarray(out)))
            # power
            out = np.power(lhs, rhs)
            return _guard(ctx, node, out, ~np.isfinite(np.asarray(out)))
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(expr: MeanExpr, a, b):
    """Evaluate over scalars or arrays of pair values (elementwise)."""
    return GridContext(a, b).evaluate(expr)


def eval_expr(expr: MeanExpr, pair: means.PositivePair) -> float:
    """Spec-shaped scalar entry point."""
    return evaluate(expr, pair.a, pair.b)
