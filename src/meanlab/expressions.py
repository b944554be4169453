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
from d = log(M1/M2) = u1 - u2, the difference of the means' log offsets
u = log(M/A), so differences that vanish at a == b keep full relative
accuracy instead of dissolving into rounding noise, and stay finite however
far the means fall below A.
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
from .means import _OPERATORS, MeanKind


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


class Workspace:
    """One worker's float64 buffers, reused from chunk to chunk.

    take(n) lends a view [:n] of a free buffer, allocating a buffer of the
    workspace's capacity when none is free; give(view) returns it.  The
    capacity grows to the largest n asked for, and buffers of a smaller
    capacity are then dropped.  Not thread-safe: each worker has its own."""

    def __init__(self):
        self.capacity = 0
        self._free: list[np.ndarray] = []

    def take(self, n: int) -> np.ndarray:
        if n > self.capacity:
            self.capacity = n
            self._free.clear()
        buf = self._free.pop() if self._free else np.empty(self.capacity)
        return buf[:n]

    def give(self, view: np.ndarray) -> None:
        if view.base.size == self.capacity:
            self._free.append(view.base)


class GridContext:
    """One grid of pairs with a cache of mean values and log offsets.

    Every expression evaluated on the same context shares the cache, so each
    mean kernel runs once per grid however many expressions use it, and all
    of them read one validated :class:`means.Pair`.  Means applied to
    subexpressions (``L(X, A)``) are not cached and prepare their own pair.

    With a :class:`Workspace`, the pair's quantities, the cached values and
    the node results are written into buffers lent by it instead of fresh
    arrays, and each is given back once: a node result that evaluate
    returned by ``release``, a cached value by ``forget``, and whatever is
    still held by ``close`` (or on leaving a ``with`` block).
    """

    def __init__(self, a, b, workspace: Workspace | None = None):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self._pair = None
        self._cache: dict[tuple[str, MeanKind], np.ndarray] = {}
        self._workspace = workspace
        if workspace is not None:
            self._shape = np.broadcast(self.a, self.b).shape
            self._pair_buffers: list[np.ndarray] = []
            self._results: dict[int, np.ndarray] = {}  # node results, by id

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _lend(self):
        """A buffer of the grid's shape from the workspace."""
        return self._workspace.take(math.prod(self._shape)).reshape(self._shape)

    def _lender(self, held: list):
        """An alloc for means.Pair: it lends a buffer and records it in held."""

        def alloc():
            held.append(self._lend())
            return held[-1]

        return alloc

    def release(self, value) -> None:
        """Give back the buffer of a node result that evaluate returned; any
        other value (a cached mean, a constant, None) is left alone."""
        if self._workspace is not None:
            buf = self._results.pop(id(value), None)
            if buf is not None:
                self._workspace.give(buf)

    def forget(self, keys) -> None:
        """Drop the cached values of these keys (as from cached_reads) and
        give back their buffers; a value read again is computed again."""
        for key in keys:
            got = self._cache.pop(key, None)
            if got is not None and self._workspace is not None:
                self._workspace.give(got)

    def close(self) -> None:
        """Give back every buffer still held and forget what they cached."""
        if self._workspace is not None:
            for buf in [*self._pair_buffers, *self._cache.values(), *self._results.values()]:
                self._workspace.give(buf)
            self._pair_buffers.clear()
            self._results.clear()
        self._pair = None
        self._cache.clear()

    def _apply(self, fn, *args):
        """fn(*args) as a node result, for a ufunc or a function that reads
        its operands before writing its output.  With a workspace and an
        array operand, it is written over the first operand that is a node
        result, or else into a newly lent buffer, and the other node-result
        operands are given back."""
        if self._workspace is None or not any(isinstance(x, np.ndarray) for x in args):
            return _OPERATORS.get(fn, fn)(*args)
        owned = [x for x in args if id(x) in self._results]
        if owned:
            out = owned[0]
        else:
            out = self._lend()
            self._results[id(out)] = out
        fn(*args, out=out)
        for x in owned[1:]:
            self.release(x)
        return out

    def _nested_mean(self, kind: MeanKind, u, v):
        """The mean of computed operands (as in ``L(X, A)``) as a node
        result.  Its pair is prepared for this call alone, and with a
        workspace the pair's quantities are lent for the call."""
        kernel = means.mean_kernel(kind)
        if self._workspace is None:
            return kernel(u, v)
        lent = []
        pair = means.Pair(u, v, alloc=self._lender(lent))
        out = self._apply(functools.partial(kernel, pair=pair), u, v)
        for buf in lent:
            self._workspace.give(buf)
        return out

    @property
    def pair(self) -> means.Pair:
        """The grid's pairs, validated and canonicalized once for every
        kernel (on first use, so a grid that no mean reads is not checked)."""
        if self._pair is None:
            alloc = None if self._workspace is None else self._lender(self._pair_buffers)
            self._pair = means.Pair(self.a, self.b, alloc=alloc)
        return self._pair

    def mean(self, kind: MeanKind):
        got = self._cache.get(("mean", kind))
        return self._compute(("mean", kind), means.mean_kernel(kind)) if got is None else got

    def offset(self, kind: MeanKind):
        """The log offset u = log(M/A) of a mean of the grid's pairs."""
        got = self._cache.get(("offset", kind))
        if got is None:
            got = self._compute(("offset", kind), means.log_over_arithmetic, kind)
        return got

    def _compute(self, key, kernel, *args):
        out = None if self._workspace is None else self._lend()
        got = kernel(*args, self.a, self.b, pair=self.pair, out=out)
        # a scalar pair's value is held as a numpy scalar, on which the
        # expression's arithmetic is some 20 times cheaper than on a 0-d array
        got = np.float64(got) if isinstance(got, float) else np.asarray(got)
        self._cache[key] = got
        return got

    def first_bad_pair(self, mask):
        idx = int(np.argmax(mask))
        a = self.a if self.a.ndim else np.full(1, float(self.a))
        b = self.b if self.b.ndim else np.full(1, float(self.b))
        return (float(np.ravel(a)[min(idx, a.size - 1)]), float(np.ravel(b)[min(idx, b.size - 1)]))

    def evaluate(self, expr: MeanExpr):
        """Evaluate over this context's pairs: a float for a scalar pair,
        otherwise an array of the grid's shape.  With a workspace, the node
        results of an evaluation that raises are given back."""
        held = None if self._workspace is None else set(self._results)
        try:
            value = _eval(expr, self)
        except EvalError:
            if held is not None:
                for key in set(self._results) - held:
                    self._workspace.give(self._results.pop(key))
            raise
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


def _guard(ctx: GridContext, node: MeanExpr, values, condition_bad):
    if condition_bad.any():
        raise EvalError("invalid operand", to_text(node), ctx.first_bad_pair(condition_bad))
    return values


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


def cached_reads(node: MeanExpr) -> set:
    """The cached values that evaluating node reads: ("mean", kind) for a
    mean of the grid's pairs and ("offset", kind) for its log offset."""
    form = _offset_form(node)
    if form is not None:
        names = ("offset", "mean") if form[0] == "difference" else ("offset",)
        return {(name, kind) for name in names for kind in form[1:]}
    if isinstance(node, MeanSymbol):
        return {("mean", node.kind)}
    children = [getattr(node, f) for f in ("lhs", "rhs", "arg") if hasattr(node, f)]
    return set().union(*(cached_reads(c) for c in children))


def _signed_gap(d, out=None):
    """sign(d) (1 - e^(-|d|)): (M1 - M2)/max(M1, M2) for d = log(M1/M2).
    expm1 never sees a positive argument, so it cannot overflow."""
    return means._into(out, np.copysign, np.expm1(-abs(d)), d)


def _eval_offset_form(ctx: GridContext, node: MeanExpr, form: str, kind1, kind2):
    """An offset form as a function of d = log(M1/M2) = u1 - u2; a
    non-finite result raises, as a non-finite quotient does."""
    d = ctx._apply(np.subtract, ctx.offset(kind1), ctx.offset(kind2))
    if form == "log":
        out = d
    elif form == "difference":
        top = ctx._apply(np.maximum, ctx.mean(kind1), ctx.mean(kind2))
        out = ctx._apply(np.multiply, top, ctx._apply(_signed_gap, d))
    else:  # M1/M2 - 1 = expm1(d)
        with np.errstate(all="ignore"):
            out = ctx._apply(np.expm1, d)
        if form == "one_minus":
            out = ctx._apply(np.negative, out)
    return _guard(ctx, node, out, ~np.isfinite(np.asarray(out)))


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def _eval(node: MeanExpr, ctx: GridContext):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Const):
        return np.float64(_CONSTANTS[node.name])
    if isinstance(node, MeanSymbol):
        return ctx.mean(node.kind)
    # only a log or a difference can take an offset form
    if getattr(node, "fn", None) == "log" or getattr(node, "op", None) == "-":
        form = _offset_form(node)
        if form is not None:
            return _eval_offset_form(ctx, node, *form)
    if isinstance(node, Call):
        arg = _eval(node.arg, ctx)
        if node.fn == "log":
            _guard(ctx, node, arg, ~(np.asarray(arg) > 0.0))
            return ctx._apply(np.log, arg)
        if node.fn == "exp":
            with np.errstate(all="ignore"):
                out = ctx._apply(np.exp, arg)
            return _guard(ctx, node, out, ~np.isfinite(np.asarray(out)))
        # sqrt
        _guard(ctx, node, arg, np.asarray(arg) < 0.0)
        return ctx._apply(np.sqrt, arg)
    if isinstance(node, MeanCall):
        u = _eval(node.lhs, ctx)
        v = _eval(node.rhs, ctx)
        bad = ~((np.asarray(u) > 0.0) & (np.asarray(v) > 0.0))
        _guard(ctx, node, None, bad)
        return np.asarray(ctx._nested_mean(node.kind, u, v))
    if isinstance(node, BinOp):
        lhs = _eval(node.lhs, ctx)
        rhs = _eval(node.rhs, ctx)
        with np.errstate(all="ignore"):
            out = ctx._apply(_BINARY[node.op], lhs, rhs)
        if node.op in ("/", "^"):
            return _guard(ctx, node, out, ~np.isfinite(np.asarray(out)))
        return out
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(expr: MeanExpr, a, b):
    """Evaluate over scalars or arrays of pair values (elementwise)."""
    return GridContext(a, b).evaluate(expr)


def eval_expr(expr: MeanExpr, pair: means.PositivePair) -> float:
    """Spec-shaped scalar entry point."""
    return evaluate(expr, pair.a, pair.b)
