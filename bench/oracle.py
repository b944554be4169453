"""Independent mpmath evaluation of meanlab expression text.

The text is translated token by token into a Python expression over mpmath
numbers, so neither meanlab's parser nor its evaluator is involved.  Every
mean is computed from its defining formula at 50 significant digits.
"""

from __future__ import annotations

import re

import mpmath
from mpmath import mp, mpf

_DIGITS = 50
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()\[\],]))"
)
_PLAIN = "AGHLIPXY"
_NAMES = {"e": "_e", "pi": "_pi", "exp": "_exp", "log": "_log", "sqrt": "_sqrt"}


def _plain_mean(tag: str, a, b):
    if a == b:
        return a
    if tag == "A":
        return (a + b) / 2
    if tag == "G":
        return mpmath.sqrt(a * b)
    if tag == "H":
        return 2 * a * b / (a + b)
    if tag == "L":
        return (a - b) / (mpmath.log(a) - mpmath.log(b))
    if tag == "I":
        return mpmath.exp((a * mpmath.log(a) - b * mpmath.log(b)) / (a - b) - 1)
    if tag == "P":
        return (a - b) / (2 * mpmath.asin((a - b) / (a + b)))
    if tag == "X":
        return _plain_mean("A", a, b) * mpmath.exp(
            _plain_mean("G", a, b) / _plain_mean("P", a, b) - 1
        )
    if tag == "Y":
        return _plain_mean("G", a, b) * mpmath.exp(
            _plain_mean("L", a, b) / _plain_mean("A", a, b) - 1
        )
    raise ValueError(f"unknown mean {tag!r}")


def _power_mean(p):
    p = mpf(float(p))

    def mean(a, b):
        if a == b:
            return a
        if p == 0:
            return mpmath.sqrt(a * b)
        return ((a**p + b**p) / 2) ** (1 / p)

    return mean


def _heronian_mean(p):
    p = mpf(float(p))

    def mean(a, b):
        if a == b:
            return a
        if p == 0:
            return mpmath.sqrt(a * b)
        return ((a**p + (a * b) ** (p / 2) + b**p) / 3) ** (1 / p)

    return mean


def to_python(text: str) -> str:
    """Translate expression text into Python source over the oracle namespace.

    A mean symbol followed by '(' is a nested mean call; otherwise it stands
    for the mean of the pair (_a, _b).  '^' becomes '**'; unary minus is
    rejected because the grammar binds it tighter than '^' and Python does
    not.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot translate {text!r} at {pos}")
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
        pos = m.end()
    out = []
    i = 0
    while i < len(tokens):
        kind, tok = tokens[i]
        nxt = tokens[i + 1][1] if i + 1 < len(tokens) else ""
        unary = not out or out[-1] in ("(", ",", "+", "-", "*", "/", "**")
        if kind == "op" and tok == "-" and unary:
            raise ValueError(f"unary minus is not supported: {text!r}")
        if kind == "name" and tok in _PLAIN:
            out.append(f"_mean('{tok}')" + ("" if nxt == "(" else "(_a, _b)"))
        elif kind == "name" and tok in ("Mp", "Hp"):
            # Mp [ number ] -> _Mp(number); a signed exponent is '-' number
            close = next(j for j in range(i, len(tokens)) if tokens[j][1] == "]")
            expo = "".join(t for _, t in tokens[i + 2 : close])
            after = tokens[close + 1][1] if close + 1 < len(tokens) else ""
            out.append(f"_{tok}('{expo}')" + ("" if after == "(" else "(_a, _b)"))
            i = close
        elif kind == "name":
            if tok not in _NAMES:
                raise ValueError(f"unknown identifier {tok!r} in {text!r}")
            out.append(_NAMES[tok])
        elif kind == "num":
            out.append(f"_n('{tok}')")
        else:
            out.append("**" if tok == "^" else tok)
        i += 1
    return "".join(out)


def evaluate(text: str, a: float, b: float):
    """The exact-as-possible value of ``text`` at (a, b), as an mpf."""
    source = to_python(text)
    with mp.workdps(_DIGITS):
        namespace = {
            "__builtins__": {},
            "_a": mpf(a),
            "_b": mpf(b),
            "_mean": lambda tag: (lambda u, v: _plain_mean(tag, mpf(u), mpf(v))),
            "_Mp": _power_mean,
            "_Hp": _heronian_mean,
            "_n": lambda s: mpf(float(s)),
            "_e": mpmath.e,
            "_pi": mpmath.pi,
            "_exp": mpmath.exp,
            "_log": mpmath.log,
            "_sqrt": mpmath.sqrt,
        }
        return +eval(source, namespace)  # noqa: S307 - text comes from the registry


def relative_error(value: float, text: str, a: float, b: float) -> float:
    """|value - exact| / |exact| (absolute error when the exact value is 0)."""
    with mp.workdps(_DIGITS):
        exact = evaluate(text, a, b)
        err = abs(mpf(value) - exact)
        return float(err / abs(exact)) if exact != 0 else float(err)
