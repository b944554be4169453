"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations


class MeanLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MeanLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SeriesDomainError(DomainError):
    """Series argument outside the convergence interval (or at a pole)."""


class ParseError(MeanLabError, ValueError):
    """Expression text could not be parsed; carries the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvalError(MeanLabError, ArithmeticError):
    """Expression evaluation hit a non-finite or out-of-domain intermediate.

    Carries the offending subexpression text and, when available, the first
    input pair that triggered it.
    """

    def __init__(self, message: str, subtree: str, pair=None):
        detail = f"{message} in subexpression '{subtree}'"
        if pair is not None:
            detail += f" at pair {pair}"
        super().__init__(detail)
        self.subtree = subtree
        self.pair = pair


class ExtrapolationError(MeanLabError, ArithmeticError):
    """Richardson extrapolation failed to converge."""


class NonMonotonePredicateError(MeanLabError, ArithmeticError):
    """A bisection predicate was not monotone over the scanned bracket."""


class ConfigError(MeanLabError, ValueError):
    """A run configuration violates its invariants."""
