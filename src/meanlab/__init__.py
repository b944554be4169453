"""meanlab: bivariate means (A, G, H, L, I, P, X, Y, power, Heronian) with
cancellation-safe evaluation, and a laboratory that verifies strict
inequality chains between them, recovers their sharp constants by endpoint
limits, and probes sharpness by perturbation.

The package holds only what the lab runs.  The second routes to L, I, P, X
and Y and the full six-kind series catalogue, which only the tests read, are
in tests/references.py beside the mpmath oracle."""

__version__ = "0.1.0"

from .chains import (
    ChainReport,
    ConjectureReport,
    GridSpec,
    InequalityChain,
    ProbeOutcome,
    bracket_best_exponent,
    builtin_suite,
    conjecture_scan,
    sharpness_probe,
    verify_chain,
)
from .errors import (
    ConfigError,
    DegeneratePairError,
    DomainError,
    EvalError,
    ExtrapolationError,
    MeanLabError,
    NonMonotonePredicateError,
    ParseError,
    SeriesDomainError,
)
from .expressions import GridContext, MeanExpr, evaluate, parse_expr, to_text
from .means import (
    MeanKind,
    MeanVector,
    ParamPoint,
    PositivePair,
    arithmetic,
    eval_all,
    eval_mean,
    geometric,
    harmonic,
    heronian_mean,
    identric,
    logarithmic,
    param_point,
    power_mean,
    seiffert,
    x_mean,
    y_mean,
)
from .ratios import (
    MonotonicityVerdict,
    NamedConstant,
    RatioFn,
    check_monotone,
    cusa_aux_margin,
    endpoint_limit,
    named_constants,
    ratio_eval,
)
from .series import SeriesKind, series_coefficients

__all__ = [
    "__version__",
    "ChainReport",
    "ConjectureReport",
    "GridSpec",
    "InequalityChain",
    "ProbeOutcome",
    "bracket_best_exponent",
    "builtin_suite",
    "conjecture_scan",
    "sharpness_probe",
    "verify_chain",
    "ConfigError",
    "DegeneratePairError",
    "DomainError",
    "EvalError",
    "ExtrapolationError",
    "MeanLabError",
    "NonMonotonePredicateError",
    "ParseError",
    "SeriesDomainError",
    "GridContext",
    "MeanExpr",
    "evaluate",
    "parse_expr",
    "to_text",
    "MeanKind",
    "MeanVector",
    "ParamPoint",
    "PositivePair",
    "arithmetic",
    "eval_all",
    "eval_mean",
    "geometric",
    "harmonic",
    "heronian_mean",
    "identric",
    "logarithmic",
    "param_point",
    "power_mean",
    "seiffert",
    "x_mean",
    "y_mean",
    "MonotonicityVerdict",
    "NamedConstant",
    "RatioFn",
    "check_monotone",
    "cusa_aux_margin",
    "endpoint_limit",
    "named_constants",
    "ratio_eval",
    "SeriesKind",
    "series_coefficients",
]
