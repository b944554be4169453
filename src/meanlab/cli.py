"""Command line interface: evaluate means and expressions, verify the chain
registry, recover sharp constants, emit plot tables, and bracket exponents.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
I/O error.  Reports are deterministic: identical configuration yields byte
identical output.  Verification with its sharpness probes, and the
conjecture scan, stream the grid: each chunk of at most chains.CHUNK_POINTS
points builds its own ratios and mean values, and no stage holds a
whole-grid array, not even where chains or probes raise (their errors come
from the chunks' error points).  The chunk count is a multiple of the core
count, with chunks equal to within one point, and the chunks run on a
thread per core when there are several.  verify is one pass: a chunk
evaluates each distinct member of the selected chains and of the tightened
probe chains once and scans each distinct link once, and the refined grid's
extra points are one more chunk, for the probes alone.  The report does not
depend on the chunking or the thread count.  main asks glibc's malloc, once
per process, to keep the memory that chunks free, so that the next chunk
does not fault its pages in again; a program that imports meanlab gets the
default allocator.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys

import numpy as np

from . import __version__, chains, ratios
from .chains import GridSpec
from .errors import (
    ConfigError,
    DomainError,
    EvalError,
    ExtrapolationError,
    MeanLabError,
    NonMonotonePredicateError,
    ParseError,
)
from .expressions import evaluate, parse_expr

_USAGE_ERROR = 2
_CHECK_FAILED = 1

#: glibc's mallopt parameters (malloc.h), with the values main sets: an mmap
#: threshold above the largest chunk array (8*CHUNK_POINTS = 512 KiB), and the
#: largest that older glibc accepts on 64-bit; a trim threshold above what a
#: worker holds at once on a stage (about 30 chunk arrays, 15 MB).
_MALLOPT = ((-3, 32 << 20), (-1, 64 << 20))  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


@functools.cache
def _keep_freed_memory() -> None:
    """Ask glibc's malloc, once per process, to keep the memory that grid
    chunks free, so that the next chunk reuses its pages instead of faulting
    them in again: by default glibc unmaps arrays this large on free, or
    trims them off its heap.  Where the C library has no mallopt, or it
    refuses, nothing is set; reports are the same, only the fault count
    differs."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOPT:
        if not mallopt(param, value):
            return


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _grid_from_args(args) -> GridSpec:
    return GridSpec(r_min=args.grid_min, r_max=args.grid_max, n=args.points)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_eval(args) -> int:
    expr = parse_expr(args.what)
    value = evaluate(expr, float(args.a), float(args.b))
    print(_fmt(float(value)))
    return 0


def _selected_chains(args):
    suite = chains.builtin_suite()
    if not args.chains:
        return suite
    wanted = [s.strip() for s in args.chains.split(",") if s.strip()]
    by_id = {c.id: c for c in suite}
    missing = [w for w in wanted if w not in by_id]
    if missing:
        raise ConfigError(f"unknown chain ids: {missing}")
    return tuple(by_id[w] for w in wanted)


def _cmd_verify(args) -> int:
    grid = _grid_from_args(args)
    guard = args.guard
    if not (0.0 < guard < 1e-6):
        raise ConfigError("margin guard must lie in (0, 1e-6)")
    selected = _selected_chains(args)
    reports, probes = chains.verify_and_probe(selected, grid, margin_guard=guard)
    constants = ratios.constant_recovery()
    sharpness = [o.as_dict() for o in probes]
    chains_pass = all(r.passed for r in reports)
    constants_pass = all(row["abs_error"] < 1e-6 for row in constants)
    overall = chains_pass and constants_pass
    doc = {
        "tool": "meanlab",
        "version": __version__,
        "config": {
            "grid": grid.describe(),
            "r_min": grid.r_min,
            "r_max": grid.r_max,
            "points": grid.n,
            "margin_guard": guard,
            "chains": [c.id for c in selected],
        },
        "chains": [r.as_dict() for r in reports],
        "constants": constants,
        "sharpness": sharpness,
        "overall_pass": overall,
    }
    _write_out(json.dumps(doc, indent=2) + "\n", args.out)
    return 0 if overall else _CHECK_FAILED


_RATIO_FN_NAMES = {fn.value: fn for fn in ratios.RatioFn}


def _cmd_limit(args) -> int:
    fn = _RATIO_FN_NAMES.get(args.function)
    if fn is None:
        raise ConfigError(
            f"unknown ratio function {args.function!r}; choose from"
            f" {sorted(_RATIO_FN_NAMES)}"
        )
    endpoints = ratios.ENDPOINTS if args.endpoint == "both" else [args.endpoint]
    for ep in endpoints:
        est = ratios.endpoint_limit(fn, ep)
        target = ratios.limit_target(fn, ep)
        print(
            f"{fn.value} @ {ep}: {_fmt(est)}"
            f" (closed form {_fmt(target)}, abs error {abs(est - target):.3e})"
        )
    return 0


def _pick(flag_value, positional, what):
    if flag_value is not None:
        return flag_value
    if positional is not None:
        return positional
    raise ConfigError(f"missing {what}: pass it positionally or as --{what}")


def _cmd_emit(args) -> int:
    samples = _pick(args.samples, args.samples_pos, "samples")
    if samples < 2:
        raise ConfigError("need samples >= 2")
    fn = _RATIO_FN_NAMES.get(args.function)
    if fn is not None:
        header, xs = "x,value", ratios.monotone_samples(samples)
        vals = ratios.ratio_eval(fn, xs)
    else:
        expr = parse_expr(args.function)
        grid = GridSpec(r_min=args.grid_min, r_max=args.grid_max, n=samples)
        header, xs = "ratio,value", grid.ratios()
        vals = np.asarray(evaluate(expr, xs * grid.b, grid.b))
    lines = [header] + [f"{_fmt(float(x))},{_fmt(float(v))}" for x, v in zip(xs, vals)]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bracket(args) -> int:
    tolerance = _pick(args.tolerance, args.tolerance_pos, "tolerance")
    lower = chains.bracket_best_exponent(args.target, "lower", tolerance)
    upper = chains.bracket_best_exponent(args.target, "upper", tolerance)
    print(f"lower exponent: {_fmt(lower)}")
    print(f"upper exponent: {_fmt(upper)}")
    print(f"bracket width tolerance: {_fmt(tolerance)}")
    return 0


def _cmd_conjecture(args) -> int:
    grid = _grid_from_args(args)
    report = chains.conjecture_scan(grid)
    doc = {
        "tool": "meanlab",
        "version": __version__,
        "conjecture": "P*X > I*L",
        "status": "unresolved",
        **report.as_dict(),
    }
    _write_out(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="meanlab",
        description="bivariate means and sharp-constant inequality laboratory",
    )
    ap.add_argument("--version", action="version", version=f"meanlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_grid(p):
        p.add_argument(
            "--grid-min", type=float, default=GridSpec.r_min, help="r_min: a starts at 1+r_min"
        )
        p.add_argument("--grid-max", type=float, default=GridSpec.r_max, help="largest ratio a/b")
        p.add_argument("--points", type=int, default=GridSpec.n, help="grid size")

    p = sub.add_parser("eval", help="evaluate a mean or expression at one pair")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("what", help="mean symbol (A..Y, Mp[p], Hp[p]) or expression")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("verify", help="run the chain suite and constant recovery")
    add_grid(p)
    p.add_argument("--guard", type=float, default=chains.DEFAULT_MARGIN_GUARD)
    p.add_argument("--chains", type=str, default="", help="comma-separated chain ids")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("limit", help="endpoint limits of the ratio functions")
    p.add_argument("function", help="ratio function name")
    p.add_argument("--endpoint", choices=[*ratios.ENDPOINTS, "both"], default="both")
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("emit", help="write a two-column table of a function")
    p.add_argument("function", help="ratio function name or expression")
    p.add_argument("samples_pos", type=int, nargs="?", default=None, metavar="samples")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--grid-min", type=float, default=GridSpec.r_min)
    p.add_argument("--grid-max", type=float, default=GridSpec.r_max)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_emit)

    p = sub.add_parser("bracket", help="bracket the best power-mean exponents")
    p.add_argument("target", help="target expression, e.g. (P+X)/2")
    p.add_argument("tolerance_pos", type=float, nargs="?", default=None, metavar="tolerance")
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("conjecture", help="scan the P*X > I*L conjecture")
    add_grid(p)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_conjecture)
    return ap


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ParseError, DomainError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (NonMonotonePredicateError, ExtrapolationError, EvalError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return _CHECK_FAILED
    except MeanLabError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
