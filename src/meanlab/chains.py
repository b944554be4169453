"""Registry of strict inequality chains between the means, a grid verifier,
sharpness probes for the chains' constants, and exponent bracketing.

A chain is an ascending sequence of expressions; the verifier's primitive is
the per-link relative margin (rhs - lhs) / max(|lhs|, |rhs|), which equals
(rhs - lhs)/rhs for ascending positive links and stays meaningful for the
few chains whose members are negative.  A chain passes a grid when every
margin exceeds the strictness guard.

Near a == b most links are tangent to second order or higher, so margins
there sit at (or below) the double-precision noise floor; reports record
whatever the arithmetic resolves.  Sharpness probes therefore treat only
margins below -DEFAULT_MARGIN_GUARD as violations.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import ratios as _ratios_mod
from .errors import (
    ConfigError,
    DomainError,
    EvalError,
    NonMonotonePredicateError,
)
from .expressions import GridContext, MeanExpr, cached_reads, parse_expr
from .means import Pair, geometric, power_mean, power_mean_exponent

DEFAULT_MARGIN_GUARD = 1e-13

#: sharpness_probes tightens each probed constant by this much.
PROBE_EPSILON = 1e-3

#: bracket_best_exponent scans the integer orders in this range, then bisects.
BRACKET_SEARCH_RANGE = (-8.0, 8.0)

_EPS = float(np.finfo(float).eps)

#: Grid points per chunk, at most (the refined grid's extra points are one
#: more chunk, of at most 200).  Each chunk is evaluated on its own context,
#: whose arrays have the chunk's size: the pairs' quantities, each mean until
#: the last member that reads it is dropped, each member's values until its
#: last link, the margins and the kernels' temporaries.  On verify's stage a
#: worker holds about 30 of them at once, as on the chain suite alone: 15 MB,
#: well past a core's L2 cache.  They are freed as the chunk goes; the CLI
#: asks the allocator to keep freed memory (cli._keep_freed_memory), so the
#: next chunk reuses the pages instead of faulting them in again.  Memory
#: grows with the chunk size and the core count, not the grid.
CHUNK_POINTS = 1 << 16

_NC = _ratios_mod.named_constants()
_Q = _NC["q"].value
_THIRD = 1.0 / 3.0


@dataclass(frozen=True)
class GridSpec:
    """b fixed, ratios a/b log-spaced over [1 + r_min, r_max]."""

    r_min: float = 1e-6
    r_max: float = 1e8
    n: int = 10_000
    b: float = 1.0

    def __post_init__(self):
        try:
            operator.index(self.n)
        except TypeError:
            raise ConfigError(f"grid needs an integer n, got {self.n!r}") from None
        if not (self.n >= 2):
            raise ConfigError("grid needs n >= 2")
        if not (self.r_min > 0.0 and math.isfinite(self.r_min)):
            raise ConfigError("grid needs positive finite r_min")
        if not math.isfinite(self.r_max):
            raise ConfigError("grid needs finite r_max")
        if not (self.r_max > 1.0 + self.r_min):
            raise ConfigError("grid needs r_max > 1 + r_min")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ConfigError("grid needs positive finite b")
        if not math.isfinite(self.r_max * self.b):
            raise ConfigError(f"grid needs finite r_max*b; r_max = {self.r_max!r}, b = {self.b!r}")

    def ratios(self) -> np.ndarray:
        return self.ratios_slice(0, self.n)

    def ratios_slice(self, lo: int, hi: int) -> np.ndarray:
        """Ratios lo..hi-1 of the grid, bit for bit those of
        np.geomspace(1 + r_min, r_max, n): the same steps in the same order
        (numpy's linspace of the log10 endpoints, a power of 10, then the
        exact endpoints), on the index range only."""
        start, stop = 1.0 + self.r_min, self.r_max
        log_start, log_stop = np.log10(start), np.log10(stop)
        div = self.n - 1
        step = (log_stop - log_start) / div
        y = np.arange(lo, hi, dtype=float)
        if step == 0:  # numpy's order for a step that underflows
            y /= div
            y *= log_stop - log_start
        else:
            y *= step
        y += log_start
        if hi == self.n:
            y[-1] = log_stop
        # at r_max near DBL_MAX, 10**log10(r_max) can round past it to inf;
        # the endpoint is overwritten with r_max below, as numpy does
        with np.errstate(over="ignore"):
            r = np.power(10.0, y)
        if lo == 0:
            r[0] = start
        if hi == self.n:
            r[-1] = stop
        return r

    def describe(self) -> str:
        return (
            f"{self.n} log-spaced ratios in [1+{self.r_min!r}, {self.r_max!r}],"
            f" b = {self.b!r}"
        )


@lru_cache(maxsize=16)
def _extra_ratios(r_max: float, b: float) -> np.ndarray:
    """The refined grid's 100 + 100 extra points, sorted and each once; the
    largest a, r_max*1e4*b, must be finite."""
    if not math.isfinite(r_max * 1e4 * b):
        raise ConfigError(f"refined grid needs finite r_max*1e4*b; r_max = {r_max!r}, b = {b!r}")
    near = np.geomspace(1.0 + 1e-12, 1.0 + 1e-6, 100, endpoint=False)
    # at r_max*1e4 near DBL_MAX geomspace's 10**log10 can overflow at the
    # endpoint, which it then sets to r_max*1e4 itself
    with np.errstate(over="ignore"):
        far = np.geomspace(r_max, r_max * 1e4, 100)
    extra = np.unique(np.concatenate([near, far]))
    extra.flags.writeable = False
    return extra


@lru_cache(maxsize=4)
def _refined_pair(grid: GridSpec) -> Pair:
    """The prepared Pair of the bracket's refined grid, which every search on
    the grid reads.  Every refined ratio is >= 1, so its hi is the grid's a,
    bit for bit."""
    return Pair(refined_ratios(grid) * grid.b, grid.b).prepared()


def refined_ratios(grid: GridSpec) -> np.ndarray:
    """The grid plus 100 extra points hugging each asymptotic end, sorted and
    deduplicated."""
    return np.unique(np.concatenate([_extra_ratios(grid.r_max, grid.b), grid.ratios()]))


@dataclass(frozen=True)
class InequalityChain:
    """Ascending strict chain of expressions with a literature anchor."""

    id: str
    member_texts: tuple[str, ...]
    citation: str
    domain_note: str = ""

    def __post_init__(self):
        if len(self.member_texts) < 2:
            raise ConfigError("a chain needs at least two members")

    @cached_property
    def members(self) -> tuple[MeanExpr, ...]:
        return tuple(parse_expr(t) for t in self.member_texts)


@dataclass(frozen=True)
class LinkReport:
    lhs: str
    rhs: str
    min_margin: float
    argmin_ratio: float

    def as_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "min_margin": self.min_margin,
            "argmin_ratio": self.argmin_ratio,
        }


@dataclass(frozen=True)
class ChainReport:
    chain_id: str
    links: tuple[LinkReport, ...]
    passed: bool
    grid: str
    margin_guard: float
    error: str | None = None

    @property
    def min_margin(self) -> float:
        return min((l.min_margin for l in self.links), default=math.nan)

    def as_dict(self) -> dict:
        return {
            "chain": self.chain_id,
            "passed": self.passed,
            "margin_guard": self.margin_guard,
            "grid": self.grid,
            "links": [l.as_dict() for l in self.links],
            "error": self.error,
        }


def _rel_margins(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(rhs - lhs)/max(|lhs|, |rhs|), and 0 where that denominator is 0 or NaN."""
    denom, margins = np.empty_like(lhs), np.empty_like(lhs)
    np.abs(lhs, out=denom)
    np.maximum(denom, np.abs(rhs, out=margins), out=denom)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(rhs, lhs, out=margins)
        np.divide(margins, denom, out=margins)
    if not denom.min() > 0.0:  # NaN fails this test too
        margins[~(denom > 0.0)] = 0.0
    return margins


def _ratio_bound(c: float) -> float:
    """A double q_max such that a point of positive finite sides whose margin
    is at most c has rhs/lhs <= q_max.

    With Q = rhs/lhs exact, the exact margin is mu(Q) = Q - 1 below Q = 1
    and 1 - 1/Q above, increasing in Q.  The computed margin is mu times
    (1 + d), |d| <= 2 roundings, so a margin <= c has mu <= c + 3 EPS |c|,
    and Q <= mu^-1 of that; the computed q, rounded monotonically, is then
    at most any double above it.  Near q = 1 that is within about 10 ulp of
    the least q; where margins saturate at -1 or 1 the window widens to take
    in their ties."""
    if c <= 0.0:
        return 1.0 + c + 4.0 * _EPS
    d = 1.0 - c * (1.0 + 4.0 * _EPS)
    return (1.0 + 4.0 * _EPS) / d if d > 0.0 else math.inf


def _link_minimum(lhs, rhs, clean: bool):
    """(j, margin): j = np.argmin(_rel_margins(lhs, rhs)) and the margin
    there, bit for bit.  clean: both sides are > 0 and below inf everywhere.

    Where they are, the margin is an increasing function of q = rhs/lhs up
    to two roundings: one division finds the least q, and the margin is
    computed only at the points whose q could give it a margin as small
    (_ratio_bound), whose first argmin is the whole link's.  Elsewhere (a side
    that is 0, negative, inf or NaN somewhere; at an inf side the margin is
    NaN while q is inf or 0) the margins are computed at every point."""
    if clean:
        with np.errstate(over="ignore"):  # q is inf where rhs/lhs overflows
            q = rhs / lhs
        i = int(np.argmin(q))
        l, r = float(lhs[i]), float(rhs[i])
        idx = np.flatnonzero(q <= _ratio_bound((r - l) / max(l, r)))
        margins = _rel_margins(lhs[idx], rhs[idx])
        k = int(np.argmin(margins))
        j, margin = int(idx[k]), margins[k]
    else:
        margins = _rel_margins(lhs, rhs)
        j = int(np.argmin(margins))
        margin = margins[j]
    return j, float(margin)


class _LinkPlan:
    """The distinct members and distinct (lhs, rhs) links of several member
    lists, interned once per stage as integer slots, so that a chunk
    evaluates each member and scans each link once however many lists share
    them.  Links are scanned as soon as their later member is evaluated, and
    a member's values are dropped after the last link that reads them, as
    are the cached means after the last member that reads them is
    dropped."""

    def __init__(self, member_lists):
        slots: dict = {}
        link_slots: dict = {}
        self.rows = []  # per list: its member slots and its link slots
        for members in member_lists:
            ms = [slots.setdefault(m, len(slots)) for m in members]
            ls = [link_slots.setdefault(pair, len(link_slots)) for pair in zip(ms, ms[1:])]
            self.rows.append((ms, ls))
        self.members = list(slots)
        self.links = list(link_slots)
        self.ready = [[] for _ in self.members]  # links to scan once a member is in
        last_use = [0] * len(self.members)
        for k, (l, r) in enumerate(self.links):
            step = max(l, r)
            self.ready[step].append(k)
            last_use[l] = max(last_use[l], step)
            last_use[r] = max(last_use[r], step)
        self.drop = [[] for _ in self.members]
        last_read = {}
        for m, step in enumerate(last_use):
            self.drop[step].append(m)
            for kind in cached_reads(self.members[m]):
                last_read[kind] = max(last_read.get(kind, 0), step)
        self.uncache = [[] for _ in self.members]
        for kind, step in last_read.items():
            self.uncache[step].append(kind)

    def scan(self, ratios: np.ndarray, b, links=None):
        """Over the pairs (ratios*b, b): per link, (min margin, ratio at the
        first argmin, rhs - lhs there), or None where a member raised or the
        link is not scanned; and the EvalError each failing member raised,
        by member slot: at its first failing node's first bad pair.  links:
        the link slots to scan, and so the members to evaluate; all of them
        by default."""
        out = [None] * len(self.links)
        errors = {}
        if not ratios.size:
            return out, errors
        wanted = None if links is None else {s for k in links for s in self.links[k]}
        ctx = GridContext(ratios * b, b)
        values, clean = {}, {}
        for s, member in enumerate(self.members):
            try:
                if wanted is None or s in wanted:
                    values[s] = v = np.asarray(ctx.evaluate(member))
                    clean[s] = v.min() > 0.0 and v.max() < math.inf
            except EvalError as exc:
                # kept without its traceback, whose frames would hold the
                # scan's arrays for as long as the error is kept
                errors[s] = exc.with_traceback(None)
            for k in self.ready[s]:
                l, r = self.links[k]
                if l in values and r in values and (links is None or k in links):
                    lhs, rhs = values[l], values[r]
                    j, margin = _link_minimum(lhs, rhs, clean[l] and clean[r])
                    # as Python floats, two infinities subtract without a warning
                    out[k] = (margin, float(ratios[j]), float(rhs[j]) - float(lhs[j]))
            for m in self.drop[s]:
                values.pop(m, None)
            ctx.forget(self.uncache[s])
        return out, errors


def _worker_count(chunks: int) -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not available outside Linux
        cores = os.cpu_count() or 1
    return min(chunks, cores)


def _map_chunks(run, n: int):
    """Yield run(lo, hi) for the chunks [lo, hi) of range(n), in order.  At
    most CHUNK_POINTS points each, the chunks come in a multiple of the
    worker count and hold ceil(n / count) points each, so every worker gets
    the same share.  Several chunks run on a thread pool; the kernels spend
    their time in numpy, which releases the GIL."""
    chunks = -(-n // CHUNK_POINTS)
    workers = _worker_count(chunks)
    size = -(-n // (workers * -(-chunks // workers)))
    bounds = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    if workers < 2:
        for lo, hi in bounds:
            yield run(lo, hi)
        return
    from concurrent.futures import ThreadPoolExecutor  # importing it costs ~8 ms

    with ThreadPoolExecutor(workers) as pool:
        yield from pool.map(lambda bound: run(*bound), bounds)


def _first_min(parts):
    """Merge per-chunk (min margin, grid position, ...) records, given in
    grid order, the way np.argmin reads the whole grid: the first NaN if there
    is one, else the first that holds the minimum.  None records are skipped."""
    best = None
    for part in parts:
        if part is None:
            continue
        if best is None or part[0] < best[0] or (math.isnan(part[0]) and not math.isnan(best[0])):
            best = part
    return best


def _first_error(members, points, b) -> EvalError:
    """The EvalError evaluating members in order over a grid raises, from the
    values of a at which they raised on its chunks.  The first member to fail
    anywhere fails first at its first failing node's first bad point, which
    is where it raised on that point's chunk; on those points alone, in grid
    order (a ascends with the ratios), the members raise the same error."""
    ctx = GridContext(np.array(sorted(points)), b)
    try:
        for member in members:
            ctx.evaluate(member)
    except EvalError as exc:
        return exc.with_traceback(None)
    raise AssertionError("members that failed on their chunks pass on the error points")


def _list_minima(member_lists, rows, minima, failed, b) -> list:
    """Per member list, with its plan row, the records of its links, or the
    EvalError it raises on the points at which its members raised."""
    out = []
    for members, (ms, ls) in zip(member_lists, rows):
        points = set().union(*(failed.get(s, ()) for s in ms))
        out.append(_first_error(members, points, b) if points else [minima[k] for k in ls])
    return out


def _grid_link_minima(member_lists, grid: GridSpec, refined_lists=()):
    """For each member list, (min margin, ratio there, rhs - lhs there) per
    link over the grid's pairs (ratios*b, b), or the EvalError evaluating the
    list over them raises; and the same for each refined list over the
    refined grid's pairs.

    One stage, streamed, failing lists too: each grid chunk [lo, hi)
    evaluates grid.ratios_slice(lo, hi) alone for both kinds of list, and
    the extra points of the refined grid form one more chunk, on which only
    the refined lists are evaluated.
    A link merges chunk by chunk, in grid order, with a first argmin; a
    refined link then merges with its record on the extra points, which is
    the first argmin over the sorted refined grid: a NaN margin first, then
    the least margin, then the least ratio (an extra point equal to a grid
    ratio gives the same bits).  A failing list's error is found from the
    errors its members raised on the chunks; the member lists' records and
    errors are taken before the extra points are scanned, so they come from
    the grid alone."""
    extra = _extra_ratios(grid.r_max, grid.b) if refined_lists else np.empty(0)
    plan = _LinkPlan([*member_lists, *refined_lists])
    plain_rows, refined_rows = plan.rows[: len(member_lists)], plan.rows[len(member_lists) :]
    best = [None] * len(plan.links)
    failed = {}  # member slot -> the a at which it raised, on each chunk it raised on

    def note(errors):
        for s, exc in errors.items():
            failed.setdefault(s, set()).add(exc.pair[0])

    for links, errors in _map_chunks(
        lambda lo, hi: plan.scan(grid.ratios_slice(lo, hi), grid.b), grid.n
    ):
        best = [_first_min(pair) for pair in zip(best, links)]
        note(errors)
    plain = _list_minima(member_lists, plain_rows, best, failed, grid.b)
    if extra.size:
        refined_links = {k for _, ls in refined_rows for k in ls}
        links, errors = plan.scan(extra, grid.b, refined_links)
        note(errors)
        for k in refined_links:  # the record of the lesser ratio first
            parts = sorted((p for p in (best[k], links[k]) if p is not None), key=lambda p: p[1])
            best[k] = _first_min(parts)
    return plain, _list_minima(refined_lists, refined_rows, best, failed, grid.b)


def _chain_reports(chains, minima, grid: GridSpec, margin_guard: float) -> list[ChainReport]:
    described = grid.describe()
    reports = []
    for chain, links in zip(chains, minima):
        if isinstance(links, EvalError):
            reports.append(ChainReport(chain.id, (), False, described, margin_guard, str(links)))
            continue
        texts = chain.member_texts
        link_reports = tuple(
            LinkReport(lhs, rhs, margin, ratio)
            for lhs, rhs, (margin, ratio, _) in zip(texts, texts[1:], links)
        )
        passed = all(l.min_margin > margin_guard for l in link_reports)
        reports.append(ChainReport(chain.id, link_reports, passed, described, margin_guard))
    return reports


def verify_chains(
    chains,
    grid: GridSpec | None = None,
    margin_guard: float = DEFAULT_MARGIN_GUARD,
) -> list[ChainReport]:
    """Evaluate every adjacent link of each chain on the grid; a chain passes
    iff all its margins clear the guard.  The grid is streamed: each chunk
    builds its own ratios and one context that all chains share, and
    evaluates each distinct member and scans each distinct link once.
    Deterministic: the report does not depend on the chunking or the thread
    count.  This is verify_and_probe's stage with no probes."""
    return _verify_stage(list(chains), [], PROBE_EPSILON, grid or GridSpec(), margin_guard)[0]


def verify_chain(
    chain: InequalityChain,
    grid: GridSpec | None = None,
    margin_guard: float = DEFAULT_MARGIN_GUARD,
) -> ChainReport:
    """verify_chains for a single chain."""
    return verify_chains([chain], grid, margin_guard)[0]


# ---------------------------------------------------------------------------
# Probed chains (the constants that sharpness probes perturb)
# ---------------------------------------------------------------------------


def _named(name, side, sign):
    """A probed constant that ratios.named_constants() holds, at its value."""
    return name, _NC[name].value, side, sign


#: Chain id -> (member texts as a function of the constants, citation, and
#: per constant its name, nominal value, side and the sign with which
#: nominal + sign*eps tightens the bound), in the order of the sharpness rows.
_PROBED = {
    "T21a": (
        lambda alpha, beta: (
            f"{alpha!r}*G + {1.0 - alpha!r}*A",
            "X",
            f"{beta!r}*G + {1.0 - beta!r}*A",
        ),
        "sharp convex combinations of G and A around X",
        (_named("alpha", "lower", -1.0), _named("beta", "upper", +1.0)),
    ),
    "T21b": (
        lambda alpha1, beta1: (f"A + G - {alpha1!r}*P", "X", f"A + G - {beta1!r}*P"),
        "sharp bounds A + G - c*P around X",
        (_named("alpha1", "lower", -1.0), _named("beta1", "upper", +1.0)),
    ),
    "T26": (
        lambda alpha2, beta2: (
            f"(A*X)^{1.0 / alpha2!r}",
            "P",
            f"(A*X^{beta2!r})^(1/(1+{beta2!r}))",
        ),
        "sharp exponents placing P between geometric interpolations of A and X",
        (_named("alpha2", "lower", +1.0), _named("beta2", "upper", +1.0)),
    ),
    "E11": (
        lambda p, q: (f"Mp[{p!r}]", "X", f"Mp[{q!r}]"),
        "power-mean window for X (Chu, Long et al.)",
        (("p", _THIRD, "lower", +1.0), _named("q", "upper", -1.0)),
    ),
    "E12": (
        lambda alpha, beta: (f"Hp[{alpha!r}]", "X", f"Hp[{beta!r}]"),
        "Heronian window for X (Zhou et al.)",
        (
            ("alpha", 0.5, "lower", +1.0),
            ("beta", math.log(3.0) / (1.0 + math.log(2.0)), "upper", -1.0),  # ~0.6488
        ),
    ),
    "T24": (
        lambda s, k: (f"Mp[{s!r}]", "(P+X)/2", f"Mp[{k!r}]"),
        "(P+X)/2 between the power means of orders 1/2 and k",
        (("s", 0.5, "lower", +1.0), _named("k", "upper", -1.0)),
    ),
}


def _probed_chain(chain_id: str, constant: str | None = None, value: float | None = None):
    """A probed chain at its nominal constants, or with one of them set to value."""
    texts, citation, constants = _PROBED[chain_id]
    values = {name: value if name == constant else nominal for name, nominal, _, _ in constants}
    return InequalityChain(chain_id, texts(**values), citation)


def _static_chains() -> list[InequalityChain]:
    mk = InequalityChain
    third = repr(_THIRD)
    q = repr(_Q)
    return [
        mk(
            "T11-1",
            ("G", "A*G/P", "X", "A*P/(2*P - G)", "P"),
            "Sandor's bounds: X between G and the Seiffert mean",
        ),
        mk(
            "T11-2",
            ("H", "L*G/A", "Y", "A*G/(2*A - L)", "G"),
            "Sandor's bounds: Y between H and G",
        ),
        mk(
            "T11-3",
            ("1", "L^2/(I*G)", "L*exp(G/L - 1)/G", "P*X/(A*G)"),
            "lower bounds for PX/(AG) through L and I",
        ),
        mk(
            "T11-4",
            ("H", "G^2/I", "L*G/A", "G*(A+L)/(3*A - L)", "Y"),
            "refined harmonic-side bounds for Y",
        ),
        mk(
            "T12-1",
            ("(G+H)/e", "Y", "(G+H)/2"),
            "Y between (G+H)/e and (G+H)/2",
        ),
        mk(
            "T12-2",
            ("G^2", "I*Y", "I*G", "L^2"),
            "product bounds linking Y, I, G, L",
            domain_note=(
                "leading member is G^2; the variant with G^2*I is dimensionally"
                " inhomogeneous and fails for every a != b"
            ),
        ),
        mk(
            "T12-3",
            ("(G - Y)/(A - L)", "(Y+G)/(2*A)", "(3*G+H)/(4*A)", "1"),
            "difference-quotient bounds for Y near G",
        ),
        mk(
            "T12-4",
            ("L", "(2*G+A)/3", "X", "L(X, A)", "P", "(2*A+G)/3", "I"),
            "Carlson chain refined through X and the nested mean L(X, A)",
        ),
        mk(
            "T12-5",
            ("2*(1 - A/P)", "log(X/A)", "(P/A)^2"),
            "logarithmic bounds for X/A",
        ),
        _probed_chain("E11"),
        _probed_chain("E12"),
        _probed_chain("T21a"),
        _probed_chain("T21b"),
        mk(
            "R-ine1502a",
            ("X", "A*(1/e + (1 - 1/e)*G/P)"),
            "Sandor's upper bound for X via G/P",
        ),
        mk(
            "R-ine1502b",
            ("Y", "G*(1/e + (1 - 1/e)*L/A)"),
            "Sandor's upper bound for Y via L/A",
        ),
        mk(
            "T22",
            ("(A+G)/e", "X", f"Mp[{q}]", "(L+I)/2", "(A+G)/2"),
            "(A+G)/e < X < M_q < (L+I)/2, refining Alzer's bound",
        ),
        mk(
            "R-2402c",
            ("L", f"Mp[{third}]", "X", f"Mp[{q}]", "(L+I)/2", "I"),
            "power-mean ladder from L to I around X",
            domain_note=(
                "the sometimes-printed tail I < M_(2/3) is omitted: it fails for"
                " large ratios (already at a/b = 4, where I ~ 2.33588 exceeds"
                " M_(2/3) ~ 2.33471; the sharp upper power for I is log 2)"
            ),
        ),
        mk(
            "T23",
            ("A + G - P", "X", "P^2/A", "(A+G)/2"),
            "A + G - P below X below P^2/A",
        ),
        mk(
            "R-2402e",
            (
                "L",
                "(2*G+A)/3",
                "A + G - P",
                "X",
                "sqrt(P*X)",
                "(A+G)/2",
                "(P+X)/2",
                "P",
                "(2*A+G)/3",
                "I",
            ),
            "ten-term refinement interleaving X, sqrt(PX), (P+X)/2 and P",
        ),
        mk(
            "R-P2",
            ("A*X", "(A^2*((A+G)/2)^4)^(1/3)", "P^2"),
            "P^2 above a geometric interpolation of A^2 and ((A+G)/2)^4 above AX",
        ),
        _probed_chain("T24"),
        mk(
            "R-2402g",
            ("sqrt(A*G)", "sqrt(P*X)", "(A+G)/2"),
            "sqrt(PX) between the geometric and arithmetic means of A and G",
        ),
        mk(
            "T25a",
            (f"Mp[{third}]", "(2*G+A)/3", "X"),
            "M_(1/3) below the Carlson bound below X",
        ),
        mk(
            "T25b",
            ("Hp[0.5]", "(2*G+A)/3", "X"),
            "H_(1/2) below the Carlson bound below X",
        ),
        _probed_chain("T26"),
        mk(
            "C-AGe",
            ("(A+G)/e", "X", "(A+G)/2"),
            "(A+G)/e < X < (A+G)/2 with best constants e and 2",
        ),
        mk("C27-1", ("A*G", "P*L", "P*X"), "PX > PL > AG"),
        mk("C27-2", ("A*G", "P*L", "I*L"), "IL > PL > AG (improves IL > AG)"),
        mk(
            "C-46-1",
            ("L", "(2*G+A)/3", "A*(P+G)/(3*P - G)", "X"),
            "X above A(P+G)/(3P-G) above the Carlson bound",
        ),
        mk(
            "C-46-2",
            ("(P+G)/2", "X", "P^2/A"),
            "X between (P+G)/2 and P^2/A",
        ),
        mk(
            "C-2202a",
            ("I/L", "L/G", "1 + G/H - I/G"),
            "I/L < L/G < 1 + G/H - I/G (equivalent to L + I < A + G)",
        ),
        mk("R-ineq6", ("sqrt(I*G)", "L"), "Alzer's inequality L > sqrt(IG)"),
        mk(
            "R-0209f",
            ("sqrt(A*X)", "P", "A*(X/A)^log(pi/2)"),
            "sqrt(AX) < P < A(X/A)^log(pi/2)",
        ),
        mk(
            "C-coro89",
            ("A/e", "pi/(2*e)*P", "X", "P"),
            "A/e < (pi/(2e))P < X < P",
        ),
        mk("R-seiffert", ("2/pi*A", "P"), "Seiffert's lower bound (2/pi)A < P"),
        mk(
            "R-halfpi",
            ("(2/pi*A + G)/2", "X"),
            "X above the half-sum of (2/pi)A and G",
        ),
    ]


_SUITE: tuple[InequalityChain, ...] | None = None


def _sanity_check(chains) -> None:
    # finite near the diagonal, strictly ascending at a reference point
    ctx = GridContext(np.array([1.0 + 1e-6, 4.0]), 1.0)
    for chain in chains:
        near, ref = np.array([ctx.evaluate(m) for m in chain.members]).T
        if not np.all(np.isfinite(near)):
            raise ConfigError(f"chain {chain.id} not finite near the diagonal")
        if not np.all(ref[:-1] < ref[1:]):
            raise ConfigError(f"chain {chain.id} is not ascending at (4, 1)")


def builtin_suite() -> tuple[InequalityChain, ...]:
    """The full chain registry (validated once, then cached)."""
    global _SUITE
    if _SUITE is None:
        chains = _static_chains()
        ids = [c.id for c in chains]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate chain ids in the registry")
        _sanity_check(chains)
        _SUITE = tuple(chains)
    return _SUITE


# ---------------------------------------------------------------------------
# Sharpness probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeTemplate:
    chain_id: str
    constant: str
    nominal: float
    side: str  # "lower" | "upper"
    tighten_sign: float  # nominal + sign*eps tightens the bound
    build: object = field(repr=False)  # callable(value) -> InequalityChain

    @property
    def direction(self) -> str:
        return "tighten_lower" if self.side == "lower" else "tighten_upper"


_TEMPLATES = {
    (chain_id, name): ProbeTemplate(chain_id, name, *rest, partial(_probed_chain, chain_id, name))
    for chain_id, (_, _, constants) in _PROBED.items()
    for name, *rest in constants
}


@dataclass(frozen=True)
class ProbeOutcome:
    chain_id: str
    constant: str
    direction: str
    epsilon: float
    violated: bool
    pair: tuple[float, float] | None
    worst_margin: float | None
    error: str | None = None

    @property
    def label(self) -> str:
        if self.error is not None:
            return "error"
        return "violation_found" if self.violated else "still_holds"

    def as_dict(self) -> dict:
        row = {
            "chain": self.chain_id,
            "constant": self.constant,
            "direction": self.direction,
            "epsilon": self.epsilon,
            "outcome": self.label,
            "pair": list(self.pair) if self.pair else None,
            "worst_margin": self.worst_margin,
        }
        if self.error is not None:
            row["error"] = self.error
        return row


def _probe_outcomes(templates, epsilon: float, grid: GridSpec, minima) -> list[ProbeOutcome]:
    outcomes = []
    for tpl, links in zip(templates, minima):
        head = (tpl.chain_id, tpl.constant, tpl.direction, epsilon)
        if isinstance(links, EvalError):
            outcomes.append(ProbeOutcome(*head, False, None, None, str(links)))
            continue
        worst, worst_ratio = math.inf, None
        for margin, ratio, _ in links:
            if margin < worst:
                worst, worst_ratio = margin, ratio
        violated = worst < -DEFAULT_MARGIN_GUARD
        pair = (float(worst_ratio * grid.b), float(grid.b)) if violated else None
        outcomes.append(ProbeOutcome(*head, violated, pair, worst))
    return outcomes


def _verify_stage(chains, templates, epsilon: float, grid: GridSpec, margin_guard: float):
    """The chains' reports on the grid and the templates' probe outcomes,
    each constant tightened by epsilon, on the refined grid: one pass."""
    tightened = [tpl.build(tpl.nominal + tpl.tighten_sign * epsilon).members for tpl in templates]
    chain_minima, probe_minima = _grid_link_minima([c.members for c in chains], grid, tightened)
    return (
        _chain_reports(chains, chain_minima, grid, margin_guard),
        _probe_outcomes(templates, epsilon, grid, probe_minima),
    )


def verify_and_probe(
    chains,
    grid: GridSpec | None = None,
    margin_guard: float = DEFAULT_MARGIN_GUARD,
) -> tuple[list[ChainReport], list[ProbeOutcome]]:
    """verify_chains(chains, grid, margin_guard) and sharpness_probes(grid)
    in one pass over the grid.  Each grid chunk gets one context, on which
    each distinct member of the chains and of the tightened probe chains is
    evaluated once and each distinct link scanned once; the refined grid's
    extra points form one more chunk, on which only the probe chains are
    evaluated.  The results are those of the two calls, bit for bit."""
    return _verify_stage(
        list(chains), list(_TEMPLATES.values()), PROBE_EPSILON, grid or GridSpec(), margin_guard
    )


def sharpness_probe(
    chain_id: str,
    constant: str,
    direction: str,
    epsilon: float,
    grid: GridSpec | None = None,
) -> ProbeOutcome:
    """Tighten one chain constant by epsilon and hunt for a violation on the
    refined grid.  violation_found certifies the constant cannot be improved
    by epsilon; still_holds means no resolvable counterexample; error means
    the tightened chain could not be evaluated on the grid (the error text is
    the outcome's error).

    Two probed constants are not shown sharp this way.  T24's k is a valid
    upper order but not the best one: the best order is about 0.5016276, so
    k can be tightened by up to ~0.036 and the chain still holds.  T26's
    alpha2 = 2 is forced by homogeneity, not by a tangency: (A*X)^(1/alpha2)
    has degree 2/alpha2, so any other value compares quantities of different
    degree, and at fixed b the outcome depends on b (with b = 1 the grid has
    A*X > 1, a larger alpha2 only lowers the left side, and the probe reads
    still_holds)."""
    if direction not in ("tighten_upper", "tighten_lower"):
        raise DomainError("direction must be tighten_upper or tighten_lower")
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise DomainError("epsilon must be a positive real")
    tpl = _TEMPLATES.get((chain_id, constant))
    if tpl is None:
        known = sorted({c for c, _ in _TEMPLATES})
        raise DomainError(
            f"chain {chain_id!r} has no probe template for constant {constant!r}"
            f" (parameterized chains: {known})"
        )
    if direction != tpl.direction:
        raise DomainError(
            f"constant {constant!r} of {chain_id} is a {tpl.side}-side constant;"
            f" use {tpl.direction}"
        )
    return _verify_stage([], [tpl], epsilon, grid or GridSpec(), DEFAULT_MARGIN_GUARD)[1][0]


def sharpness_probes(grid: GridSpec | None = None) -> list[ProbeOutcome]:
    """sharpness_probe for every template, in registry order, tightening
    each constant by PROBE_EPSILON.  The refined grid is streamed like the
    chain stage's: each grid chunk gets one context that all probes share,
    and the refined grid's extra points form one more chunk.  This is
    verify_and_probe's stage with no chains."""
    templates = list(_TEMPLATES.values())
    return _verify_stage([], templates, PROBE_EPSILON, grid or GridSpec(), DEFAULT_MARGIN_GUARD)[1]


# ---------------------------------------------------------------------------
# Best-exponent bracketing and the product conjecture scan
# ---------------------------------------------------------------------------


#: A bracket point is decided in log space when it clears its line by more
#: than _LOG_SLACK EPS (1 + |T|); see _OrderTest.
_LOG_SLACK = 16.0

#: The computed log(M_s/G) is within _E_BOUND EPS y of the exact one at
#: every order s; see _OrderTest.
_E_BOUND = 16.0


class _Points(NamedTuple):
    """Points of the refined grid that an order is decided on: their y and
    their two lines."""

    y: np.ndarray
    hold: np.ndarray
    fail: np.ndarray


class _OrderTest:
    """The bracket's predicate: whether M_s lies on the holding side of the
    target everywhere on the refined grid: _rel_margins > -margin_guard,
    with M_s from power_mean.

    With T = log(tv/G) and E_s = log(M_s/G) (power_mean_exponent, the bits
    power_mean raises to M_s = G e^E_s), and margin_guard in [0, 1/2], the
    margin clears the guard where +-(T - E_s) > log1p(-margin_guard), + on
    the lower side.  That is exact in real arithmetic; what the computed
    margin adds to it, in units of EPS, is at most
      - 0.5 for tv/G and 4 |T| for the log of it;
      - 4 for exp(E_s) and 0.5 for its product with G (E_s itself has the
        same bits on both paths);
      - 1 for the margin: near the guard tv - M_s is exact (Sterbenz, as
        tv/M_s is in [1/2, 2]), and the one division moves the margin by
        EPS/2 relative, or at most EPS in log space where margin_guard <= 1/2;
      - 1 + |T| for log1p(-margin_guard) and the two roundings of a line;
    8 (1 + |T|) in all, with no |E_s| term, since E_s is compared with a
    line, exactly, and never subtracted.  A point is settled when it clears
    its line by twice that, _LOG_SLACK EPS (1 + |T|).  The model needs M_s,
    which lies in [lo, hi], and tv/G to be normal doubles; grids and guards
    outside it, and orders where some point is not settled, take the exact
    predicate.  (numpy's float64 exp, log, sinh and log1p are taken to be
    within 4 ulp; against mpmath they measure under 1 ulp on 10 000 points
    each, with numpy 2.4 on AVX-512.)

    decide holds an order where every hold - E_s clears 0 on the holding
    side, and fails it where some fail - E_s is past 0 on the failing side;
    hold lies on the holding side of fail at every point.  Three rules give
    decide's verdict for fewer whole-grid passes of the kernel:
      - the sign rule.  E_s has the sign of s, bit for bit: log1p of the
        nonnegative weight sinh(p y/2)^2 is >= 0, the wide branch's
        |p y| - asymptote is positive, and each is divided by p; the p -> 0
        branch p y^2/divisor has the sign of p; E_0 = 0.  Rounding is
        monotone, so line - E_s >= line where E_s <= 0 and <= line where
        E_s >= 0.  On the lower side, then, every s <= 0 holds where
        hold.min() > 0, and every s >= 0 fails where fail.min() < 0 (hold
        <= fail < 0 at that point, so decide does not hold it first); on the
        upper side every s <= 0 fails where fail.max() > 0 and every s >= 0
        holds where hold.max() < 0.
      - the witness.  The point that decide last found furthest past its
        failing line is tried first, on its y alone, where E_s has the bits
        it has on the grid.  If it is a settled failure there, decide fails
        the order: that point is past its hold line as well.
      - the failing set.  At a point of the pair's y, log(M_s/G) is exactly
        log(cosh(s y))/s, which rises with s, and the computed E_s is within
        13.5 EPS y of it at every order, in each branch of
        power_mean_exponent (y <= 1000 log 2 inside the model):
          - |s y| <= 700: z = (s/2) y carries one rounding, which sinh(z)
            amplifies by z coth z and the square doubles; log1p(w) of
            w = 2 sinh(z)^2 scales an error of w by w/(1 + w), and
            (w/(1 + w)) coth z = tanh 2z <= 1, which leaves 0.5 EPS y after
            the division by s.  sinh, the square and the product add 8.5 EPS
            relative to w, at most 8.5 EPS |E_s| after log1p (w/(1 + w) <=
            log1p(w)); log1p and the division add 4.5 EPS |E_s|; and
            |E_s| <= y, since M_s lies in [lo, hi].
          - |s y| > 700: (|s y| - log 2)/s drops log1p(e^(-2|s y|)), below
            e^-1400, and its three roundings add under 2 EPS y (|s| > 1).
          - |s| < POWER_LIMIT_THRESHOLD: s y^2/2 is log(cosh(s y))/s to
            within |s|^3 y^4/12 <= 0.13 EPS y, and its rounding is far less.
        So at every order s on the holding side of an order f (s < f on
        the lower side, s > f on the upper), E_s lies at most 27 EPS y past
        E_f toward the failing side.  A point where the computed hold - E_f
        clears 0 on the holding side by more than 2 _E_BOUND EPS y = 32 EPS y
        (the 5 to spare cover the second-order terms and the rounding of
        hold - E_f) is then settled held at every such s.  Once a bisection
        midpoint f fails, the points not settled held at f so, in grid order
        and with NaN points kept, hold every point that can fail or stay
        unsettled at the later midpoints, which all lie on f's holding side
        (each failing midpoint becomes the bracket's new end).  decide on
        them alone gives the whole grid's verdict, its None and its witness
        (the first failing argmin), since E_s is computed elementwise from y.
        Each midpoint that fails on the set narrows it.  A set of more than
        half the grid is not kept, since gathering it would save little.
        The integer scan stays on the whole grid: its non-monotone check is
        what would catch a predicate that breaks the rule, and a set would
        hide it."""

    def __init__(self, expr, lower: bool, grid: GridSpec, margin_guard: float):
        pair = self.pair = _refined_pair(grid)
        self.a, self.b = pair.hi, grid.b
        self.tv = np.asarray(GridContext(self.a, self.b, pair=pair).evaluate(expr))
        if np.any(~(self.tv > 0.0)):
            raise DomainError("target must evaluate positive on the grid")
        self.lower, self.guard = lower, margin_guard
        # the verdicts of every s <= 0 and every s >= 0 that the sign rule
        # fixes, the witness (its failing line and its y), and the points
        # decided on: the whole grid, and the failing set
        self.signed, self.witness = (None, None), None
        self.whole = self.failing = None
        normal = pair.lo.min() >= 2.0**-1000 and pair.hi.max() <= 2.0**1000
        if not (normal and 0.0 <= margin_guard <= 0.5):
            return
        with np.errstate(all="ignore"):
            t = np.divide(self.tv, geometric(self.a, self.b, pair=pair))
            np.log(t, out=t)
        slack = np.abs(t)
        if not slack.max() <= 700.0:  # tv/G normal; NaN fails this too
            return
        # with L = log1p(-margin_guard), the lower side holds where every
        # E_s < T - L - slack and fails where some E_s > T - L + slack, the
        # upper side holds where every E_s > T + L + slack and fails where
        # some E_s < T + L - slack
        sign = 1.0 if lower else -1.0
        slack += 1.0
        slack *= sign * _LOG_SLACK * _EPS
        t -= sign * math.log1p(-margin_guard)
        hold = t - slack
        t += slack
        self.whole = _Points(pair.y, hold, t)
        if lower:
            self.signed = (True if hold.min() > 0.0 else None, False if t.min() < 0.0 else None)
        else:
            self.signed = (False if t.max() > 0.0 else None, True if hold.max() < 0.0 else None)

    def exact(self, s: float) -> bool:
        m = np.asarray(power_mean(self.a, self.b, s, pair=self.pair))
        margins = _rel_margins(m, self.tv) if self.lower else _rel_margins(self.tv, m)
        return float(np.min(margins)) > -self.guard

    def decide(self, s: float) -> bool | None:
        """The predicate at order s where every point is settled in log
        space, else None.  A failing order makes its furthest failure the
        witness."""
        return self._decide(s, self.whole)

    def _decide(self, s: float, points: _Points | None, narrow: bool = False) -> bool | None:
        """decide on the points, which hold every point that can fail or
        stay unsettled at s; narrow: a failing s makes the failing set."""
        if points is None:
            return None
        e = power_mean_exponent(points.y, s)
        held = points.hold - e  # NaN settles nothing
        if held.min() > 0.0 if self.lower else held.max() < 0.0:
            return True
        missed = points.fail - e
        # argmin and argmax pick a NaN first, and a NaN settles nothing
        j = int(missed.argmin() if self.lower else missed.argmax())
        if not (missed[j] < 0.0 if self.lower else missed[j] > 0.0):
            return None
        self.witness = points.fail[j], points.y[j]
        if narrow:
            self._narrow(points, held)
        return False

    def _narrow(self, points: _Points, held) -> None:
        """After an order failed on the points, with hold - E there: the
        failing set, of the points not settled held by more than
        2 _E_BOUND EPS y."""
        cut = points.y * ((1.0 if self.lower else -1.0) * 2.0 * _E_BOUND * _EPS)
        keep = np.flatnonzero(~(held > cut) if self.lower else ~(held < cut))
        if 2 * keep.size <= self.a.size:
            self.failing = _Points(points.y[keep], points.hold[keep], points.fail[keep])

    def __call__(self, s: float, midpoint: bool = False) -> bool:
        """The predicate at order s.  midpoint: s is a bisection midpoint,
        decided on the failing set once there is one."""
        nonpositive, nonnegative = self.signed
        if s <= 0.0 and nonpositive is not None:
            return nonpositive
        if s >= 0.0 and nonnegative is not None:
            return nonnegative
        if self.witness is not None:
            line, y = self.witness
            missed = line - power_mean_exponent(y, s)
            if missed < 0.0 if self.lower else missed > 0.0:
                return False
        points = (self.failing or self.whole) if midpoint else self.whole
        decided = self._decide(s, points, narrow=midpoint)
        return self.exact(s) if decided is None else decided


def bracket_best_exponent(
    target,
    side: str,
    tolerance: float,
    grid: GridSpec | None = None,
    margin_guard: float = DEFAULT_MARGIN_GUARD,
) -> float:
    """Bisect for the critical power-mean order against a target expression.

    side="lower": largest s with M_s < target everywhere on the refined grid
    (the relation holds for small s and breaks as s grows); side="upper":
    smallest s with target < M_s (holds for large s).  The returned estimate
    sits on the holding side of a bracket of width <= tolerance, or of the
    narrowest bracket that doubles can split, for a tolerance below their
    spacing there.

    The integer orders are tried from the holding end (ascending on the
    lower side, descending on the upper), so that the first failing order,
    the one nearest the critical order, picks the witness of _OrderTest;
    they are reported in ascending order.

    margin_guard=0 nearly always raises "no integer exponent ... satisfies":
    on the refined grid's near points, a/b from 1 + 1e-12 to 1 + 1e-6, M_s
    and the target round to the same double at some point for every order
    (at a/b = 1 + 1e-12 for each integer s in [-8, 8] against X), so the
    margin there is 0 and 0 > -0 fails.  The cause is the resolution of
    the arithmetic, not the relation; a positive guard accepts those ties.
    """
    if side not in ("lower", "upper"):
        raise DomainError("side must be 'lower' or 'upper'")
    if not (tolerance > 0.0 and math.isfinite(tolerance)):
        raise DomainError("tolerance must be positive")
    expr = parse_expr(target) if isinstance(target, str) else target
    lower = side == "lower"
    holds = _OrderTest(expr, lower, grid or GridSpec(), margin_guard)

    steps = np.arange(BRACKET_SEARCH_RANGE[0], BRACKET_SEARCH_RANGE[1] + 1.0).tolist()
    verdicts = {s: holds(s) for s in (steps if lower else steps[::-1])}
    flags = [verdicts[s] for s in steps]
    if not any(flags):
        raise DomainError(
            f"no integer exponent in {BRACKET_SEARCH_RANGE} satisfies the {side} relation"
        )
    if all(flags):
        raise DomainError(f"the {side} relation never breaks inside {BRACKET_SEARCH_RANGE}")
    # The relation holds below the critical order on the lower side and above
    # it on the upper side; a monotone predicate puts every step below that
    # order in one run at the small end.
    below = flags if lower else [not f for f in flags]
    if below != sorted(below, reverse=True):
        raise NonMonotonePredicateError(
            f"predicate not monotone over integer scan {steps}: {flags}"
        )
    k = below.count(True)
    lo, hi = steps[k - 1], steps[k]
    # invariant: lo is below the critical order and hi is not
    while abs(hi - lo) > tolerance:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            break
        if holds(mid, midpoint=True) == lower:
            lo = mid
        else:
            hi = mid
    return lo if lower else hi


def conjecture_margin_expr() -> tuple[MeanExpr, MeanExpr]:
    return parse_expr("P*X"), parse_expr("I*L")


@dataclass(frozen=True)
class ConjectureReport:
    min_margin: float
    min_difference: float
    argmin_ratio: float
    sign: str
    resolved: bool
    note: str

    def as_dict(self) -> dict:
        return {
            "min_relative_margin": self.min_margin,
            "min_difference": self.min_difference,
            "argmin_ratio": self.argmin_ratio,
            "sign": self.sign,
            "resolved": self.resolved,
            "note": self.note,
        }


def conjecture_scan(grid: GridSpec | None = None) -> ConjectureReport:
    """Minimum of P*X - I*L over the grid: numerical evidence only.  The
    grid is streamed in chunks, like the chain stage's."""
    grid = grid or GridSpec()
    px_expr, il_expr = conjecture_margin_expr()
    [links], _ = _grid_link_minima([(il_expr, px_expr)], grid)
    if isinstance(links, EvalError):
        raise links
    [(m, ratio, difference)] = links
    # a NaN minimum (both products overflow there) fails every comparison
    sign = "positive" if m > 0 else "negative" if m < 0 else "zero" if m == 0 else "undefined"
    return ConjectureReport(
        min_margin=m,
        min_difference=difference,
        argmin_ratio=ratio,
        sign=sign,
        resolved=False,
        note=(
            "grid evidence only; the strict inequality P*X > I*L is unresolved."
            " Near a == b the two products agree beyond double precision, so"
            " the reported minimum reflects arithmetic resolution there."
        ),
    )
