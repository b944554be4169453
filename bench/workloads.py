"""The benchmark's workloads: inputs from a seed, one op, and output checks.

Each workload is a closed loop with one client in one process.  ``op(i)``
runs the i-th operation and returns what the program produced; ``keep``
stores it outside the op's time; ``check`` runs after the timed region and
returns the number of checked and failed ops, whether the outputs pass the
workload's correctness gate, and the problems found.  The ops cycle over a
fixed set of inputs and ``input_of(i)`` names the i-th op's input, so that
every input repeats through the run.  The traced run replays at most
``trace_cap`` ops.  Ops call meanlab through module attributes at call time,
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

DBL_MIN = 2.2250738585072014e-308
DBL_MAX = 1.7976931348623157e308


@dataclass
class Outcome:
    attempted: int
    failed: int
    correct: bool
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# verify_grid
# ---------------------------------------------------------------------------

#: Link margins must match the recorded reference to this absolute
#: tolerance (relative for margins above 1 in magnitude).  At one commit the
#: report is byte-identical; the slack admits last-ulp differences between
#: numpy builds.
MARGIN_TOLERANCE = 1e-14


def reference_path(points: int) -> Path:
    return REFERENCE_DIR / f"verify_grid-{points}.json"


def summarize_verify(report: dict, conjecture: dict) -> dict:
    """The parts of a verify/conjecture report that the reference pins."""
    return {
        "chains": [c["chain"] for c in report["chains"]],
        "margins": {
            f'{c["chain"]} | {l["lhs"]} < {l["rhs"]}': l["min_margin"]
            for c in report["chains"]
            for l in c["links"]
        },
        "sharpness": {f'{s["chain"]}.{s["constant"]}': s["outcome"] for s in report["sharpness"]},
        "conjecture_sign": conjecture["sign"],
    }


def check_verify(rc_verify, report, rc_conjecture, conjecture, reference) -> list[str]:
    """Problems with one verify_grid op; an empty list means it passed."""
    problems = []
    if rc_verify != 0:
        problems.append(f"verify exited {rc_verify}, expected 0")
    if rc_conjecture != 0:
        problems.append(f"conjecture exited {rc_conjecture}, expected 0")
    if report is None or conjecture is None:
        return problems + ["missing report"]
    if reference is None:
        return problems + ["no reference recorded for this grid"]
    if report.get("overall_pass") is not True:
        problems.append("overall_pass is not true")
    got = summarize_verify(report, conjecture)
    if got["chains"] != reference["chains"]:
        problems.append(f"chains {got['chains']} differ from the reference")
    failing = [c["chain"] for c in report["chains"] if not c["passed"]]
    if failing:
        problems.append(f"chains failed: {failing}")
    if got["sharpness"] != reference["sharpness"]:
        diff = {k: v for k, v in got["sharpness"].items() if reference["sharpness"].get(k) != v}
        problems.append(f"sharpness outcomes differ from the reference: {diff}")
    ref_margins = reference["margins"]
    if set(got["margins"]) != set(ref_margins):
        problems.append("link set differs from the reference")
    for key, ref in ref_margins.items():
        m = got["margins"].get(key)
        if m is not None and not abs(m - ref) <= MARGIN_TOLERANCE * max(1.0, abs(ref)):
            problems.append(f"margin of {key} is {m!r}, reference {ref!r}")
    if got["conjecture_sign"] != "positive":
        problems.append(f"conjecture sign is {got['conjecture_sign']}, expected positive")
    return problems


class VerifyGrid:
    why = ("the headline use: a verdict on all 36 chains plus the conjecture scan; "
           "bulk kernels, the expression cache, link scans and the thread pool do the work")
    warmup_ops = 0
    trace_cap = 2

    def __init__(self, cli, workdir: Path, points: int = 300_000, threads: int = 1):
        self.results = []
        self.cli = cli
        self.workdir = workdir
        self.points = points
        self.size = {"points": points, "member_array_bytes": 8 * points, "grid_min": 0.1,
                     "threads": threads}

    def prepare(self, seed: int) -> None:
        # The grid is the input and it is fixed; the seed has nothing to vary.
        self.grid = ["--grid-min", "0.1", "--points", str(self.points)]

    def op(self, i: int):
        report = self.workdir / f"verify-{i}.json"
        conj = self.workdir / f"conjecture-{i}.json"
        rc_v = self.cli.main(["verify", *self.grid, "--out", str(report)])
        rc_c = self.cli.main(["conjecture", *self.grid, "--out", str(conj)])
        return rc_v, report, rc_c, conj

    def input_of(self, i: int) -> int:
        return 0

    def keep(self, i: int, result) -> None:
        self.results.append(result)

    def check(self) -> Outcome:
        path = reference_path(self.points)
        reference = json.loads(path.read_text()) if path.is_file() else None
        failed, problems = 0, []
        for rc_v, report, rc_c, conj in self.results:
            found = check_verify(rc_v, _load(report), rc_c, _load(conj), reference)
            failed += bool(found)
            problems += found
        return Outcome(len(self.results), failed, failed == 0, sorted(set(problems)))


def _load(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# bracket_sweep
# ---------------------------------------------------------------------------

BRACKET_TOLERANCE = 1e-6
#: A bracket may sit this far from its critical exponent.  The refined grid
#: ends at a/b = 1e12, and X's upper exponent is reached only as a/b -> inf:
#: the measured gap there is 5.8e-6.
BRACKET_ALLOWANCE = 10 * BRACKET_TOLERANCE
_LOG2 = math.log(2.0)
BRACKET_CASES = {
    ("X", "lower"): 1.0 / 3.0,
    ("X", "upper"): _LOG2 / (1.0 + _LOG2),
    ("P", "lower"): _LOG2 / math.log(math.pi),
    ("P", "upper"): 2.0 / 3.0,
    ("I", "lower"): 2.0 / 3.0,
    ("I", "upper"): _LOG2,
    ("(P+X)/2", "lower"): 0.5,
    # no closed form is known; measured with the default grid at tolerance 1e-6
    ("(P+X)/2", "upper"): 0.5016279220581055,
}


def check_bracket(target: str, side: str, value) -> str | None:
    expected = BRACKET_CASES[(target, side)]
    if isinstance(value, BaseException):
        return f"bracket {target} {side} raised {type(value).__name__}: {value}"
    if not abs(value - expected) <= BRACKET_ALLOWANCE:
        return f"bracket {target} {side} = {value!r}, expected {expected!r} +- {BRACKET_ALLOWANCE}"
    return None


class BracketSweep:
    why = ("about 40 power_mean calls per bracket on an L2-resident grid; bypasses the "
           "expression cache, the thread pool and the large grid")
    warmup_ops = len(BRACKET_CASES)
    trace_cap = 10 * len(BRACKET_CASES)

    def __init__(self, chains):
        self.results = []
        self.chains = chains
        self.cases = list(BRACKET_CASES)
        self.size = {"brackets": len(self.cases), "tolerance": BRACKET_TOLERANCE,
                     "grid": "default 1e4 points + 200 refined"}

    def prepare(self, seed: int) -> None:
        # one op is one bracket; each sweep of len(cases) ops brackets every
        # case once, in an order drawn from the seed
        rng = random.Random(seed)
        n = len(self.cases)
        self.order = [j for _ in range(64) for j in rng.sample(range(n), n)]

    def input_of(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def op(self, i: int):
        target, side = self.cases[self.input_of(i)]
        try:
            return self.chains.bracket_best_exponent(target, side, BRACKET_TOLERANCE)
        except Exception as exc:  # a failed bracket is counted, not fatal
            return exc

    def keep(self, i: int, result) -> None:
        self.results.append((*self.cases[self.input_of(i)], result))

    def check(self) -> Outcome:
        problems = [p for p in (check_bracket(*r) for r in self.results) if p]
        failed = len(problems)
        return Outcome(len(self.results), failed, failed == 0, sorted(set(problems)))


# ---------------------------------------------------------------------------
# scalar_eval
# ---------------------------------------------------------------------------

MEAN_SYMBOLS = ("A", "G", "H", "L", "I", "P", "X", "Y", "Mp[0.3333333333333333]", "Hp[0.5]")
#: Relative error against mpmath above which a sampled op counts as failed.
ORACLE_TOLERANCE = 1e-12
#: Registry expressions on the registry's range must agree with mpmath to
#: this relative error for the run to be correct.  The worst seen when the
#: benchmark was written is 5e-9, for (G - Y)/(A - L) near a/b = 1e8.
REGISTRY_GATE = 1e-7
#: The stream the input pairs are drawn from.  It is the same for every
#: seed, so every run probes the same full-range pairs and counts the same
#: failed inputs; the seed draws the order in which the inputs run.
INPUT_STREAM = 20170320


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def make_scalar_inputs(texts, stream: int, count: int):
    """(family, text, a, b) tuples: half registry, half full-range mean symbols."""
    rng = random.Random(stream)
    ops = []
    for _ in range(count):
        if rng.random() < 0.5:
            b = _log_uniform(rng, 1e-3, 1e3)
            a = b * _log_uniform(rng, 1.0 + 1e-6, 1e8)
            ops.append(("registry", rng.choice(texts), a, b))
        else:
            a, b = _log_uniform(rng, DBL_MIN, DBL_MAX), _log_uniform(rng, DBL_MIN, DBL_MAX)
            ops.append(("symbol", rng.choice(MEAN_SYMBOLS), a, b))
    return ops


def op_rule(family: str, a: float, b: float, value) -> str | None:
    """Why one op failed its per-op rule, or None."""
    if isinstance(value, BaseException):
        return f"raised {type(value).__name__}"
    if not math.isfinite(value):
        return "non-finite"
    if family == "symbol" and not (min(a, b) <= value <= max(a, b)):
        return "outside [min(a,b), max(a,b)]"
    return None


def same_result(x, y) -> bool:
    if isinstance(x, BaseException) or isinstance(y, BaseException):
        return type(x) is type(y)
    return x == y or (math.isnan(x) and math.isnan(y))


class ScalarEval:
    why = ("the grid kernels on 0-d inputs where per-call dispatch dominates; "
           "full-range pairs count the kernels' range defects as failures")
    warmup_ops = 200
    trace_cap = 10_000

    def __init__(self, chains, expressions, pool: int = 4096, oracle_samples: int | None = None):
        self.chains = chains
        self.expressions = expressions
        self.pool = pool
        self.oracle_samples = pool if oracle_samples is None else min(oracle_samples, pool)
        self.size = {"pool": pool, "oracle_checked": self.oracle_samples,
                     "input_stream": INPUT_STREAM,
                     "registry_pairs": "b in [1e-3, 1e3], a/b in [1+1e-6, 1e8], log-uniform",
                     "symbol_pairs": "a, b log-uniform over the positive normal doubles"}

    def prepare(self, seed: int) -> None:
        texts = sorted({t for c in self.chains.builtin_suite() for t in c.member_texts})
        self.inputs = make_scalar_inputs(texts, INPUT_STREAM, self.pool)
        self.order = random.Random(seed).sample(range(self.pool), self.pool)
        self.first = [None] * self.pool  # each input's result on its first run
        self.ran = 0  # distinct inputs run so far
        self.unstable = []  # ops whose result differs from the same input's first result

    def input_of(self, i: int) -> int:
        return self.order[i % self.pool]

    def op(self, i: int):
        family, text, a, b = self.inputs[self.input_of(i)]
        try:
            return self.expressions.evaluate(self.expressions.parse_expr(text), a, b)
        except Exception as exc:  # a failed op is counted, not fatal
            return exc

    def keep(self, i: int, result) -> None:
        # later passes repeat the inputs; keeping only the first result of
        # each holds the harness's memory constant however many ops run
        j = self.input_of(i)
        if i < self.pool:
            self.first[j] = result
            self.ran = i + 1
        elif not same_result(result, self.first[j]):
            self.unstable.append(i)

    def check(self) -> Outcome:
        import oracle  # mpmath loads only after the timed region

        failures: dict[str, int] = {}
        failed_inputs = set()
        gate = [f"op {i} differs from the first result for its input" for i in self.unstable]

        def fail(j, why, gated):
            family, text, a, b = self.inputs[j]
            failed_inputs.add(j)
            key = f"{text} {why}"
            failures[key] = failures.get(key, 0) + 1
            if gated and family == "registry":
                gate.append(f"{text} at ({a!r}, {b!r}) {why}")

        ran = sorted(self.order[:self.ran])
        for j in ran:
            family, text, a, b = self.inputs[j]
            why = op_rule(family, a, b, self.first[j])
            if why:
                fail(j, why, gated=True)
        worst = 0.0
        checked = ran[:self.oracle_samples]
        for j in checked:
            if j in failed_inputs:
                continue
            family, text, a, b = self.inputs[j]
            err = oracle.relative_error(self.first[j], text, a, b)
            if family == "registry":
                worst = max(worst, err)
            if err > REGISTRY_GATE:
                fail(j, f"off mpmath by {err:.3g}", gated=True)
            elif err > ORACLE_TOLERANCE:
                fail(j, f"off mpmath by > {ORACLE_TOLERANCE:g}", gated=False)
        failed = len(failed_inputs) + len(self.unstable)
        detail = {"failures": failures, "oracle_checked": len(checked),
                  "registry_worst_rel_error": worst}
        return Outcome(len(ran), failed, not gate, gate, detail)
