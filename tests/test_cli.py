import json
import math
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from meanlab import chains, cli, means, ratios
from meanlab.chains import GridSpec, builtin_suite
from meanlab.cli import main

import oracles


@pytest.fixture
def run(capsys):
    def _run(*argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return _run


FAST_VERIFY = ("--grid-min", "0.1", "--grid-max", "1e8", "--points", "500")

# a/b in [1 + 1e-12, 1.0001]: below a/b - 1 ~ 1e-8 many links' margins round
# to the same value at several points, so chunks of 300 points split ties
NEAR_DIAGONAL = ("--grid-min", "1e-12", "--grid-max", "1.0001", "--points", "2000")


def chunked(monkeypatch, chunk_points, workers):
    """Run the grid stages in chunks of chunk_points on up to workers threads."""
    monkeypatch.setattr(chains, "CHUNK_POINTS", chunk_points)
    monkeypatch.setattr(chains, "_worker_count", lambda chunks: min(chunks, workers))


def chunk_bounds(points, chunk_points):
    """The balanced plan on one worker: ceil(points / chunk_points) chunks of
    ceil(points / chunks) points each, the last one shorter."""
    size = -(-points // -(-points // chunk_points))
    return [(lo, min(lo + size, points)) for lo in range(0, points, size)]


class TestEval:
    def test_mean_symbol_17_digits(self, run):
        rc, out, _ = run("eval", "--a", "4", "--b", "1", "X")
        assert rc == 0
        value = out.strip()
        assert float(value) == pytest.approx(oracles.X_4_1, rel=1e-15)
        digits = value.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 16  # %.17g keeps a full round-trip mantissa

    def test_diagonal(self, run):
        rc, out, _ = run("eval", "--a", "3", "--b", "3", "P")
        assert rc == 0 and float(out) == 3.0

    def test_expression_between_power_means(self, run):
        rc, out, _ = run("eval", "--a", "4", "--b", "1", "(P+X)/2")
        v = float(out)
        m_half = 2.25
        m_k = ((4**oracles.K_EXPONENT + 1) / 2) ** (1 / oracles.K_EXPONENT)
        assert rc == 0 and m_half < v < m_k

    def test_parse_error_exit_2(self, run):
        rc, _, err = run("eval", "--a", "4", "--b", "1", "(2*G+")
        assert rc == 2 and "error" in err

    def test_domain_error_exit_2(self, run):
        rc, _, err = run("eval", "--a", "-1", "--b", "1", "A")
        assert rc == 2 and "error" in err

    def test_usage_error_exit_2(self, run):
        assert run("eval", "--a", "4", "X")[0] == 2


class TestVerify:
    def test_green_on_resolvable_grid(self, run):
        rc, out, _ = run("verify", *FAST_VERIFY)
        assert rc == 0
        doc = json.loads(out)
        assert doc["overall_pass"] is True
        assert len(doc["chains"]) == 36
        assert all(c["passed"] for c in doc["chains"])
        assert all(row["abs_error"] < 1e-6 for row in doc["constants"])
        assert doc["tool"] == "meanlab" and doc["version"]

    def test_constants_section_pinned(self, run, monkeypatch):
        # each row's estimate from its own endpoint limit, written out here
        lim, F = ratios.endpoint_limit, ratios.RatioFn
        one_log_gap = lim(F.LOG_GAP_EXPONENT, "zero")
        c = lim(F.SEIFFERT_GAP_RATIO, "half_pi")
        estimates = {
            "alpha": lim(F.X_GAP_RATIO, "zero"),
            "beta": lim(F.X_GAP_RATIO, "half_pi"),
            "alpha1": lim(F.SEIFFERT_GAP_RATIO, "zero"),
            "beta1": 1.0 / c,
            "alpha2": 1.0 + one_log_gap,
            "beta2": lim(F.LOG_GAP_EXPONENT, "half_pi"),
            "c": c,
            "pi_over_2e": lim(F.X_OVER_P, "half_pi"),
        }
        expected = []
        for nc in ratios.named_constants().values():
            estimate = estimates.get(nc.name, nc.value)
            method = "endpoint_limit" if nc.name in estimates else "closed_form"
            expected.append((nc.name, nc.closed_form, nc.value, estimate, method))
        expected.append(("one_log_gap", "1", 1.0, one_log_gap, "endpoint_limit"))
        expected.append(("one_x_over_p", "1", 1.0, lim(F.X_OVER_P, "zero"), "endpoint_limit"))
        calls = []
        monkeypatch.setattr(ratios, "endpoint_limit", lambda *key: calls.append(key) or lim(*key))
        _, out, _ = run("verify", "--chains", "T11-1", *FAST_VERIFY)
        # each (function, endpoint) limit once, through the module attribute
        assert len(calls) == len(set(calls)) == 8
        rows = json.loads(out)["constants"]
        assert [list(row) for row in rows] == [
            ["name", "closed_form", "value", "estimate", "abs_error", "method"]
        ] * 12
        for row, (name, closed_form, value, estimate, method) in zip(rows, expected, strict=True):
            assert (row["name"], row["closed_form"], row["method"]) == (name, closed_form, method)
            for key, want in (("value", value), ("estimate", estimate),
                              ("abs_error", abs(estimate - value))):
                assert row[key].hex() == want.hex(), (name, key)

    def test_default_grid_reports_near_diagonal_guard_failures(self, run):
        # at a/b - 1 = 1e-6 most links sit below the 1e-13 guard (their true
        # margins are O(t^2) ~ 2.5e-13 times small constants, or O(t^4) and
        # beyond); the run is honest about it and exits 1
        rc, out, _ = run("verify", "--points", "400")
        assert rc == 1
        doc = json.loads(out)
        assert doc["overall_pass"] is False
        failing = [c for c in doc["chains"] if not c["passed"]]
        assert failing
        # every reported failure is resolution-level, not a genuine violation
        for c in failing:
            for link in c["links"]:
                assert link["min_margin"] > -1e-12

    def test_absurdly_large_guard_fails_near_diagonal(self, run):
        rc, out, _ = run("verify", "--points", "400", "--guard", "1e-7")
        assert rc == 1
        doc = json.loads(out)
        bad = [c for c in doc["chains"] if not c["passed"]]
        assert bad
        argmins = [l["argmin_ratio"] for c in bad for l in c["links"] if l["min_margin"] <= 1e-7]
        assert min(argmins) < 1.01  # the failures concentrate at a/b -> 1

    def test_guard_out_of_range_exit_2(self, run):
        assert run("verify", "--guard", "1e-3")[0] == 2
        assert run("verify", "--guard", "0")[0] == 2

    @pytest.mark.parametrize("command", ["verify", "conjecture"])
    @pytest.mark.parametrize("r_max", ["inf", "nan"])
    def test_non_finite_grid_max_exit_2(self, run, command, r_max):
        rc, _, err = run(command, "--grid-max", r_max, "--points", "100")
        assert rc == 2 and "r_max" in err

    def test_refined_tail_overflow_exit_2(self, run):
        # 1e306 is a valid grid bound, but the refined grid runs to r_max*1e4
        rc, _, err = run("verify", "--grid-max", "1e306", "--points", "100")
        assert rc == 2 and "r_max*1e4" in err
        assert run("conjecture", "--grid-max", "1e306", "--points", "100")[0] == 0

    def test_overflowing_links_raise_no_warning(self, run):
        # at a/b up to 1e300 both sides of some links overflow to inf; the
        # scan reports them and T26's probes fail to evaluate A*X
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run("verify", "--grid-max", "1e300", "--points", "100")
            assert rc == 1 and err == "" and json.loads(out)["overall_pass"] is False
            rc, out, _ = run("conjecture", "--grid-max", "1e300", "--points", "100")
            assert rc == 0 and json.loads(out)["sign"] == "undefined"

    def test_probe_error_has_its_own_row(self, run, tmp_path):
        out_path = tmp_path / "r.json"
        rc, out, err = run(
            "verify", "--grid-max", "1e300", "--points", "100", "--out", str(out_path)
        )
        assert rc == 1 and out == "" and err == ""
        doc = json.loads(out_path.read_text())
        assert sum(1 for c in doc["chains"] if c["error"]) == 10
        failed = {r["constant"]: r for r in doc["sharpness"] if "error" in r}
        assert sorted(failed) == ["alpha2", "beta2"]
        for row in failed.values():
            assert row["chain"] == "T26" and row["outcome"] == "error"
            assert row["error"].startswith("invalid operand in subexpression '((A * X) ^")
            assert row["pair"] is None and row["worst_margin"] is None
        assert all(
            r["outcome"] in ("violation_found", "still_holds")
            for r in doc["sharpness"]
            if "error" not in r
        )

    def test_chain_selection(self, run):
        rc, out, _ = run("verify", *FAST_VERIFY, "--chains", "T11-1")
        doc = json.loads(out)
        assert rc == 0 and len(doc["chains"]) == 1
        assert doc["chains"][0]["chain"] == "T11-1"

    def test_unknown_chain_exit_2(self, run):
        assert run("verify", "--chains", "T99-9")[0] == 2

    def test_report_written_to_file(self, run, tmp_path):
        out_path = tmp_path / "report.json"
        rc, out, _ = run("verify", *FAST_VERIFY, "--out", str(out_path))
        assert rc == 0 and out == ""
        doc = json.loads(out_path.read_text())
        assert doc["overall_pass"] is True

    def test_unwritable_path_exit_2(self, run, tmp_path):
        rc, _, err = run("verify", *FAST_VERIFY, "--out", str(tmp_path / "no" / "dir" / "x.json"))
        assert rc == 2 and "error" in err

    def test_sharpness_section(self, run):
        rc, out, _ = run("verify", *FAST_VERIFY)
        doc = json.loads(out)
        probes = {(r["chain"], r["constant"]): r["outcome"] for r in doc["sharpness"]}
        assert probes[("T21a", "alpha")] == "violation_found"
        assert probes[("T21a", "beta")] == "violation_found"
        assert probes[("E11", "q")] == "violation_found"
        assert probes[("T24", "k")] == "still_holds"


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, run):
        _, out1, _ = run("verify", *FAST_VERIFY)
        _, out2, _ = run("verify", *FAST_VERIFY)
        assert out1 == out2

    def test_thread_count_does_not_change_bytes(self, run, monkeypatch):
        # to a/b = 1e300 many chains and two probes raise on some chunks
        failing = ("--grid-max", "1e300", "--points", "2000")
        for command, grid in (
            ("verify", NEAR_DIAGONAL),
            ("conjecture", NEAR_DIAGONAL),
            ("verify", failing),
        ):
            outputs = []
            for chunk_points, workers in ((1 << 16, 1), (300, 1), (300, 4)):
                chunked(monkeypatch, chunk_points, workers)
                outputs.append(run(command, *grid))
            one_chunk, serial, threaded = outputs
            assert len(one_chunk[1]) > 400
            assert one_chunk == serial == threaded, (command, grid)
        assert one_chunk[1].count('"error": "invalid operand') == 12


class TestSharedGridContext:
    def test_each_mean_computed_once_per_grid(self, monkeypatch, tmp_path):
        # chains share one context per grid and probes one per refined grid,
        # so a mean kernel runs once per (kind, grid); the exception is a
        # mean applied to subexpressions, such as L(X, A), whose operands
        # are computed arrays rather than the grid's (a, b) with scalar b
        builtin_suite()  # its sanity check's context is not part of the count
        calls = Counter()
        nested = Counter()
        original = means.mean_kernel

        def counting_kernel(kind):
            kernel = original(kind)

            def counted(a, b, **kwargs):
                key = (kind.label(), np.broadcast(np.asarray(a), np.asarray(b)).size)
                (nested if np.ndim(b) else calls)[key] += 1
                return kernel(a, b, **kwargs)

            return counted

        monkeypatch.setattr(means, "mean_kernel", counting_kernel)
        out = tmp_path / "report.json"
        rc = main(["verify", "--grid-min", "0.1", "--points", "2000", "--out", str(out)])
        assert rc == 0
        assert calls and max(calls.values()) == 1, calls.most_common(3)
        nested_texts = [t for c in builtin_suite() for t in c.member_texts if "L(X, A)" in t]
        assert nested == Counter({("L", 2000): len(nested_texts)})

    def test_each_mean_computed_once_per_chunk(self, monkeypatch, tmp_path):
        # 2000 grid points in 4 chunks of 500, on which the chains and the
        # probes are evaluated, and one chunk of the refined grid's 200 extra
        # points, for the probes alone.  Every kernel call sees one chunk,
        # and each chunk's context computes a mean once however many chains
        # and probes use it (one worker: the counters are not locked)
        chunked(monkeypatch, 512, 1)
        builtin_suite()  # its sanity check's context is not part of the count
        calls = Counter()
        sizes = []
        pairs = []
        original = means.mean_kernel

        def counting_kernel(kind):
            kernel = original(kind)

            def counted(a, b, **kwargs):
                size = np.broadcast(np.asarray(a), np.asarray(b)).size
                sizes.append(size)
                if not np.ndim(b):  # a mean of a chunk's pairs, not of subexpressions
                    calls[kind.label(), size, id(kwargs["pair"])] += 1
                return kernel(a, b, **kwargs)

            return counted

        class CountingPair(means.Pair):
            def __init__(self, a, b, **kwargs):
                pairs.append((np.ndim(b), self))  # kept alive, so their ids stay distinct
                super().__init__(a, b, **kwargs)

        monkeypatch.setattr(means, "mean_kernel", counting_kernel)
        monkeypatch.setattr(means, "Pair", CountingPair)
        out = tmp_path / "report.json"
        rc = main(["verify", "--grid-min", "0.1", "--points", "2000", "--out", str(out)])
        assert rc == 0
        assert max(sizes) <= 512 + 200
        assert max(calls.values()) == 1, calls.most_common(3)
        grid = GridSpec(r_min=0.1, n=2000)
        bounds = chunk_bounds(2000, 512)
        contexts = [hi - lo for lo, hi in bounds]
        contexts.append(chains._extra_ratios(grid.r_max, grid.b).size)
        g_sizes = sorted(size for kind, size, _ in calls if kind == "G")
        assert g_sizes == sorted(contexts)
        # one validated pair per chunk context, shared by all its kernels, and
        # one per nested L(X, A) call, whose operands are computed arrays
        nested_texts = [t for c in builtin_suite() for t in c.member_texts if "L(X, A)" in t]
        nested = len(nested_texts) * len(chunk_bounds(2000, 512))
        assert Counter(ndim for ndim, _ in pairs) == Counter({0: len(contexts), 1: nested})

    @pytest.mark.parametrize("chunk_points, pools", [(1 << 16, 0), (512, 1)])
    def test_thread_pool_only_for_several_chunks(self, monkeypatch, tmp_path, chunk_points, pools):
        import concurrent.futures

        created = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        chunked(monkeypatch, chunk_points, 4)
        out = tmp_path / "report.json"
        assert main(["verify", "--grid-min", "0.1", "--points", "2000", "--out", str(out)]) == 0
        assert len(created) == pools  # one for the stage of chains and probes


class TestEmit:
    def test_ratio_function_rows_decrease(self, run):
        rc, out, _ = run("emit", "x_gap_ratio", "1000")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 1001
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_log_gap_endpoints(self, run):
        rc, out, _ = run("emit", "log_gap_exponent", "10")
        vals = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert rc == 0
        assert vals[0] == pytest.approx(1.0, abs=1e-9)
        assert vals[-1] == pytest.approx(oracles.BETA2, abs=1e-6)

    def test_expression_over_ratio_grid(self, run):
        rc, out, _ = run("emit", "X/A", "50")
        lines = out.strip().splitlines()
        assert rc == 0 and lines[0] == "ratio,value"
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0.0 < v < 1.0 for v in vals)  # X < A always

    def test_deterministic_bytes(self, run):
        _, out1, _ = run("emit", "x_over_p", "200")
        _, out2, _ = run("emit", "x_over_p", "200")
        assert out1 == out2

    def test_file_output_and_errors(self, run, tmp_path):
        target = tmp_path / "table.csv"
        rc, out, _ = run("emit", "x_over_p", "10", "--out", str(target))
        assert rc == 0 and out == ""
        assert target.read_text().startswith("x,value")
        assert run("emit", "x_over_p", "1")[0] == 2
        assert run("emit", "2*)", "10")[0] == 2
        assert run("emit", "x_over_p", "10", "--out", str(tmp_path / "no" / "x.csv"))[0] == 2


class TestBracketAndLimit:
    def test_bracket_output(self, run):
        rc, out, _ = run("bracket", "(P+X)/2", "1e-4")
        assert rc == 0
        lines = out.strip().splitlines()
        lower = float(lines[0].split(":")[1])
        upper = float(lines[1].split(":")[1])
        assert abs(lower - 0.5) < 1e-3
        assert lower < upper < oracles.K_EXPONENT + 1e-3

    def test_bracket_tolerance_below_the_spacing_of_doubles(self, run):
        # the bisection stops at adjacent doubles instead of looping
        rc, out, _ = run("bracket", "X", "1e-300")
        assert rc == 0
        lower, upper = (float(line.split(":")[1]) for line in out.splitlines()[:2])
        assert abs(lower - 1.0 / 3.0) < 1e-3 and abs(upper - oracles.Q_EXPONENT) < 1e-3

    def test_bracket_parse_error(self, run):
        assert run("bracket", "(P+", "1e-4")[0] == 2

    def test_limit_both_endpoints(self, run):
        rc, out, _ = run("limit", "x_gap_ratio")
        assert rc == 0
        assert "zero" in out and "half_pi" in out
        assert run("limit", "nosuchfn")[0] == 2

    def test_limit_single_endpoint(self, run):
        rc, out, _ = run("limit", "x_over_p", "--endpoint", "half_pi")
        assert rc == 0
        assert float(out.split(":")[1].split("(")[0]) == pytest.approx(
            oracles.PI_OVER_2E, abs=1e-8
        )


class TestConjecture:
    def test_report_labelled_unresolved(self, run):
        rc, out, _ = run("conjecture", *FAST_VERIFY)
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "unresolved"
        assert doc["resolved"] is False
        assert doc["conjecture"] == "P*X > I*L"
        assert doc["sign"] == "positive"
        assert math.isfinite(doc["min_relative_margin"])


class TestMisc:
    def test_version_flag(self, run):
        rc, out, _ = run("--version")
        assert rc == 0

    def test_missing_subcommand_usage_error(self, run):
        assert run()[0] == 2


class _Mallopt:
    """A C mallopt that records its calls and returns result."""

    def __init__(self, result):
        self.result, self.calls = result, []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


class TestAllocatorSetting:
    EMIT = ("emit", "(P+X)/2", "50", "--grid-max", "1e300")
    SET = [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    @pytest.mark.parametrize(
        "result, calls", [(1, SET), (0, SET[:1]), (None, [])], ids=["glibc", "refused", "none"]
    )
    def test_main_asks_once_and_reports_the_same(self, monkeypatch, run, result, calls):
        # main asks the C library once per process; where it has no mallopt,
        # or mallopt refuses, nothing more is set, and no output changes
        expected = run(*self.EMIT)
        mallopt = None if result is None else _Mallopt(result)
        libc = SimpleNamespace() if mallopt is None else SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._keep_freed_memory.cache_clear()
        try:
            assert run(*self.EMIT) == expected
            assert run("eval", "--a", "4", "--b", "1", "X")[0] == 0
        finally:
            cli._keep_freed_memory.cache_clear()
        assert (mallopt.calls if mallopt else []) == calls
