"""Tests of the benchmark itself: tiny smoke runs and the output checks.

    python -m pytest bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
TINY = {
    "verify_grid": {"points": 2000},
    "bracket_sweep": {},
    "scalar_eval": {"pool": 256, "oracle_samples": 64},
}


@pytest.fixture
def modules(monkeypatch):
    monkeypatch.setenv("MEANLAB_THREADS", "0")  # run() overrides it; restored after
    return run.import_meanlab()


def tiny_run(name, trace=False):
    return run.run(name, seed=7, seconds=0.05, trace=trace, setup_repeats=1, **TINY[name])


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert END_TO_END == set(run.GATED)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run(name, modules):
    line, record = tiny_run(name)
    assert line["correct"], record["problems"]
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert record["machine"]["meanlab_threads"] >= 1
    assert {"setup_s", "wall_s", "ops_per_s", "op_p50_ms", "peak_rss_mb", "fail_ratio"} <= set(
        record["end_to_end"]
    )


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_smoke_run_reports_every_layer_and_restores_meanlab(name, modules):
    originals = {m: dict(vars(mod)) for m, mod in modules.items()}
    line, record = tiny_run(name, trace=True)
    assert line["correct"], record["problems"]
    assert set(line["metrics"]) == PER_LAYER
    assert math.isfinite(line["metrics"]["trace.overhead_s"]["value"])
    for m, mod in modules.items():
        assert dict(vars(mod)) == originals[m], f"{m} left patched"


def test_tracer_does_not_change_results(modules):
    import numpy as np

    expr = modules["expressions"].parse_expr("L(X, A) - P")
    a = np.geomspace(1.0 + 1e-6, 1e8, 500)
    plain = modules["expressions"].evaluate(expr, a, 1.0)
    t = tracer.Tracer()
    t.install(**modules)
    try:
        traced = t.run_op(0, lambda: modules["expressions"].evaluate(expr, a, 1.0))
    finally:
        t.uninstall()
    assert np.array_equal(plain, traced)
    layers = t.layer_metrics(1, 1)
    assert layers["means.calls"] == 4  # X, A, L over (X, A), P
    assert layers["series.points_per_kernel_point"] > 0


# -- verify_grid checks --------------------------------------------------------


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    mods = run.import_meanlab()
    wl = workloads.VerifyGrid(mods["cli"], tmp_path_factory.mktemp("verify"), points=2000)
    wl.prepare(0)
    rc_v, report, rc_c, conj = wl.op(0)
    reference = json.loads(workloads.reference_path(2000).read_text())
    return rc_v, json.loads(report.read_text()), rc_c, json.loads(conj.read_text()), reference


def test_verify_check_passes_on_the_recorded_grid(verify_report):
    assert workloads.check_verify(*verify_report) == []


def test_verify_check_fails_on_a_perturbed_margin(verify_report):
    rc_v, report, rc_c, conj, reference = verify_report
    reference = json.loads(json.dumps(reference))
    key = next(iter(reference["margins"]))
    reference["margins"][key] += 1e-12
    problems = workloads.check_verify(rc_v, report, rc_c, conj, reference)
    assert any(key in p for p in problems)


def test_verify_check_fails_on_a_changed_sharpness_outcome(verify_report):
    rc_v, report, rc_c, conj, reference = verify_report
    reference = json.loads(json.dumps(reference))
    reference["sharpness"]["T24.k"] = "violation_found"
    assert workloads.check_verify(rc_v, report, rc_c, conj, reference)


def test_verify_check_fails_on_exit_code_verdict_and_sign(verify_report):
    rc_v, report, rc_c, conj, reference = verify_report
    assert workloads.check_verify(1, report, rc_c, conj, reference)
    failing = json.loads(json.dumps(report))
    failing["overall_pass"] = False
    failing["chains"][0]["passed"] = False
    assert len(workloads.check_verify(rc_v, failing, rc_c, conj, reference)) == 2
    assert workloads.check_verify(rc_v, report, rc_c, dict(conj, sign="negative"), reference)
    assert workloads.check_verify(rc_v, report, rc_c, conj, None)


# -- bracket_sweep checks ------------------------------------------------------


def test_bracket_check_accepts_the_constants_and_rejects_wrong_values():
    for (target, side), expected in workloads.BRACKET_CASES.items():
        assert workloads.check_bracket(target, side, expected) is None
        assert workloads.check_bracket(target, side, expected + 1e-4)
    assert workloads.check_bracket("X", "lower", ValueError("boom"))


def test_a_failed_check_makes_the_run_incorrect_and_exit_1(modules, monkeypatch, capsys):
    monkeypatch.setitem(workloads.BRACKET_CASES, ("X", "lower"), 0.3)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    rc = run.main(["--workload", "bracket_sweep", "--seed", "1", "--seconds", "0.5"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert line["correct"] is False and line["failed"] >= 1


# -- scalar_eval checks --------------------------------------------------------


def test_op_rule():
    assert workloads.op_rule("symbol", 1.0, 4.0, 0.5) == "outside [min(a,b), max(a,b)]"
    assert workloads.op_rule("symbol", 1.0, 4.0, math.inf) == "non-finite"
    assert workloads.op_rule("registry", 1.0, 4.0, ZeroDivisionError()) == "raised ZeroDivisionError"
    assert workloads.op_rule("registry", 1.0, 4.0, 0.5) is None  # not a mean: no bounds
    assert workloads.op_rule("symbol", 1.0, 4.0, 2.5) is None


def test_scalar_check_catches_a_wrong_value(modules):
    wl = workloads.ScalarEval(modules["chains"], modules["expressions"], pool=64, oracle_samples=64)
    wl.prepare(3)
    for i in range(64):
        wl.keep(i, wl.op(i))
    before = wl.check()
    assert before.correct and before.attempted == 64
    j = next(j for j, (family, *_rest) in enumerate(wl.inputs)
             if family == "registry" and isinstance(wl.first[j], float))
    wl.first[j] *= 1.0 + 1e-6
    outcome = wl.check()
    assert not outcome.correct
    assert outcome.failed == before.failed + 1


def test_scalar_check_counts_each_input_once_and_flags_unstable_results(modules):
    wl = workloads.ScalarEval(modules["chains"], modules["expressions"], pool=16, oracle_samples=0)
    wl.prepare(1)
    for i in range(16):
        wl.keep(i, wl.op(i))
    once = wl.check()
    for i in range(16, 40):
        wl.keep(i, wl.op(i))
    again = wl.check()
    assert again.correct and (again.attempted, again.failed) == (once.attempted, once.failed)
    wl.keep(40, -1.0)
    assert not wl.check().correct


def test_scalar_failures_are_the_same_for_every_seed(modules):
    outcomes = []
    for seed in (1, 2):
        wl = workloads.ScalarEval(modules["chains"], modules["expressions"], pool=512,
                                  oracle_samples=0)
        wl.prepare(seed)
        for i in range(512):
            wl.keep(i, wl.op(i))
        outcomes.append(wl.check())
        assert wl.order != list(range(512))
    assert (outcomes[0].attempted, outcomes[0].failed) == (outcomes[1].attempted, outcomes[1].failed)
    assert outcomes[0].failed > 0  # the full-range pairs reach the known H/I range defects


def test_scalar_inputs_come_from_their_stream():
    texts = ["X", "A*G"]
    assert workloads.make_scalar_inputs(texts, 5, 50) == workloads.make_scalar_inputs(texts, 5, 50)
    assert workloads.make_scalar_inputs(texts, 5, 50) != workloads.make_scalar_inputs(texts, 6, 50)


def test_oracle_translation_and_values():
    assert oracle.to_python("L(X, A)") == "_mean('L')(_mean('X')(_a, _b),_mean('A')(_a, _b))"
    assert oracle.to_python("Mp[0.5]^2") == "_Mp('0.5')(_a, _b)**_n('2')"
    with pytest.raises(ValueError):
        oracle.to_python("-A^2")
    assert float(oracle.evaluate("A", 4.0, 1.0)) == 2.5
    assert float(oracle.evaluate("Mp[1]", 4.0, 1.0)) == 2.5
    assert abs(float(oracle.evaluate("P", 4.0, 1.0)) - 3.0 / (2.0 * math.asin(0.6))) < 1e-15
    assert oracle.relative_error(2.5 * (1 + 1e-9), "A", 4.0, 1.0) == pytest.approx(1e-9, rel=1e-6)


# -- statistics and the command line ---------------------------------------------


def test_tail_takes_the_highest_level_with_ten_samples_beyond():
    assert run.tail([0.001] * 10) is None
    assert run.tail(list(range(100)))[0] == 90.0
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(1000))) == (99.0, 989)


def test_best_per_input_takes_each_inputs_fastest_repeat():
    times = [2.0, 4.0, 1.0, 5.0, 3.0, 0.5]
    inputs = [0, 1, 0, 1, 2, 1]
    assert run.best_per_input(times, inputs) == (1.0, 3 / 4.5, 3, 1)
    assert run.best_per_input([5.0, 1.0], [0, 0]) == (1.0, 1.0, 1, 2)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scalar_eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
