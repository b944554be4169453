"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Two criteria are checked against the mpmath oracle in tests/oracles.py:

* criterion 1 keeps the default grid, whose first ratios sit at
  a/b = 1 + 1e-6, and the 1e-13 guard.  Links tangent to order t^4 or t^6
  have true margins far below the guard there (down to ~2.4e-42), so a
  sub-guard margin is accepted only where the oracle, at 80 digits, finds
  the exact margin positive and within 8 ulp of 1 of the computed one;
* criterion 3 tightens each probed constant 1e-3 past its best value.  The
  upper order k of the (P+X)/2 window is not best possible: the best order
  is oracles.K_BEST ~ 0.5016276, so that probe sits 1e-3 below K_BEST.
"""

import math

import numpy as np
from mpmath import mp

import meanlab.means as M
from meanlab import chains, ratios, series
from meanlab.chains import GridSpec, builtin_suite, verify_chain
from meanlab.cli import main
from meanlab.expressions import evaluate
from meanlab.ratios import RatioFn
from meanlab.series import SeriesKind

import oracles


def _criterion(n, name, ok, detail=""):
    line = f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_criterion_1_chain_suite_on_default_grid(self):
        grid = GridSpec()  # 10^4 log-spaced ratios in [1+1e-6, 1e8], b = 1
        guard = 1e-13
        r = grid.ratios()
        a = r * grid.b
        suite = builtin_suite()
        reports = [verify_chain(c, grid, margin_guard=guard) for c in suite]
        genuine = [(x.chain_id, x.min_margin) for x in reports if x.min_margin < -1e-12]
        assert not genuine, f"true violations found: {genuine}"
        mismatched, unconfirmed, sub_guard_chains = [], [], set()
        sub_guard, worst_err, least_exact, widest = 0, 0.0, math.inf, 1.0
        for chain, report in zip(suite, reports):
            values = [np.asarray(evaluate(m, a, grid.b)) for m in chain.members]
            if len(report.links) != len(values) - 1:
                mismatched.append(chain.id)
            for i, link in enumerate(report.links):
                lhs, rhs = values[i], values[i + 1]
                margins = (rhs - lhs) / np.maximum(np.abs(lhs), np.abs(rhs))
                j = int(np.argmin(margins))
                if (margins[j], r[j]) != (link.min_margin, link.argmin_ratio):
                    mismatched.append((chain.id, i))
                for k in np.flatnonzero(~(margins > guard)):
                    # 80 digits: at 40 the order-6 links at 1 + 1e-6 round to 0
                    with mp.workdps(80):
                        lo = oracles.mp_eval(chain.members[i], float(a[k]), grid.b)
                        hi = oracles.mp_eval(chain.members[i + 1], float(a[k]), grid.b)
                        exact = (hi - lo) / max(abs(lo), abs(hi))
                        err = float(abs(exact - float(margins[k])))
                    sub_guard += 1
                    sub_guard_chains.add(chain.id)
                    worst_err = max(worst_err, err)
                    least_exact = min(least_exact, float(exact))
                    widest = max(widest, float(r[k]))
                    if not (exact > 0 and err <= 8 * 2.0**-52):
                        unconfirmed.append((chain.id, i, float(r[k]), float(margins[k])))
        clear = sum(1 for c in suite if c.id not in sub_guard_chains)
        detail = (
            f"{clear}/{len(suite)} chains clear the 1e-13 guard everywhere; "
            f"{sub_guard} sub-guard (link, point) pairs in {len(sub_guard_chains)} "
            f"chains at a/b <= {widest:.4g}, {sub_guard - len(unconfirmed)} confirmed "
            f"by the 80-digit oracle: smallest exact margin {least_exact:.2e}, worst "
            f"|computed - exact| {worst_err:.2e} ({worst_err / 2.0**-52:.1f} ulp of 1); "
            f"reports differing from a direct scan: {mismatched}; "
            f"unconfirmed: {unconfirmed[:5]}"
        )
        _criterion(
            1,
            "chain suite, default grid, margins > 1e-13 or oracle-confirmed",
            not mismatched and not unconfirmed,
            detail,
        )

    def test_criterion_2_constant_recovery(self):
        targets = [
            (RatioFn.X_GAP_RATIO, "zero", 2.0 / 3.0),
            (RatioFn.X_GAP_RATIO, "half_pi", oracles.BETA_EM1_E),
            (RatioFn.LOG_GAP_EXPONENT, "zero", 1.0),
            (RatioFn.LOG_GAP_EXPONENT, "half_pi", oracles.BETA2),
            (RatioFn.SEIFFERT_GAP_RATIO, "zero", 1.0),
            (RatioFn.SEIFFERT_GAP_RATIO, "half_pi", oracles.C_UPPER),
            (RatioFn.X_OVER_P, "zero", 1.0),
            (RatioFn.X_OVER_P, "half_pi", oracles.PI_OVER_2E),
        ]
        errs = {
            f"{fn.value}@{ep}": abs(ratios.endpoint_limit(fn, ep) - ref)
            for fn, ep, ref in targets
        }
        worst = max(errs.values())
        _criterion(2, "constant recovery < 1e-6", worst < 1e-6, f"worst abs error {worst:.2e}")

    def test_criterion_3_sharpness_probes(self):
        # k is not best possible: its probe goes 1e-3 past the best order
        k_past_best = oracles.K_EXPONENT - oracles.K_BEST + 1e-3
        probes = [
            ("T21a", "beta", "tighten_upper", 1e-3),
            ("T21b", "beta1", "tighten_upper", 1e-3),
            ("T26", "beta2", "tighten_upper", 1e-3),
            ("E11", "q", "tighten_upper", 1e-3),
            ("T24", "k", "tighten_upper", k_past_best),
            ("T21a", "alpha", "tighten_lower", 1e-3),
        ]
        outcomes = {
            (cid, const): chains.sharpness_probe(cid, const, direction, eps)
            for cid, const, direction, eps in probes
        }
        missing = [key for key, out in outcomes.items() if not out.violated]
        detail = "; ".join(
            f"{cid}.{const}={out.label}" for (cid, const), out in outcomes.items()
        )
        detail += (
            f" | T24.k probed at K_BEST - 1e-3 = {oracles.K_BEST - 1e-3:.7f}"
            f" (oracle K_BEST {oracles.K_BEST:.10f}, nominal k {oracles.K_EXPONENT:.5f})"
        )
        _criterion(
            3, "sharpness probes find violations 1e-3 past each best constant", not missing, detail
        )

    def test_criterion_4_exponent_bracketing(self):
        up_x = chains.bracket_best_exponent("X", "upper", 1e-4)
        lo_x = chains.bracket_best_exponent("X", "lower", 1e-4)
        lo_px = chains.bracket_best_exponent("(P+X)/2", "lower", 1e-4)
        up_px = chains.bracket_best_exponent("(P+X)/2", "upper", 1e-4)
        ok = (
            abs(up_x - oracles.Q_EXPONENT) < 1e-3
            and abs(lo_x - 1.0 / 3.0) < 1e-3
            and 0.5 - 1e-3 <= lo_px
            and up_px <= oracles.K_EXPONENT + 1e-3
            and lo_px < up_px
        )
        _criterion(
            4,
            "exponent bracketing",
            ok,
            f"X in [{lo_x:.5f}, {up_x:.5f}], (P+X)/2 in [{lo_px:.5f}, {up_px:.5f}]",
        )

    def test_criterion_5_dual_routes_and_series(self):
        rng = np.random.default_rng(2024)
        b1 = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 900))
        a1 = b1 * np.exp(rng.uniform(math.log(1.0 + 1e-9), math.log(1e8), 900))
        b2 = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 100))
        a2 = b2 * (1.0 + np.exp(rng.uniform(math.log(1e-9), math.log(2e-5), 100)))
        a, b = np.concatenate([a1, a2]), np.concatenate([b1, b2])
        assert int(np.sum(np.abs(a - b) / (a + b) < 1e-5)) >= 100
        route_pairs = [
            (M.logarithmic, M.logarithmic_param),
            (M.seiffert, M.seiffert_param),
            (M.x_mean_direct, M.x_mean),
            (M.identric, M.identric_param),
        ]
        worst_route = max(
            float(np.max(np.abs(d(a, b) - p(a, b)) / np.abs(p(a, b))))
            for d, p in route_pairs
        )
        direct = {
            SeriesKind.X_COT_X: lambda x: x / math.tan(x),
            SeriesKind.COT_X: lambda x: 1.0 / math.tan(x),
            SeriesKind.COTH_X: lambda x: 1.0 / math.tanh(x),
            SeriesKind.INV_SIN_SQ: lambda x: 1.0 / math.sin(x) ** 2,
            SeriesKind.INV_SINH_SQ: lambda x: 1.0 / math.sinh(x) ** 2,
            SeriesKind.X_OVER_SIN: lambda x: x / math.sin(x),
        }
        worst_series = 0.0
        for kind, fn in direct.items():
            for x in np.linspace(0.01, math.pi / 2, 100):
                ref = fn(float(x))
                err = abs(series.series_eval(kind, float(x)) - ref) / max(1.0, abs(ref))
                worst_series = max(worst_series, err)
        ok = worst_route < 1e-12 and worst_series < 1e-13
        _criterion(
            5,
            "dual-route and series consistency",
            ok,
            f"worst route rel diff {worst_route:.2e}, worst series err {worst_series:.2e}",
        )

    def test_criterion_6_algebraic_properties(self):
        rng = np.random.default_rng(99)
        b = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 10_000))
        a = b * np.exp(rng.uniform(math.log(1.001), math.log(1e8), 10_000))
        kernels = [
            M.arithmetic, M.geometric, M.harmonic, M.logarithmic,
            M.identric, M.seiffert, M.x_mean, M.y_mean,
        ]
        sym_ok = all(
            bool(np.all(np.abs(f(a, b) - f(b, a)) <= 1e-15 * f(b, a))) for f in kernels
        )
        hom_ok = True
        for lam in (1e-6, 1.0, 1e6):
            for f in kernels:
                base = f(a, b)
                hom_ok &= bool(
                    np.all(np.abs(f(lam * a, lam * b) - lam * base) <= 1e-13 * lam * base)
                )
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        prop_ok = all(bool(np.all((f(a, b) > lo) & (f(a, b) < hi))) for f in kernels)
        p = rng.uniform(-3.0, 2.9, 10_000)
        q = p + rng.uniform(0.05, 1.0, 10_000)
        mono_ok = bool(np.all(M.power_mean(a, b, p) < M.power_mean(a, b, q))) and bool(
            np.all(M.heronian_mean(a, b, p) < M.heronian_mean(a, b, q))
        )
        ok = sym_ok and hom_ok and prop_ok and mono_ok
        _criterion(
            6,
            "symmetry, homogeneity, mean property, exponent monotonicity",
            ok,
            f"symmetry={sym_ok} homogeneity={hom_ok} mean-property={prop_ok} monotone={mono_ok}",
        )

    def test_criterion_7_ratio_function_monotonicity(self):
        expect = {
            RatioFn.LOG_GAP_EXPONENT: "decreasing",
            RatioFn.X_GAP_RATIO: "decreasing",
            RatioFn.X_OVER_P: "decreasing",
            RatioFn.SEIFFERT_GAP_RATIO: "increasing",
        }
        verdicts = {fn: ratios.check_monotone(fn, 100_000) for fn in expect}
        ok = all(v.direction == expect[fn] for fn, v in verdicts.items())
        _criterion(
            7,
            "monotonicity over 1e5 samples, zero violations",
            ok,
            ", ".join(f"{fn.value}:{v.direction}" for fn, v in verdicts.items()),
        )

    def test_criterion_8_conjecture_evidence(self):
        report = chains.conjecture_scan(GridSpec())
        ok = (
            report.resolved is False
            and math.isfinite(report.min_margin)
            and report.argmin_ratio >= 1.0
            and report.sign in ("positive", "negative", "zero")
        )
        _criterion(
            8,
            "conjecture scan reported and labelled unresolved",
            ok,
            f"min margin {report.min_margin:.3e} at a/b = {report.argmin_ratio:.6g}"
            f" (sign {report.sign})",
        )

    def test_criterion_9_determinism(self, capsys, monkeypatch):
        def capture(chunk_points=None, workers=None):
            if chunk_points is not None:
                monkeypatch.setattr(chains, "CHUNK_POINTS", chunk_points)
                monkeypatch.setattr(chains, "_worker_count", lambda chunks: min(chunks, workers))
            main(["verify", "--points", "2000"])
            return capsys.readouterr().out

        first = capture()
        second = capture()
        serial = capture(300, 1)  # 7 chunks of 286 points, and 8 of 250 on 4 workers
        threaded = capture(300, 4)
        ok = first == second == serial == threaded and len(first) > 1000
        with capsys.disabled():
            _criterion(
                9,
                "cmd_verify byte-identical across runs, chunkings and thread counts",
                ok,
                f"report size {len(first)} bytes",
            )
