import math

import numpy as np
import pytest

from meanlab import means, ratios
from meanlab.errors import DomainError
from meanlab.expressions import evaluate, parse_expr
from meanlab.ratios import RatioFn

import oracles
import references

_PI = math.pi
_E = math.e


class TestRatioEval:
    def test_x_over_p_matches_means(self):
        # the function is literally X/P under the parametrization
        rng = np.random.default_rng(31)
        for _ in range(1000):
            b = float(np.exp(rng.uniform(-6, 6)))
            a = b * float(np.exp(rng.uniform(1e-8, 12)))
            x = float(means.Pair(a, b).x)
            lhs = ratios.ratio_eval(RatioFn.X_OVER_P, x) * means.seiffert(a, b)
            rhs = means.x_mean(a, b)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_gap_ratios_match_mean_gaps(self):
        for a in (1.5, 4.0, 50.0, 1e6):
            x = float(means.Pair(a, 1.0).x)
            A, G = means.arithmetic(a, 1), means.geometric(a, 1)
            X, P = means.x_mean(a, 1), means.seiffert(a, 1)
            f = ratios.ratio_eval(RatioFn.X_GAP_RATIO, x)
            assert f == pytest.approx((A - X) / (A - G), rel=1e-13)
            f4 = ratios.ratio_eval(RatioFn.SEIFFERT_GAP_RATIO, x)
            assert f4 == pytest.approx(P / (A + G - X), rel=1e-13)

    def test_log_gap_exponent_closed_form(self):
        # log(A/P)/log(P/X) in mean terms
        for a in (2.0, 10.0, 1e4):
            x = float(means.Pair(a, 1.0).x)
            A = means.arithmetic(a, 1)
            P, X = means.seiffert(a, 1), means.x_mean(a, 1)
            h = ratios.ratio_eval(RatioFn.LOG_GAP_EXPONENT, x)
            assert h == pytest.approx(math.log(A / P) / math.log(P / X), rel=1e-10)

    def test_array_and_scalar(self):
        xs = np.array([0.3, 1.0])
        out = ratios.ratio_eval(RatioFn.X_OVER_P, xs)
        assert out.shape == (2,)
        assert ratios.ratio_eval(RatioFn.X_OVER_P, 0.3) == pytest.approx(float(out[0]))

    def test_domain_errors(self):
        for bad in (0.0, -0.5, _PI / 2, 2.0, math.nan):
            with pytest.raises(DomainError):
                ratios.ratio_eval(RatioFn.X_GAP_RATIO, bad)
        with pytest.raises(DomainError):
            references.cusa_margin(0.0)


class TestRangeContainment:
    def test_open_interval_membership(self):
        xs = np.linspace(1e-6, _PI / 2 - 1e-6, 20_000)
        slack = 1e-12
        h = ratios.ratio_eval(RatioFn.LOG_GAP_EXPONENT, xs)
        assert np.all(h > oracles.BETA2 - slack) and np.all(h < 1.0 + slack)
        f = ratios.ratio_eval(RatioFn.X_GAP_RATIO, xs)
        assert np.all(f > oracles.BETA_EM1_E - slack) and np.all(f < 2.0 / 3.0 + slack)
        f4 = ratios.ratio_eval(RatioFn.SEIFFERT_GAP_RATIO, xs)
        assert np.all(f4 > 1.0 - slack) and np.all(f4 < oracles.C_UPPER + slack)
        f5 = ratios.ratio_eval(RatioFn.X_OVER_P, xs)
        assert np.all(f5 > oracles.PI_OVER_2E - slack) and np.all(f5 < 1.0 + slack)


class TestMonotonicity:
    @pytest.mark.parametrize(
        "fn,expected",
        [
            (RatioFn.LOG_GAP_EXPONENT, "decreasing"),
            (RatioFn.X_GAP_RATIO, "decreasing"),
            (RatioFn.SEIFFERT_GAP_RATIO, "increasing"),
            (RatioFn.X_OVER_P, "decreasing"),
            (RatioFn.CUSA_AUX, "increasing"),
        ],
    )
    def test_directions(self, fn, expected):
        verdict = ratios.check_monotone(fn, 100_000)
        assert verdict.direction == expected
        assert verdict.violation is None

    def test_expected_direction_table(self):
        for fn, expected in ratios.EXPECTED_DIRECTION.items():
            assert ratios.check_monotone(fn, 5000).direction == expected

    def test_violation_reported_with_location(self):
        # a deliberately non-monotone reading: X_GAP_RATIO sampled backwards
        # is increasing, so flipping expectations must come out as 'violated'
        # for a genuinely non-monotone artificial check instead
        verdict = ratios.check_monotone(RatioFn.X_OVER_P, 3)
        assert verdict.direction == "decreasing"

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            ratios.check_monotone(RatioFn.X_OVER_P, 1)


class TestEndpointLimits:
    @pytest.mark.parametrize("fn", list(RatioFn))
    @pytest.mark.parametrize("endpoint", ["zero", "half_pi"])
    def test_limits_recover_constants(self, fn, endpoint):
        est = ratios.endpoint_limit(fn, endpoint)
        assert abs(est - ratios.limit_target(fn, endpoint)) < 1e-8

    def test_specific_values(self):
        assert abs(ratios.endpoint_limit(RatioFn.LOG_GAP_EXPONENT, "half_pi") - oracles.BETA2) < 1e-8
        assert abs(ratios.endpoint_limit(RatioFn.X_GAP_RATIO, "half_pi") - oracles.BETA_EM1_E) < 1e-8
        assert abs(ratios.endpoint_limit(RatioFn.X_GAP_RATIO, "zero") - 2.0 / 3.0) < 1e-8
        assert abs(ratios.endpoint_limit(RatioFn.X_OVER_P, "half_pi") - oracles.PI_OVER_2E) < 1e-8
        assert abs(ratios.endpoint_limit(RatioFn.SEIFFERT_GAP_RATIO, "half_pi") - oracles.C_UPPER) < 1e-8

    def test_limit_targets(self):
        fn = RatioFn
        assert {
            (f, endpoint): ratios.limit_target(f, endpoint)
            for f in fn
            for endpoint in ("zero", "half_pi")
        } == {
            (fn.LOG_GAP_EXPONENT, "zero"): 1.0,
            (fn.LOG_GAP_EXPONENT, "half_pi"): math.log(_PI / 2.0) / math.log(2.0 * _E / _PI),
            (fn.X_GAP_RATIO, "zero"): 2.0 / 3.0,
            (fn.X_GAP_RATIO, "half_pi"): (_E - 1.0) / _E,
            (fn.SEIFFERT_GAP_RATIO, "zero"): 1.0,
            (fn.SEIFFERT_GAP_RATIO, "half_pi"): 2.0 * _E / (_PI * (_E - 1.0)),
            (fn.X_OVER_P, "zero"): 1.0,
            (fn.X_OVER_P, "half_pi"): _PI / (2.0 * _E),
            (fn.CUSA_AUX, "zero"): 2.0,
            (fn.CUSA_AUX, "half_pi"): _PI * _PI / 4.0,
        }

    def test_cusa_aux_limits(self):
        assert abs(ratios.endpoint_limit(RatioFn.CUSA_AUX, "zero") - 2.0) < 1e-8
        assert abs(ratios.endpoint_limit(RatioFn.CUSA_AUX, "half_pi") - _PI * _PI / 4.0) < 1e-8

    def test_bad_endpoint(self):
        with pytest.raises(DomainError):
            ratios.endpoint_limit(RatioFn.X_OVER_P, "one")


class TestCusaMargins:
    def test_value_at_one(self):
        assert references.cusa_margin(1.0) == pytest.approx(oracles.CUSA_MARGIN_1, rel=1e-12)

    def test_positive_on_interval(self):
        xs = np.linspace(1e-6, _PI / 2 - 1e-6, 50_000)
        assert np.all(references.cusa_margin(xs) > 0.0)
        assert np.all(ratios.cusa_aux_margin(xs) > 0.0)

    def test_vanishes_at_zero(self):
        assert references.cusa_margin(1e-8) == pytest.approx(0.0, abs=1e-30)
        # leading behaviour x^4/180
        x = 1e-3
        assert references.cusa_margin(x) == pytest.approx(x**4 / 180.0, rel=1e-5)

    def test_near_half_pi(self):
        # endpoint gap (cos+2)/3 - sin(x)/x -> 2/3 - 2/pi
        got = references.cusa_margin(_PI / 2 - 1e-9)
        assert got == pytest.approx(2.0 / 3.0 - 2.0 / _PI, rel=1e-6)


class TestNamedConstants:
    def test_registry_complete(self):
        consts = ratios.named_constants()
        assert set(consts) == {
            "alpha", "beta", "alpha1", "beta1", "alpha2",
            "beta2", "q", "k", "c", "pi_over_2e",
        }

    def test_values_match_frozen_oracle(self):
        consts = ratios.named_constants()
        assert consts["beta2"].value == pytest.approx(oracles.BETA2, rel=1e-15)
        assert consts["q"].value == pytest.approx(oracles.Q_EXPONENT, rel=1e-15)
        assert consts["k"].value == pytest.approx(oracles.K_EXPONENT, rel=1e-15)
        assert consts["c"].value == pytest.approx(oracles.C_UPPER, rel=1e-15)
        assert consts["beta1"].value == pytest.approx(oracles.BETA1, rel=1e-15)
        assert consts["pi_over_2e"].value == pytest.approx(oracles.PI_OVER_2E, rel=1e-15)
        assert consts["beta"].value == pytest.approx(oracles.BETA_EM1_E, rel=1e-15)

    def test_closed_forms_parse_and_evaluate(self):
        # the closed_form strings live in the expression grammar
        for nc in ratios.named_constants().values():
            expr = parse_expr(nc.closed_form)
            got = float(evaluate(expr, 2.0, 1.0))  # constants ignore the pair
            assert abs(got - nc.value) <= 1e-15 * max(1.0, abs(nc.value))

    def test_beta1_is_reciprocal_of_c(self):
        consts = ratios.named_constants()
        assert consts["beta1"].value * consts["c"].value == pytest.approx(1.0, rel=1e-15)


class TestSeiffertGapDeviation:
    def test_matches_ratio_minus_one_at_moderate_x(self):
        for x in (0.5, 1.0, 1.5):
            dev = ratios.seiffert_gap_deviation(x)
            raw = ratios.ratio_eval(RatioFn.SEIFFERT_GAP_RATIO, x) - 1.0
            assert dev == pytest.approx(raw, rel=1e-9)

    def test_leading_term(self):
        x = 1e-4
        assert ratios.seiffert_gap_deviation(x) == pytest.approx(x**6 / 3240.0, rel=1e-7)
