import collections
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meanlab.means as M
from meanlab import series
from meanlab.errors import DegeneratePairError, DomainError
from meanlab.expressions import GridContext, parse_expr
from meanlab.means import MeanKind, PositivePair

import oracles
import references as R


def _rel(a, b):
    return abs(a - b) / abs(b)


class TestClosedForms:
    def test_basic_means_at_4_1(self):
        assert M.arithmetic(4, 1) == 2.5
        assert M.geometric(4, 1) == 2.0
        assert M.harmonic(4, 1) == pytest.approx(1.6, rel=1e-15)

    def test_oracle_values_at_4_1(self):
        assert _rel(M.logarithmic(4, 1), oracles.L_4_1) < 1e-15
        assert _rel(M.identric(4, 1), oracles.I_4_1) < 1e-15
        assert _rel(M.seiffert(4, 1), oracles.P_4_1) < 1e-15
        assert _rel(M.x_mean(4, 1), oracles.X_4_1) < 1e-15
        assert _rel(M.y_mean(4, 1), oracles.Y_4_1) < 1e-15
        assert _rel(M.heronian_mean(4, 1, 0.5), oracles.HERONIAN_HALF_4_1) < 1e-14

    def test_e_1_closed_forms(self):
        assert _rel(M.logarithmic(math.e, 1), math.e - 1) < 1e-15
        assert _rel(M.identric(math.e, 1), oracles.IDENTRIC_E_1) < 1e-15

    def test_power_mean_examples(self):
        assert M.power_mean(4, 1, 0.5) == pytest.approx(2.25, rel=1e-14)
        assert M.power_mean(4, 1, 1.0) == pytest.approx(2.5, rel=1e-14)
        assert M.power_mean(4, 1, 0.0) == pytest.approx(2.0, rel=1e-15)
        assert M.power_mean(4, 1, -1.0) == pytest.approx(1.6, rel=1e-14)

    def test_heronian_examples(self):
        assert M.heronian_mean(4, 1, 1.0) == pytest.approx(7.0 / 3.0, rel=1e-14)
        assert M.heronian_mean(9, 9, 2.7) == 9.0

    def test_diagonal_is_exact(self):
        for f in (
            M.arithmetic,
            M.geometric,
            M.harmonic,
            M.logarithmic,
            M.identric,
            M.seiffert,
            M.x_mean,
            M.y_mean,
        ):
            assert f(3.7, 3.7) == 3.7
        assert M.power_mean(3.7, 3.7, 0.41) == 3.7
        assert M.heronian_mean(3.7, 3.7, -1.3) == 3.7

    def test_bounds_at_4_1(self):
        # X sits between G and P, Y between H and G
        g, x, p = M.geometric(4, 1), M.x_mean(4, 1), M.seiffert(4, 1)
        assert g < x < p
        h, y = M.harmonic(4, 1), M.y_mean(4, 1)
        assert h < y < g

    def test_domain_errors(self):
        for bad in ((0.0, 1.0), (-2.0, 3.0), (math.nan, 1.0), (math.inf, 1.0)):
            with pytest.raises(DomainError):
                M.arithmetic(*bad)
            with pytest.raises(DomainError):
                M.x_mean(*bad)
        with pytest.raises(DomainError):
            M.power_mean(2, 3, math.inf)
        with pytest.raises(DomainError):
            M.heronian_mean(2, 3, math.nan)


def _ulps(value, ref):
    # math.ulp, not np.spacing, which overflows at the largest double
    return float(abs(mpmath.mpf(value) - ref)) / math.ulp(abs(float(ref)))


class TestAgainstMpmathOracle:
    FULL_RANGE = oracles.FULL_RANGE

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "kind",
        [MeanKind(tag) for tag in "GHLIPXY"]
        + [MeanKind.power(p) for p in (-2.0, 0.5, 3.0)]
        + [MeanKind.heronian(p) for p in (0.5, 2.0)],
        ids=lambda k: k.label(),
    )
    def test_power_type_rel_over_the_full_range(self, kind):
        # log(G/A) comes from y once t is near 1, where log1p(-t^2) cancels
        # and from a/b ~ 1e16 is log1p(-1)
        for r in self.FULL_RANGE:
            with mpmath.workdps(80):
                ref = mpmath.log(oracles._mp_mean(kind, r, 1.0) / ((mpmath.mpf(r) + 1) / 2))
            got = M.log_over_arithmetic(kind, r, 1.0)
            assert _rel(got, float(ref)) < 1e-12, (kind.label(), r, got, float(ref))
        assert M.log_over_arithmetic(MeanKind("A"), self.FULL_RANGE[-1], 1.0) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "a,b", [(1.0000001e15, 1.0), (1e50, 1.0), (1e100, 1.0), (1e300, 1.0), (1e308, 1e-308),
                (1.7e308, 1e-5), (2.5e-300, 1e-320)],
    )
    def test_identric_past_u_1e15_within_an_ulp(self, a, b):
        # anchored at hi, exp sees an exponent in (-1, 0)
        with mpmath.workdps(80):
            hi, lo = mpmath.mpf(a), mpmath.mpf(b)
            ref = mpmath.exp((hi * mpmath.log(hi) - lo * mpmath.log(lo)) / (hi - lo) - 1)
        assert (a - b) / b >= 1e15
        assert _ulps(M.identric(a, b), ref) <= 1.0
        assert _ulps(M.identric(b, a), ref) <= 1.0

    def test_random_pairs_all_means(self):
        rng = np.random.default_rng(7)
        bs = np.exp(rng.uniform(math.log(1e-4), math.log(1e4), 25))
        rs = np.exp(rng.uniform(math.log(1.0 + 1e-7), math.log(1e7), 25))
        fns = {
            "A": M.arithmetic,
            "G": M.geometric,
            "H": M.harmonic,
            "L": M.logarithmic,
            "I": M.identric,
            "P": M.seiffert,
            "X": M.x_mean,
            "Y": M.y_mean,
        }
        for b, r in zip(bs, rs):
            a = b * r
            ref = oracles.mp_means(a, b)
            for tag, fn in fns.items():
                assert _rel(fn(a, b), float(ref[tag])) < 5e-14, (tag, a, b)

    def test_power_type_means_vs_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            b = float(np.exp(rng.uniform(-5, 5)))
            a = b * float(np.exp(rng.uniform(1e-6, 8)))
            p = float(rng.uniform(-3, 3))
            assert _rel(M.power_mean(a, b, p), float(oracles.mp_power_mean(a, b, p))) < 5e-14
            assert _rel(M.heronian_mean(a, b, p), float(oracles.mp_heronian(a, b, p))) < 5e-14


def _random_pairs(n, seed, ratio_lo=1.0 + 1e-9, ratio_hi=1e8):
    rng = np.random.default_rng(seed)
    b = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), n))
    r = np.exp(rng.uniform(math.log(ratio_lo), math.log(ratio_hi), n))
    return b * r, b


_ALL_KERNELS = [
    M.arithmetic,
    M.geometric,
    M.harmonic,
    M.logarithmic,
    M.identric,
    M.seiffert,
    M.x_mean,
    M.y_mean,
]


class TestAlgebraicProperties:
    def test_symmetry(self):
        a, b = _random_pairs(10_000, 11)
        for f in _ALL_KERNELS:
            lhs, rhs = f(a, b), f(b, a)
            assert np.all(np.abs(lhs - rhs) <= 1e-15 * np.abs(rhs))
        for p in (-1.5, 0.0, 0.37, 2.0):
            assert np.all(M.power_mean(a, b, p) == M.power_mean(b, a, p))
            assert np.all(M.heronian_mean(a, b, p) == M.heronian_mean(b, a, p))

    @pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
    def test_homogeneity(self, lam):
        a, b = _random_pairs(10_000, 12)
        for f in _ALL_KERNELS:
            base = f(a, b)
            scaled = f(lam * a, lam * b)
            assert np.all(np.abs(scaled - lam * base) <= 1e-13 * lam * base)
        for p in (0.5, -2.0):
            base = M.power_mean(a, b, p)
            assert np.all(np.abs(M.power_mean(lam * a, lam * b, p) - lam * base) <= 1e-13 * lam * base)

    def test_mean_property(self):
        a, b = _random_pairs(10_000, 13)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        for f in _ALL_KERNELS:
            v = f(a, b)
            assert np.all(v > lo) and np.all(v < hi)
        for p in (0.3, -1.0):
            v = M.power_mean(a, b, p)
            assert np.all(v > lo) and np.all(v < hi)
            v = M.heronian_mean(a, b, p)
            assert np.all(v > lo) and np.all(v < hi)

    def test_classical_ordering(self):
        # H <= G <= L <= P <= I <= A, strict off the diagonal.  P and I agree
        # to t^4/90, so strictness is only resolvable in doubles for t above
        # ~0.012; below that allow a one-ulp tie.
        a, b = _random_pairs(10_000, 14, ratio_lo=1.05)
        h, g, l = M.harmonic(a, b), M.geometric(a, b), M.logarithmic(a, b)
        p, i, am = M.seiffert(a, b), M.identric(a, b), M.arithmetic(a, b)
        for lo_v, hi_v in ((h, g), (g, l), (l, p), (p, i), (i, am)):
            assert np.all(lo_v < hi_v)
        a, b = _random_pairs(10_000, 15, ratio_lo=1.0 + 1e-9, ratio_hi=1.05)
        vals = [
            M.harmonic(a, b),
            M.geometric(a, b),
            M.logarithmic(a, b),
            M.seiffert(a, b),
            M.identric(a, b),
            M.arithmetic(a, b),
        ]
        for lo_v, hi_v in zip(vals, vals[1:]):
            assert np.all(lo_v <= hi_v * (1.0 + 1e-15))

    def test_power_mean_monotone_in_exponent(self):
        rng = np.random.default_rng(15)
        a, b = _random_pairs(10_000, 16, ratio_lo=1.001)
        p = rng.uniform(-3.0, 2.9, 10_000)
        q = p + rng.uniform(0.05, 1.0, 10_000)
        assert np.all(M.power_mean(a, b, p) < M.power_mean(a, b, q))
        assert np.all(M.heronian_mean(a, b, p) < M.heronian_mean(a, b, q))

    def test_continuity_at_diagonal(self):
        # every mean here has first-order expansion 1 + h/2 at (1 + h, 1)
        for h in (1e-4, 1e-5, 1e-6):
            for f in _ALL_KERNELS:
                err = abs(f(1.0 + h, 1.0) - 1.0 - h / 2.0)
                assert err <= 0.3 * h * h, (f.__name__, h, err)


_POSITIVE_DOUBLES = st.floats(
    min_value=5e-324, max_value=1.7976931348623157e308, allow_subnormal=True
)


class TestHarmonicOverTheFullRange:
    @given(_POSITIVE_DOUBLES, _POSITIVE_DOUBLES)
    @example(2.841085417251251e307, 7.895939463771861e307)  # 2.07 ulp as 2 hi (lo/(hi + lo))
    @settings(max_examples=500, deadline=None)
    def test_finite_in_range_and_within_2_ulp(self, a, b):
        # 2ab/(a + b) exactly, on the scalar path and the grid path
        exact = 2 * Fraction(a) * Fraction(b) / (Fraction(a) + Fraction(b))
        ulp = Fraction(math.ulp(float(exact)))
        pair = np.array([a]), np.array([b])
        for value in (M.harmonic(a, b), *M.harmonic(*pair)):
            assert math.isfinite(value)
            assert min(a, b) <= value <= max(a, b)
            assert abs(Fraction(float(value)) - exact) <= 2 * ulp, (a, b, value)


class TestIdentricOverTheFullRange:
    @given(_POSITIVE_DOUBLES, _POSITIVE_DOUBLES)
    @example(1.7976931348623157e308, 1.7976931348623155e308)  # lo e^(...) rounded past max
    @example(1.5846e308, 1.7674e293)  # exp amplified an exponent near log u
    @settings(max_examples=300, deadline=None)
    def test_finite_in_range_and_within_4_ulp(self, a, b):
        # on the scalar path and the grid path
        ref = oracles.mp_means(a, b)["I"]
        pair = np.array([a]), np.array([b])
        for value in (M.identric(a, b), *M.identric(*pair)):
            assert math.isfinite(value)
            assert min(a, b) <= value <= max(a, b)
            assert _ulps(value, ref) <= 4.0, (a, b, value)


class TestWidePairs:
    #: ulps from the oracle allowed per kernel whose sums can overflow
    BUDGET = {"A": 0.5, "L": 4.0, "P": 4.0, "X": 4.0, "Y": 4.0}
    KERNELS = {"A": M.arithmetic, "L": M.logarithmic, "P": M.seiffert, "X": M.x_mean,
               "Y": M.y_mean}

    @given(st.floats(min_value=8.988465674311579e307, max_value=1.7976931348623157e308),
           _POSITIVE_DOUBLES)
    @example(1.739707779278347e308, 6.751665112917915e292)  # L 23 ulp off as log(hi) - log(lo)
    @settings(max_examples=300, deadline=None)
    def test_finite_in_range_and_within_budget(self, hi, lo):
        # hi >= max/2, so hi + lo overflows for the larger lo; on the scalar
        # path and the grid path
        lo = min(lo, hi)
        ref = oracles.mp_means(hi, lo)
        pair = np.array([hi]), np.array([lo])
        for tag, kernel in self.KERNELS.items():
            for value in (kernel(hi, lo), *kernel(*pair)):
                assert math.isfinite(value) and lo <= value <= hi, (tag, hi, lo, value)
                assert _ulps(value, ref[tag]) <= self.BUDGET[tag], (tag, hi, lo, value)


class TestPowerTypeAndExponentialMeansOverTheFullRange:
    ORDERS = (-3.0, 0.5, 2.0)

    @given(_POSITIVE_DOUBLES, _POSITIVE_DOUBLES)
    @example(1.7e308, 5e-324)  # e^E overflowed in M_p = G e^E
    @example(2.2250738585072014e-308, 3e-320)  # G subnormal: M_2 was 5.6e-11 off as G e^E
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("error")
    def test_finite_in_range_and_accurate(self, a, b):
        # on the scalar path and the grid path
        lo, hi = min(a, b), max(a, b)
        pair = np.array([a]), np.array([b])

        def values(kernel, *p):
            return kernel(a, b, *p), *kernel(*pair, *p)

        ref = oracles.mp_means(a, b)
        for tag, kernel in (("X", M.x_mean), ("Y", M.y_mean)):
            for value in values(kernel):
                assert math.isfinite(value) and lo <= value <= hi, (tag, a, b, value)
                assert _ulps(value, ref[tag]) <= 4.0, (tag, a, b, value)
        for kernel, oracle in ((M.power_mean, oracles.mp_power_mean),
                               (M.heronian_mean, oracles.mp_heronian)):
            for p in self.ORDERS:
                ref = oracle(a, b, p)
                for value in values(kernel, p):
                    assert math.isfinite(value) and lo <= value <= hi, (kernel, p, a, b, value)
                    # within 1e-12 relative; a subnormal result is only as
                    # close as its spacing
                    error = abs(mpmath.mpf(value) - ref)
                    assert error <= 1e-12 * ref + 2.0**-1074, (kernel, p, a, b, value)

    # both sides of 0 in each branch: p -> 0 (|p| < POWER_LIMIT_THRESHOLD),
    # log1p(2 sinh(p y/2)^2)/p, and |p y| > 700 at the larger ratios
    SIGNED_ORDERS = tuple(
        sign * p for p in (0.0, 1e-12, M.POWER_LIMIT_THRESHOLD, 0.5, 8.0, 1e4) for sign in (1.0, -1.0)
    )

    @pytest.mark.parametrize("p", SIGNED_ORDERS)
    def test_power_exponent_has_the_sign_of_the_order(self, p):
        # the bracket fixes the verdicts of every order of one sign from this
        ratios = np.array(oracles.FULL_RANGE)
        exponents = [*(M.power_mean_exponent(M.Pair(r, 1.0).y, p) for r in ratios),
                     *M.power_mean_exponent(M.Pair(ratios, 1.0).y, p),
                     *M.power_mean_exponent(M.Pair(1.0 / ratios, 1.0).y, p)]
        if p <= 0.0:
            assert all(e <= 0.0 for e in exponents), (p, exponents)
        if p >= 0.0:
            assert all(e >= 0.0 for e in exponents), (p, exponents)


class TestDualRoutes:
    def _pairs_with_tiny_band(self):
        a1, b1 = _random_pairs(900, 21)
        rng = np.random.default_rng(22)
        b2 = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 100))
        u = np.exp(rng.uniform(math.log(1e-9), math.log(2e-5), 100))
        a2 = b2 * (1.0 + u)
        # and a pair whose sum overflows, and one past y = 710
        a = np.concatenate([a1, a2, [1.7e308, 1.7e308]])
        b = np.concatenate([b1, b2, [1.6e308, 5e-324]])
        assert int(np.sum(M.Pair(a, b).t < 1e-5)) >= 100
        return a, b

    @pytest.mark.parametrize(
        "direct,param",
        [
            (M.logarithmic, R.logarithmic_param),
            (M.seiffert, R.seiffert_param),
            (R.x_mean_direct, M.x_mean),
            (M.identric, R.identric_param),
            (R.y_mean_direct, M.y_mean),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_routes_agree(self, direct, param):
        a, b = self._pairs_with_tiny_band()
        v1, v2 = direct(a, b), param(a, b)
        assert np.all(np.abs(v1 - v2) <= 1e-12 * np.abs(v2))

    @pytest.mark.filterwarnings("error")
    def test_primary_matches_both_routes(self):
        # L and P are their own direct routes; their series routes are the
        # independent ones
        a, b = self._pairs_with_tiny_band()
        assert np.all(np.abs(M.logarithmic(a, b) - R.logarithmic_param(a, b)) <= 1e-12 * M.logarithmic(a, b))
        assert np.all(np.abs(M.seiffert(a, b) - R.seiffert_param(a, b)) <= 1e-12 * M.seiffert(a, b))
        assert np.all(np.abs(M.x_mean(a, b) - R.x_mean_direct(a, b)) <= 1e-12 * M.x_mean(a, b))


class TestParamPoint:
    def test_values_at_4_1(self):
        pt = M.param_point(PositivePair(4.0, 1.0))
        assert _rel(pt.x, oracles.PARAM_X_4_1) < 1e-15
        assert _rel(pt.y, oracles.PARAM_Y_4_1) < 1e-15

    def test_roundtrip_identities(self):
        # cos(x) carries absolute error ~eps near pi/2, so the relative
        # identity is testable at 1e-14 for ratios up to ~10^3
        rng = np.random.default_rng(23)
        for _ in range(200):
            b = float(np.exp(rng.uniform(-6, 6)))
            a = b * float(np.exp(rng.uniform(1e-8, math.log(1000.0))))
            pt = M.param_point(PositivePair(a, b))
            g_over_a = M.geometric(a, b) / M.arithmetic(a, b)
            assert _rel(math.cos(pt.x), g_over_a) < 1e-14
            assert _rel(math.cosh(pt.y), 1.0 / g_over_a) < 1e-14

    def test_first_order_near_diagonal(self):
        eps = 1e-9
        pt = M.param_point(PositivePair(1.0 + eps, 1.0))
        assert pt.x == pytest.approx(eps / 2, rel=1e-6)
        assert pt.y == pytest.approx(eps / 2, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a,b", [(1.7e308, 1.6e308), (1e300, 1e-300), (1.0, 1e300)])
    def test_full_range_against_the_oracle(self, a, b):
        # hi + lo overflows at the first pair, (hi - lo)/lo at the second
        with mpmath.workdps(40):
            hi, lo = mpmath.mpf(max(a, b)), mpmath.mpf(min(a, b))
            t = (hi - lo) / (hi + lo)
            x, y = mpmath.asin(t), mpmath.log(hi / lo) / 2
        pt = M.param_point(PositivePair(a, b))
        assert _ulps(pt.x, x) <= 2.0 and _ulps(pt.y, y) <= 2.0, pt
        signed = PositivePair(a, b).t
        assert _ulps(math.copysign(signed, 1.0), t) <= 2.0 and (signed > 0) == (a > b)
        assert PositivePair(b, a).t == -signed

    def test_degenerate_pair(self):
        with pytest.raises(DegeneratePairError):
            M.param_point(PositivePair(2.0, 2.0))

    def test_pair_validation(self):
        with pytest.raises(DomainError):
            PositivePair(0.0, 1.0)
        with pytest.raises(DomainError):
            PositivePair(1.0, -3.0)
        with pytest.raises(DomainError):
            PositivePair(math.inf, 1.0)
        assert abs(PositivePair(4.0, 1.0).t - 0.6) < 1e-16
        assert abs(PositivePair(1.0, 4.0).t + 0.6) < 1e-16


class TestTypedFacade:
    def test_mean_kind_validation(self):
        with pytest.raises(DomainError):
            MeanKind("Z")
        with pytest.raises(DomainError):
            MeanKind("A", exponent=2.0)
        with pytest.raises(DomainError):
            MeanKind("Mp")
        with pytest.raises(DomainError):
            MeanKind.power(math.inf)
        assert MeanKind.power(0.5).label() == "Mp[0.5]"
        assert MeanKind("P").label() == "P"

    def test_eval_mean_dispatch(self):
        pair = PositivePair(4.0, 1.0)
        assert M.eval_mean(MeanKind("A"), pair) == 2.5
        assert _rel(M.eval_mean(MeanKind("X"), pair), oracles.X_4_1) < 1e-15
        assert M.eval_mean(MeanKind.power(0.5), pair) == pytest.approx(2.25, rel=1e-14)
        assert _rel(M.eval_mean(MeanKind.heronian(0.5), pair), oracles.HERONIAN_HALF_4_1) < 1e-14

    def test_eval_all_vector(self):
        pair = PositivePair(4.0, 1.0)
        v = M.eval_all(pair)
        assert v.as_dict() == {
            "A": M.arithmetic(4, 1),
            "G": M.geometric(4, 1),
            "H": M.harmonic(4, 1),
            "L": M.logarithmic(4, 1),
            "I": M.identric(4, 1),
            "P": M.seiffert(4, 1),
            "X": M.x_mean(4, 1),
            "Y": M.y_mean(4, 1),
        }
        assert v.point is not None
        ordering = [v.harmonic, v.geometric, v.logarithmic, v.seiffert, v.identric, v.arithmetic]
        assert all(x < y for x, y in zip(ordering, ordering[1:]))
        lo, hi = min(pair.a, pair.b), max(pair.a, pair.b)
        assert all(lo <= val <= hi for val in v.as_dict().values())

    def test_eval_all_diagonal(self):
        v = M.eval_all(PositivePair(5.5, 5.5))
        assert v.point is None
        assert set(v.as_dict().values()) == {5.5}


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestBranchCompaction:
    # each kernel evaluates a branch only on the points that take it, so the
    # grid straddles every branch threshold: t = SERIES_T_THRESHOLD (series
    # in the exponents of X and Y and the offsets of X, L, Y, I), t = 0.9
    # (half-angle arcsin), u = 1e15 (log ratio), y = 1 (log(G/A)) and
    # |p y| = 700 (power-type asymptote, reached by the orders +-3 from
    # a/b ~ 1e203), plus a == b
    KINDS = (
        [MeanKind(tag) for tag in "AGHLIPXY"]
        + [MeanKind.power(p) for p in (-3.0, -1.0, 0.0, 1e-9, 1.0 / 3.0, 0.5, 3.0)]
        + [MeanKind.heronian(p) for p in (-3.0, 0.0, 0.5, 3.0)]
    )

    @staticmethod
    def _threshold_ratios():
        series_ratio = (1.0 + M.SERIES_T_THRESHOLD) / (1.0 - M.SERIES_T_THRESHOLD)
        return np.array(
            [
                1.0, 1.0 + 2.0**-52,
                np.nextafter(series_ratio, 0.0), np.nextafter(series_ratio, np.inf),
                19.0, 19.000001,
                1e15, 1e15 + 1.0, 1.0000001e15, 1e203, 1e204, 1e300, 1.0,
            ]
        )

    @classmethod
    def _grid(cls):
        ratios = np.concatenate([cls._threshold_ratios(), np.geomspace(1.0 + 1e-12, 1e300, 200)])
        rng = np.random.default_rng(7)
        b = np.exp(rng.uniform(-5.0, 5.0, ratios.size))
        a = ratios * b
        swap = rng.random(ratios.size) < 0.5
        return np.where(swap, b, a), np.where(swap, a, b)

    def test_grid_straddles_every_threshold(self):
        pair = M.Pair(*self._grid())
        u = (pair.hi - pair.lo) / pair.lo
        y3 = np.abs(3.0 * pair.y)
        masks = (pair.eq, pair.t < M.SERIES_T_THRESHOLD, pair.t > 0.9, u >= 1e15, pair.y > 1.0)
        for mask in (*masks, y3 > 700.0):
            assert 0 < int(np.sum(mask)) < mask.size

    def test_both_sides_of_each_threshold_match_the_oracle(self):
        # agreement above only shows that compaction scatters consistently;
        # this shows each side of a threshold computes the right branch
        a, b = self._grid()
        for j in range(self._threshold_ratios().size):
            ref = oracles.mp_means(float(a[j]), float(b[j]))
            for tag, fn in M._KERNELS.items():
                assert _rel(fn(float(a[j]), float(b[j])), float(ref[tag])) < 5e-14, (tag, j)

    @pytest.mark.parametrize("rel", [False, True], ids=["mean", "rel"])
    def test_whole_chunked_and_unprepared_agree_bitwise(self, rel):
        a, b = self._grid()

        def run(kind, a, b, pair):
            if rel:
                return M.log_over_arithmetic(kind, a, b, pair=pair)
            return M.mean_kernel(kind)(a, b, pair=pair)

        for kind in self.KINDS:
            whole = run(kind, a, b, M.Pair(a, b))
            assert _bits(whole).tolist() == _bits(run(kind, a, b, None)).tolist(), kind
            for size in (1, 7):
                chunks = [slice(i, i + size) for i in range(0, a.size, size)]
                parts = [run(kind, a[c], b[c], M.Pair(a[c], b[c])) for c in chunks]
                assert _bits(whole).tolist() == _bits(np.concatenate(parts)).tolist(), (kind, size)
            # a scalar pair takes each branch whole, and must give the bits
            # of its grid point on both sides of every threshold
            scalars = [run(kind, float(x), float(y), None) for x, y in zip(a, b)]
            assert all(isinstance(v, float) for v in scalars), kind
            assert _bits(scalars).tolist() == _bits(whole).tolist(), kind

    def test_power_means_broadcast_an_array_of_orders(self):
        a, b = self._grid()
        orders = np.array([-3.0, 0.0, 1e-9, 0.5, 3.0])
        for fn in (M.power_mean, M.heronian_mean):
            table = fn(a, b, orders[:, None])
            assert table.shape == (orders.size, a.size)
            for row, p in zip(table, orders):
                assert _bits(row).tolist() == _bits(fn(a, b, p)).tolist(), (fn.__name__, p)
            assert _bits(fn(4.0, 1.0, orders)).tolist() == [_bits(fn(4.0, 1.0, p)) for p in orders]

    def test_one_pair_past_the_anchor_gives_its_scalar_bits(self):
        # a grid switches to the anchor at hi only when its extremes call
        # for it; then the pair past it takes it and the others do not.  The
        # first pair has e^E overflow, the second a subnormal G
        for far in ((1.7e308, 5e-324), (2.2250738585072014e-308, 3e-320)):
            a, b = np.array([4.0, far[0], 2.0]), np.array([1.0, far[1], 3.0])
            for fn, p in ((M.power_mean, 2.0), (M.heronian_mean, 0.5)):
                scalars = [fn(float(x), float(y), p) for x, y in zip(a, b)]
                assert _bits(fn(a, b, p)).tolist() == _bits(scalars).tolist(), (fn.__name__, far)


class TestExponentsOncePerPair:
    # x cot x - 1 and w = y coth y - 1 are quantities of the pair: each
    # series runs once per pair, however many kernels and offsets read them
    EXPRESSIONS = ("Y", "G - Y", "A - L", "I - L", "X", "log(X/A)")
    GRID = np.geomspace(1.01, 1e3, 64)  # straddles SERIES_T_THRESHOLD (a/b = 15)

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()
        for name in ("xcotx_minus_one", "ycothy_minus_one"):
            def counted(x, fn=getattr(series, name), name=name):
                calls[name] += 1
                return fn(x)

            monkeypatch.setattr(series, name, counted)
        return calls

    def test_on_a_grid(self, calls):
        t = M.Pair(self.GRID, 1.0).t
        assert (t < M.SERIES_T_THRESHOLD).any() and (t >= M.SERIES_T_THRESHOLD).any()
        ctx = GridContext(self.GRID, 1.0)
        for text in self.EXPRESSIONS:
            ctx.evaluate(parse_expr(text))
        assert calls == {"xcotx_minus_one": 1, "ycothy_minus_one": 1}

    def test_on_a_scalar_pair(self, calls):
        ctx = GridContext(1.5, 1.0)
        for text in self.EXPRESSIONS:
            ctx.evaluate(parse_expr(text))
        assert calls == {"xcotx_minus_one": 1, "ycothy_minus_one": 1}
