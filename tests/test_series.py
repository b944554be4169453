import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from meanlab import series
from meanlab.errors import DomainError, SeriesDomainError
from meanlab.means import SERIES_T_THRESHOLD

import references
from references import SeriesKind


class TestBernoulli:
    def test_first_values_exact(self):
        assert references.bernoulli_even_abs(1) == Fraction(1, 6)
        assert references.bernoulli_even_abs(2) == Fraction(1, 30)
        assert references.bernoulli_even_abs(3) == Fraction(1, 42)
        assert references.bernoulli_even_abs(4) == Fraction(1, 30)
        assert references.bernoulli_even_abs(5) == Fraction(5, 66)

    def test_against_mpmath(self):
        for n in range(1, 31):
            ours = references.bernoulli_even_abs(n)
            ref = abs(mpmath.bernoulli(2 * n))
            assert abs(float(ours) - float(ref)) <= 1e-15 * float(ref)

    def test_all_positive(self):
        table = references.BernoulliTable(20)
        assert all(v > 0 for v in table.exact)

    def test_range_errors(self):
        with pytest.raises(DomainError):
            references.bernoulli_even_abs(0)
        with pytest.raises(DomainError):
            references.bernoulli_even_abs(31)
        small = references.BernoulliTable(5)
        assert references.bernoulli_even_abs(5, table=small) == Fraction(5, 66)
        with pytest.raises(DomainError):
            references.bernoulli_even_abs(6, table=small)


_DIRECT = {
    SeriesKind.X_COT_X: lambda x: x / math.tan(x),
    SeriesKind.COT_X: lambda x: 1.0 / math.tan(x),
    SeriesKind.COTH_X: lambda x: 1.0 / math.tanh(x),
    SeriesKind.INV_SIN_SQ: lambda x: 1.0 / math.sin(x) ** 2,
    SeriesKind.INV_SINH_SQ: lambda x: 1.0 / math.sinh(x) ** 2,
    SeriesKind.X_OVER_SIN: lambda x: x / math.sin(x),
}


class TestSeriesEval:
    @pytest.mark.parametrize("kind", list(SeriesKind))
    def test_matches_direct_transcendentals(self, kind):
        # tolerance scales with magnitude: the 1/x^2-singular expansions reach
        # ~1e4 at x = 0.01, where 1e-13 absolute is below one ulp
        for x in np.linspace(0.01, math.pi / 2, 100):
            direct = _DIRECT[kind](float(x))
            got = references.series_eval(kind, float(x))
            assert abs(got - direct) <= 1e-13 * max(1.0, abs(direct))

    def test_known_small_x_values(self):
        assert references.series_eval(SeriesKind.X_COT_X, 0.0) == 1.0
        assert references.series_eval(SeriesKind.X_OVER_SIN, 0.0) == 1.0
        assert references.series_eval(SeriesKind.X_COT_X, 0.5, terms=10) == pytest.approx(
            0.5 / math.tan(0.5), rel=1e-15, abs=1e-15
        )
        assert references.series_eval(SeriesKind.X_OVER_SIN, 0.5, terms=10) == pytest.approx(
            0.5 / math.sin(0.5), rel=1e-15, abs=1e-15
        )

    def test_array_input(self):
        xs = np.array([0.1, 0.5, 1.0])
        got = references.series_eval(SeriesKind.X_COT_X, xs)
        assert got.shape == (3,)
        for x, v in zip(xs, got):
            assert v == pytest.approx(_DIRECT[SeriesKind.X_COT_X](float(x)), rel=1e-14)

    @pytest.mark.parametrize("terms", [4, 6, 10])
    def test_truncation_error_bounded_by_twice_next_term(self, terms):
        for kind in SeriesKind:
            for x in (0.3, 0.9, 1.4, math.pi / 2):
                direct = _DIRECT[kind](x)
                got = references.series_eval(kind, x, terms=terms)
                bound = 2.0 * references.first_omitted_term(kind, x, terms)
                assert abs(got - direct) <= bound + 1e-14 * max(1.0, abs(direct))

    def test_partial_sums_decrease_for_xcotx(self):
        # all sum coefficients are positive, so adding terms only subtracts;
        # strictness holds until the added term falls below one ulp
        for x in (0.3, 1.0, 1.5):
            vals = [references.series_eval(SeriesKind.X_COT_X, x, terms=n) for n in range(1, 15)]
            assert all(b <= a for a, b in zip(vals, vals[1:]))
            resolvable = [
                n
                for n in range(1, 14)
                if references.first_omitted_term(SeriesKind.X_COT_X, x, n) > 1e-15
            ]
            assert resolvable, "test points must resolve at least one term"
            for n in resolvable:
                assert vals[n] < vals[n - 1]

    def test_terms_validation(self):
        with pytest.raises(DomainError):
            references.series_eval(SeriesKind.X_COT_X, 0.5, terms=0)
        with pytest.raises(DomainError):
            references.series_eval(SeriesKind.X_COT_X, 0.5, terms=31)

    def test_domain_errors(self):
        with pytest.raises(SeriesDomainError):
            references.series_eval(SeriesKind.X_COT_X, math.pi)
        with pytest.raises(SeriesDomainError):
            references.series_eval(SeriesKind.X_COT_X, -3.5)
        with pytest.raises(SeriesDomainError):
            references.series_eval(SeriesKind.COT_X, 0.0)
        with pytest.raises(SeriesDomainError):
            references.series_eval(SeriesKind.INV_SINH_SQ, 0.0)
        with pytest.raises(SeriesDomainError):
            references.series_eval(SeriesKind.X_COT_X, np.array([0.5, 3.2]))


class TestCoefficientStructure:
    def test_inv_sin_sq_is_derivative_of_cot(self):
        # 1/sin^2 = -(cot)' term by term: coefficient n picks up (2n-1)
        cot = references.series_coefficients(SeriesKind.COT_X, 15)
        inv = references.series_coefficients(SeriesKind.INV_SIN_SQ, 15)
        for n, (c, i) in enumerate(zip(cot, inv), start=1):
            assert i == c * (2 * n - 1)

    def test_inv_sinh_sq_is_derivative_of_coth(self):
        coth = references.series_coefficients(SeriesKind.COTH_X, 15)
        inv = references.series_coefficients(SeriesKind.INV_SINH_SQ, 15)
        for n, (c, i) in enumerate(zip(coth, inv), start=1):
            assert i == c * (2 * n - 1)

    def test_hyperbolic_coefficients_alternate(self):
        coth = references.series_coefficients(SeriesKind.COTH_X, 10)
        assert coth[0] > 0  # y/3 term
        signs = [1 if c > 0 else -1 for c in coth]
        assert signs == [(-1) ** (n - 1) for n in range(1, 11)]

    def test_trigonometric_coefficients_positive(self):
        for kind in (SeriesKind.X_COT_X, SeriesKind.COT_X, SeriesKind.X_OVER_SIN):
            assert all(c > 0 for c in references.series_coefficients(kind, 12))

    def test_leading_coefficients(self):
        assert references.series_coefficients(SeriesKind.X_COT_X, 2) == [
            Fraction(1, 3),
            Fraction(1, 45),
        ]
        assert references.series_coefficients(SeriesKind.X_OVER_SIN, 2) == [
            Fraction(1, 6),
            Fraction(7, 360),
        ]


def _mp_ref(fn, x):
    # high-precision reference: naive double evaluation of f(x) - 1 loses
    # everything once f(x) rounds to 1, which is the regime these kernels fix
    return float(fn(mpmath.mpf(x)))


class TestKeptKinds:
    # the lab's three expansions, against the catalogue in references
    def test_coefficients_match_the_catalogue_exactly(self):
        for kind in series.SeriesKind:
            got = series.series_coefficients(kind, series.DEFAULT_TERMS)
            want = references.series_coefficients(SeriesKind[kind.name], series.DEFAULT_TERMS)
            assert all(isinstance(c, Fraction) for c in got), kind
            assert got == want, kind

    def test_terms_validation(self):
        for terms in (0, series.DEFAULT_TERMS + 1):
            with pytest.raises(DomainError):
                series.series_coefficients(series.SeriesKind.X_COT_X, terms)

    @pytest.mark.parametrize("name", ["xcotx_minus_one", "xoversin_minus_one", "ycothy_minus_one"])
    def test_one_domain_check(self, name):
        kernel = getattr(series, name)
        for x in (math.pi, -math.pi, 3.5, math.inf, math.nan):
            with pytest.raises(SeriesDomainError):
                kernel(x)
            with pytest.raises(SeriesDomainError):
                kernel(np.array([0.5, x]))


class TestHelperKernels:
    def test_xcotx_minus_one(self):
        for x in (1e-8, 1e-4, 0.3, math.asin(SERIES_T_THRESHOLD), 1.5):
            ref = _mp_ref(lambda v: v * mpmath.cos(v) / mpmath.sin(v) - 1, x)
            assert series.xcotx_minus_one(x) == pytest.approx(ref, rel=1e-12)

    def test_xoversin_minus_one(self):
        for x in (1e-8, 0.2, 1.5):
            ref = _mp_ref(lambda v: v / mpmath.sin(v) - 1, x)
            assert series.xoversin_minus_one(x) == pytest.approx(ref, rel=1e-12)

    def test_ycothy_minus_one(self):
        for y in (1e-8, 0.05, 0.4, 1.0, math.atanh(SERIES_T_THRESHOLD)):
            ref = _mp_ref(lambda v: v / mpmath.tanh(v) - 1, y)
            assert series.ycothy_minus_one(y) == pytest.approx(ref, rel=1e-12)

    def test_sinh_over_y(self):
        for y in (0.0, 1e-8, 0.2, 1.0):
            ref = math.sinh(y) / y if y else 1.0
            assert references.sinh_over_y(y) == pytest.approx(ref, rel=1e-13)

    def test_sinh_over_y_rejects_out_of_range_terms(self):
        # 169! is the largest odd factorial below the largest double, so 84
        # terms is the most; 0 terms would silently return 1.0
        assert references.sinh_over_y(0.5, terms=1) == 1.0 + 0.25 / 6.0
        assert references.sinh_over_y(0.5, terms=84) == pytest.approx(math.sinh(0.5) / 0.5, rel=1e-15)
        for terms in (0, -1, 85, 90):
            with pytest.raises(DomainError):
                references.sinh_over_y(0.5, terms=terms)
            with pytest.raises(DomainError):
                references.sinh_over_y(np.array([0.1, 0.5]), terms=terms)


class TestCoeffRatioMonotonicity:
    def test_quotient_coefficient_ratio_is_decreasing(self):
        # numerators n*c_n against denominators n*(2n-1)*c_n: ratio 1/(2n-1)
        c = references.series_coefficients(SeriesKind.X_COT_X, 20)
        numer = [2 * Fraction(n) * c[n - 1] for n in range(1, 21)]
        denom = [2 * Fraction(n) * (2 * n - 1) * c[n - 1] for n in range(1, 21)]
        assert references.coeff_ratio_monotonicity(numer, denom, 20) == references.DECREASING

    def test_constant_ratio_is_neither(self):
        seq = [Fraction(3, 7)] * 10
        assert references.coeff_ratio_monotonicity(seq, seq, 10) == references.NEITHER

    def test_linear_over_constant_is_increasing(self):
        numer = list(range(1, 11))
        denom = [1] * 10
        assert references.coeff_ratio_monotonicity(numer, denom, 10) == references.INCREASING

    def test_mixed_is_neither(self):
        assert references.coeff_ratio_monotonicity([1, 3, 2], [1, 1, 1], 3) == references.NEITHER

    def test_errors(self):
        with pytest.raises(DomainError):
            references.coeff_ratio_monotonicity([1, 2], [1, -1], 2)
        with pytest.raises(DomainError):
            references.coeff_ratio_monotonicity([1], [1], 2)
        with pytest.raises(DomainError):
            references.coeff_ratio_monotonicity([1, 2], [1, 1], 1)
