import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanlab import means
from meanlab.errors import EvalError, ParseError
from meanlab.expressions import (
    BinOp,
    Call,
    Const,
    GridContext,
    MeanCall,
    MeanSymbol,
    Num,
    cached_reads,
    evaluate,
    fold,
    parse_expr,
    to_text,
)
from meanlab.means import MeanKind

import oracles


def _ev(text, a=4.0, b=1.0):
    return evaluate(parse_expr(text), a, b)


class TestParsing:
    def test_carlson_bound(self):
        assert _ev("(2*G + A)/3") == pytest.approx(6.5 / 3.0, rel=1e-15)
        assert _ev("(P+X)/2") == pytest.approx((oracles.P_4_1 + oracles.X_4_1) / 2, rel=1e-14)

    def test_nested_mean(self):
        got = _ev("L(X, A)")
        assert got == pytest.approx(oracles.LOG_MEAN_X_A_4_1, rel=1e-13)

    def test_power_of_ratio(self):
        got = _ev("A*(X/A)^log(pi/2)")
        x_over_a = means.x_mean(4, 1) / 2.5
        assert got == pytest.approx(2.5 * x_over_a ** math.log(math.pi / 2), rel=1e-14)

    def test_parametric_means(self):
        assert _ev("Mp[0.5]") == pytest.approx(2.25, rel=1e-14)
        assert _ev("Hp[0.5]") == pytest.approx(oracles.HERONIAN_HALF_4_1, rel=1e-14)
        assert _ev("Mp[-1]") == pytest.approx(1.6, rel=1e-14)
        assert _ev("Mp[0.5](A, G)") == pytest.approx(
            means.power_mean(2.5, 2.0, 0.5), rel=1e-14
        )

    def test_constants_and_functions(self):
        assert _ev("e") == pytest.approx(math.e, rel=1e-16)
        assert _ev("pi/2") == pytest.approx(math.pi / 2, rel=1e-16)
        assert _ev("exp(1)") == pytest.approx(math.e, rel=1e-15)
        assert _ev("log(e)") == pytest.approx(1.0, rel=1e-15)
        assert _ev("sqrt(4)") == 2.0

    def test_precedence_and_associativity(self):
        assert _ev("2+3*4^2") == 50.0
        assert _ev("2^3^2") == 512.0  # right-associative
        assert _ev("8/4/2") == 1.0  # left-associative
        assert _ev("-2 + 5") == 3.0
        assert _ev("2*-3") == -6.0

    def test_x_mean_identity_expression(self):
        got = _ev("A*exp(G/P - 1)")
        assert got == pytest.approx(means.x_mean(4, 1), rel=1e-13)

    def test_whitespace_insensitive(self):
        assert _ev(" ( 2*G+A ) /3 ") == _ev("(2*G+A)/3")

    @pytest.mark.parametrize(
        "bad,offset",
        [
            ("(2*G+", 5),
            ("2 @ 3", 2),
            ("Q", 0),
            ("Mp[", 3),
            ("Mp[q]", 3),
            ("log 2", 4),
            ("L(X)", 3),
            ("", 0),
            ("2 3", 2),
        ],
    )
    def test_parse_errors_carry_position(self, bad, offset):
        with pytest.raises(ParseError) as err:
            parse_expr(bad)
        assert err.value.position == offset

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expr("2*W + 1")

    def test_each_text_is_parsed_once(self):
        text = "(P + X)/2 - L(X, Mp[0.5])"
        assert parse_expr(text) is parse_expr(text)
        assert parse_expr(text) == parse_expr(text + " ")

    @pytest.mark.parametrize("bad,offset", [("(2*G+", 5), ("Mp[q]", 3), ("", 0)])
    def test_parse_error_is_raised_on_every_call(self, bad, offset):
        for _ in range(3):
            with pytest.raises(ParseError) as err:
                parse_expr(bad)
            assert err.value.position == offset


class TestEvaluation:
    def test_array_evaluation(self):
        a = np.array([2.0, 4.0, 9.0])
        got = evaluate(parse_expr("G"), a, 1.0)
        assert np.allclose(got, np.sqrt(a), rtol=1e-15)

    def test_constant_expression_broadcasts(self):
        a = np.linspace(2, 3, 5)
        got = evaluate(parse_expr("pi"), a, 1.0)
        assert got.shape == (5,)
        assert np.all(got == math.pi)

    def test_log_of_negative_raises(self):
        with pytest.raises(EvalError) as err:
            _ev("log(G - A)")  # G < A so the argument is negative
        assert "log" in str(err.value)

    def test_sqrt_of_negative_raises(self):
        with pytest.raises(EvalError):
            _ev("sqrt(G - A)")

    def test_division_by_zero_raises(self):
        with pytest.raises(EvalError):
            _ev("1/(A - A)")

    def test_nested_mean_needs_positive_args(self):
        # A*1e308 overflows to +inf, which a mean refuses as well
        for text in ("L(G - A, A)", "L(A*1e308, G)"):
            with pytest.raises(EvalError):
                _ev(text)

    def test_error_carries_offending_pair(self):
        a = np.array([2.0, 4.0])
        with pytest.raises(EvalError) as err:
            evaluate(parse_expr("log(G - A)"), a, 1.0)
        assert err.value.pair is not None


class TestScalarMatchesGrid:
    # near the diagonal (series branches), mid-range and the registry's top
    # ratio, at three scales and with both orders of the pair
    RATIOS = (1.0 + 1e-6, 1.00005, 1.0001, 1.3, 3.0, 19.0, 1e4, 1e8)

    def test_registry_members_bitwise(self):
        from meanlab.chains import builtin_suite

        r = np.array(self.RATIOS * 3)
        b = np.repeat([1e-3, 1.0, 7.5], len(self.RATIOS))
        a = r * b
        a, b = np.concatenate([a, b]), np.concatenate([b, a])
        texts = sorted({t for chain in builtin_suite() for t in chain.member_texts})
        for text in texts:
            expr = parse_expr(text)
            grid = evaluate(expr, a, b)
            scalars = [evaluate(expr, float(x), float(y)) for x, y in zip(a, b)]
            assert all(isinstance(v, float) for v in scalars), text
            assert np.array_equal(np.array(scalars).view(np.int64), grid.view(np.int64)), text


class TestStablePatterns:
    def test_mean_difference_near_diagonal(self):
        # (G - Y)/(A - L) at t ~ 5e-9: naive subtraction retains ~7 digits,
        # the offset path keeps full precision
        a, b = 1.0 + 1e-8, 1.0
        got = float(_ev("(G - Y)/(A - L)", a, b))
        m = oracles.mp_means(a, b)
        ref = float((m["G"] - m["Y"]) / (m["A"] - m["L"]))
        assert got == pytest.approx(ref, rel=1e-10)

    def test_log_ratio_near_diagonal(self):
        a, b = 1.0 + 1e-8, 1.0
        got = float(_ev("log(X/A)", a, b))
        m = oracles.mp_means(a, b)
        ref = float(__import__("mpmath").log(m["X"] / m["A"]))
        assert got == pytest.approx(ref, rel=1e-10)

    def test_one_minus_ratio_near_diagonal(self):
        a, b = 1.0 + 1e-8, 1.0
        got = float(_ev("2*(1 - A/P)", a, b))
        m = oracles.mp_means(a, b)
        ref = float(2 * (1 - m["A"] / m["P"]))
        assert got == pytest.approx(ref, rel=1e-10)

    @staticmethod
    def _offset_members():
        """Every subtree of a registry member that takes an offset form,
        plus forms whose means fall far below A."""
        from meanlab.chains import builtin_suite
        from meanlab.expressions import _offset_form

        def subtrees(node):
            yield node
            for name in ("lhs", "rhs", "arg"):
                if hasattr(node, name):
                    yield from subtrees(getattr(node, name))

        texts = {t for chain in builtin_suite() for t in chain.member_texts}
        texts |= {"log(Y/G)", "1 - G/A", "H - G", "I - L"}
        found = {to_text(n): n for t in texts for n in subtrees(parse_expr(t))}
        return sorted((text, n) for text, n in found.items() if _offset_form(n) is not None)

    @pytest.mark.filterwarnings("error")
    def test_offset_members_over_the_full_range(self):
        # both means' offsets tend to -inf together as a/b grows; their
        # difference must not cancel
        members = self._offset_members()
        assert {"(G - Y)", "(A - L)", "log((X / A))", "(1.0 - (A / P))"} <= {t for t, _ in members}
        for r in oracles.FULL_RANGE:
            for text, node in members:
                got = evaluate(node, r, 1.0)
                ref = oracles.mp_eval(node, r, 1.0)
                assert math.isfinite(got), (text, r)
                assert float(abs((got - ref) / ref)) < 1e-13, (text, r, got, float(ref))

    @pytest.mark.filterwarnings("error")
    def test_offset_forms_within_32_ulp(self):
        # the ratios include a/b ~ 1.32, y ~ 0.14, where y/tanh(y) - 1
        # cancels and I - L once read 609 ulp off
        ratios = (*np.geomspace(1.05, 40.0, 80), *oracles.FULL_RANGE)
        for text in ("I - L", "log(I/L)", "L - G", "Y - H", "A - L", "log(I/G)", "log(X/A)",
                     "A - X"):
            node = parse_expr(text)
            for r in ratios:
                ref = float(oracles.mp_eval(node, float(r), 1.0))
                got = evaluate(node, float(r), 1.0)
                assert abs(got - ref) <= 32 * math.ulp(ref), (text, r, got, ref)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a,b", [(1.7e308, 1.6e308), (1e300, 1e-300), (1.7e308, 5e-324)])
    def test_offset_forms_at_the_ends_of_the_range(self, a, b):
        # finite, or an EvalError where the plain quotient overflows too
        for m1 in "AGHLIPXY":
            for m2 in "AGHLIPXY":
                for form in ("{} - {}", "log({}/{})", "1 - {}/{}", "{}/{} - 1"):
                    text = form.format(m1, m2)
                    try:
                        got = _ev(text, a, b)
                    except EvalError:
                        continue
                    assert math.isfinite(got), (text, got)

    def test_patterns_consistent_with_generic_path(self):
        # where both are accurate the pattern kernels and the naive route
        # must agree
        for a in (1.5, 4.0, 100.0):
            got = float(_ev("(G - Y)/(A - L)", a, 1.0))
            g, y = means.geometric(a, 1), means.y_mean(a, 1)
            am, l = means.arithmetic(a, 1), means.logarithmic(a, 1)
            assert got == pytest.approx((g - y) / (am - l), rel=1e-10)
            got = float(_ev("G/L - 1", a, 1.0))
            assert got == pytest.approx(g / l - 1.0, rel=1e-10)


class TestFold:
    @staticmethod
    def _members():
        """The distinct chain members, the tightened probe members, and
        offset forms and a nested mean beyond them."""
        from meanlab import chains

        members = {m for chain in chains.builtin_suite() for m in chain.members}
        for tpl in chains._TEMPLATES.values():
            members |= set(tpl.build(tpl.nominal + tpl.tighten_sign * chains.PROBE_EPSILON).members)
        texts = ("log(Y/G)", "1 - G/A", "I - L", "G/L - 1", "L(X, A)")
        return members | {parse_expr(t) for t in texts}

    def test_cached_reads_are_the_means_evaluation_caches(self):
        # _LinkPlan frees the cached means that cached_reads names once their
        # last reader is in; the two must agree on every member
        a = np.array([1.5, 4.0, 100.0])
        for member in self._members():
            ctx = GridContext(a, 1.0)
            ctx.evaluate(member)
            assert set(ctx._cache) == cached_reads(member), to_text(member)

    @pytest.mark.parametrize("bad", ["G", 2.0, None, BinOp("+", Num(1.0), "G")])
    def test_a_non_node_raises_type_error(self, bad):
        with pytest.raises(TypeError, match="not an expression node"):
            fold(bad, GridContext(4.0, 1.0))
        with pytest.raises(TypeError, match="not an expression node"):
            to_text(bad)
        with pytest.raises(TypeError, match="not an expression node"):
            evaluate(bad, 4.0, 1.0)


class TestToText:
    def test_round_trip_examples(self):
        for text in (
            "(2*G + A)/3",
            "L(X, A)",
            "A*(X/A)^log(pi/2)",
            "Mp[0.5]",
            "Hp[0.6488]",
            "1 + G/H - I/G",
            "2*(1 - A/P)",
        ):
            expr = parse_expr(text)
            again = parse_expr(to_text(expr))
            assert float(evaluate(again, 4.0, 1.0)) == pytest.approx(
                float(evaluate(expr, 4.0, 1.0)), rel=1e-15
            )


_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=9.0).map(lambda v: Num(round(v, 3))),
    st.sampled_from(["e", "pi"]).map(Const),
    st.sampled_from(list("AGHLIPXY")).map(lambda t: MeanSymbol(MeanKind(t))),
)


def _build_expr(children):
    op, lhs, rhs = children
    if op == "mean":
        return MeanCall(MeanKind("L"), lhs, rhs)
    if op in "+-*/":
        return BinOp(op, lhs, rhs)
    return Call(op, BinOp("+", lhs, rhs))


_expr = st.recursive(
    _leaf,
    lambda inner: st.tuples(
        st.sampled_from(["+", "-", "*", "/", "mean", "exp"]), inner, inner
    ).map(_build_expr),
    max_leaves=12,
)


class TestRoundTripProperty:
    @given(_expr)
    @settings(max_examples=150, deadline=None)
    def test_to_text_parse_round_trip(self, expr):
        text = to_text(expr)
        reparsed = parse_expr(text)
        try:
            ref = float(evaluate(expr, 3.0, 1.0))
        except (EvalError, OverflowError):
            return  # tree hits a domain edge; rendering fidelity untestable
        got = float(evaluate(reparsed, 3.0, 1.0))
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12) or (
            math.isnan(got) and math.isnan(ref)
        )
