"""Tests for the expression language: parsing, evaluation, differentiation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil4 import expr
from pencil4.errors import EvalDomainError, ParseError, UnknownIdentifierError
from support import richardson_first_derivative


def ev(text, x, var="t"):
    return expr.evaluate(expr.parse(text, var), x)


class TestParseAndEvaluate:
    def test_identity_expression(self):
        assert ev("t", 3.0) == 3.0

    def test_reciprocal_sin(self):
        assert ev("1/(sin(t))", math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_damped_cosine_at_zero(self):
        # 2*exp(0)*cos(0) = 2, cross-checked by hand.
        assert ev("2*exp(0.5*t)*cos(t)", 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_cubic_root(self):
        assert ev("t^3 - t", 1.0) == 0.0

    def test_sec_pole_is_domain_error(self):
        with pytest.raises(EvalDomainError):
            ev("sec(t)", math.pi / 2)

    def test_inverse_pair(self):
        assert ev("exp(ln(t))", 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_constants(self):
        assert ev("pi", 0.0) == math.pi
        assert ev("e", 0.0) == math.e
        assert ev("2*pi + e", 0.0) == pytest.approx(2 * math.pi + math.e)

    def test_precedence(self):
        assert ev("2+3*4", 0.0) == 14.0
        assert ev("2*3^2", 0.0) == 18.0
        assert ev("-t^2", 3.0) == -9.0  # unary minus binds looser than ^
        assert ev("(-t)^2", 3.0) == 9.0
        assert ev("2^-2", 0.0) == 0.25
        assert ev("2^3^2", 0.0) == 512.0  # right-associative
        assert ev("8/4/2", 0.0) == 1.0  # left-associative
        assert ev("8-4-2", 0.0) == 2.0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            ev("1/(t-1)", 1.0)

    def test_ln_sqrt_domains(self):
        with pytest.raises(EvalDomainError):
            ev("ln(t)", -2.0)
        with pytest.raises(EvalDomainError):
            ev("ln(t)", 0.0)
        with pytest.raises(EvalDomainError):
            ev("sqrt(t)", -1.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalDomainError):
            ev("t^0.5", -2.0)
        assert ev("t^3", -2.0) == -8.0

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as ei:
            expr.parse("t + q", "t")
        assert ei.value.position == 4
        with pytest.raises(UnknownIdentifierError):
            expr.parse("foo(t)", "t")

    def test_other_variable_name(self):
        assert ev("s^2", 4.0, var="s") == 16.0
        with pytest.raises(UnknownIdentifierError):
            expr.parse("t", "s")

    def test_eval_domain_error_carries_position(self):
        e = expr.parse("1 + ln(t - 5)", "t")
        with pytest.raises(EvalDomainError) as ei:
            expr.evaluate(e, 1.0)
        assert ei.value.position == 4  # offset of 'ln'

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "1 +",
            "* t",
            "(t",
            "t)",
            "sin t",
            "sin(t",
            "1..2",
            "1.",
            "t t",
            "2 3",
            "t ^",
            "()",
            "t @ 2",
            "sin()",
            "cos(t))",
            "1 / ",
            "^2",
            "t + (pi * ",
        ],
    )
    def test_malformed_inputs_rejected_with_position(self, bad):
        with pytest.raises(ParseError) as ei:
            expr.parse(bad, "t")
        assert isinstance(ei.value.position, int)
        assert ei.value.position >= 0


class TestDepthBound:
    @pytest.mark.parametrize(
        "deep",
        [
            "(" * 600 + "t" + ")" * 600,
            "t" + "+t" * 2000,
            "-" * 600 + "t",
            "t^" * 600 + "t",
            "sin(" * 600 + "t" + ")" * 600,
        ],
        ids=["parentheses", "sum-chain", "signs", "power-tower", "calls"],
    )
    def test_too_deep_is_parse_error_with_offset(self, deep):
        with pytest.raises(ParseError) as ei:
            expr.parse(deep, "t")
        assert "deeper than" in str(ei.value)
        assert 0 < ei.value.position < len(deep)

    def test_depth_at_the_bound_evaluates(self):
        n = expr.MAX_DEPTH - 1
        assert ev("(" * n + "t" + ")" * n, 0.5) == 0.5
        assert ev("t" + "+t" * n, 0.5) == 0.5 * (n + 1)


class TestDifferentiate:
    def test_power_rule(self):
        d = expr.differentiate(expr.parse("t^2", "t"))
        assert expr.evaluate(d, 3.0) == pytest.approx(6.0, abs=1e-15)

    def test_sin_rule(self):
        d = expr.differentiate(expr.parse("sin(t)", "t"))
        assert expr.evaluate(d, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_second_derivative_matches_finite_difference(self):
        e = expr.parse("1/(sin(t)-0.5*cos(t))", "t")
        d1 = expr.differentiate(e)
        d2 = expr.differentiate(d1)
        got = expr.evaluate(d2, 1.0)
        want = richardson_first_derivative(
            lambda x: richardson_first_derivative(lambda y: expr.evaluate(e, y), x, h=1e-4),
            1.0,
            h=1e-4,
        )
        assert got == pytest.approx(want, rel=1e-6)

    def test_constant_derivative_is_zero_expression(self):
        for text in ["3.5", "pi", "2*e + 1", "sin(1)"]:
            d = expr.differentiate(expr.parse(text, "t"))
            for x in [-2.0, 0.0, 1.7, 42.0]:
                assert expr.evaluate(d, x) == 0.0

    def test_quotient_rule(self):
        e = expr.parse("(t^2+1)/(t-2)", "t")
        d = expr.differentiate(e)
        # hand: ((2t)(t-2) - (t^2+1))/(t-2)^2 at t=3 -> (6 - 10)/1 = -4
        assert expr.evaluate(d, 3.0) == pytest.approx(-4.0, abs=1e-12)

    def test_general_power(self):
        e = expr.parse("t^t", "t")
        d = expr.differentiate(e)
        # d/dt t^t = t^t (ln t + 1); at t=2: 4 (ln 2 + 1)
        assert expr.evaluate(d, 2.0) == pytest.approx(4 * (math.log(2) + 1), rel=1e-12)

    def test_constant_base_power(self):
        e = expr.parse("2^t", "t")
        d = expr.differentiate(e)
        assert expr.evaluate(d, 3.0) == pytest.approx(8 * math.log(2), rel=1e-12)

    def test_sec_tan_sqrt_ln_rules(self):
        cases = {
            "sec(t)": lambda x: math.tan(x) / math.cos(x),
            "tan(t)": lambda x: 1 / math.cos(x) ** 2,
            "sqrt(t)": lambda x: 0.5 / math.sqrt(x),
            "ln(t)": lambda x: 1 / x,
            "exp(3*t)": lambda x: 3 * math.exp(3 * x),
        }
        for text, want in cases.items():
            d = expr.differentiate(expr.parse(text, "t"))
            assert expr.evaluate(d, 0.7) == pytest.approx(want(0.7), rel=1e-12)

    def test_fourth_derivative_stays_exact(self):
        # Chained application stays in the grammar and keeps precision.
        e = expr.parse("sin(2*t)*exp(0.3*t)", "t")
        d = e
        for _ in range(4):
            d = expr.differentiate(d)

        def f4(x):
            # analytic 4th derivative of exp(at) sin(bt) via complex arithmetic
            z = complex(0.3, 2.0)
            return (z**4 * complex(math.cos(2 * x), math.sin(2 * x)) * math.exp(0.3 * x)).imag

        for x in [0.0, 0.5, 1.3]:
            assert expr.evaluate(d, x) == pytest.approx(f4(x), rel=1e-10)


# --- random expression generator (shared with the acceptance suite) --------

_UNARY = ["sin", "cos", "exp", "sqrt", "ln", "tan"]


def random_expression(rng: random.Random, depth: int) -> expr.Expr:
    """A random well-formed expression of bounded depth.

    ln/sqrt arguments are wrapped to stay positive so that most evaluation
    points are usable; remaining domain faults are filtered by the caller.
    """
    if depth == 0 or rng.random() < 0.25:
        kind = rng.random()
        if kind < 0.45:
            return expr.constant(round(rng.uniform(-3.0, 3.0), 3))
        return expr.variable("t")
    choice = rng.random()
    if choice < 0.55:
        op = rng.choice(["+", "-", "*", "/"])
        left = random_expression(rng, depth - 1)
        right = random_expression(rng, depth - 1)
        if op == "/":
            # keep denominators away from the origin-crossing case
            right = right * right + expr.constant(rng.uniform(0.5, 1.5))
        return expr.BinOp(op, left, right)
    if choice < 0.7:
        n = rng.choice([2.0, 3.0, 4.0, 0.5, -1.0, -2.0])
        base = random_expression(rng, depth - 1)
        if n in (0.5,):
            base = base * base + expr.constant(1.0)
        if n in (-1.0, -2.0):
            base = base * base + expr.constant(rng.uniform(0.5, 1.5))
        return expr.BinOp("^", base, expr.constant(n))
    fn = rng.choice(_UNARY)
    arg = random_expression(rng, depth - 1)
    if fn in ("ln", "sqrt"):
        arg = arg * arg + expr.constant(rng.uniform(0.5, 1.5))
    if fn == "exp":
        arg = arg / (expr.constant(1.0) + arg * arg)  # bounded exponent
    return expr.Call(fn, arg)


def check_derivative_against_fd(e: expr.Expr, x: float) -> bool:
    """True when the symbolic derivative matches the Richardson central
    difference at ``x`` within 1e-5 * max(1, |f(x)|); None-like skips
    (domain faults, wild magnitudes) return True as 'not applicable'."""
    try:
        value = expr.evaluate(e, x)
        d = expr.evaluate(expr.differentiate(e), x)
        fd = richardson_first_derivative(lambda y: expr.evaluate(e, y), x, h=1e-5)
    except (EvalDomainError, OverflowError):
        return True
    if not (math.isfinite(value) and math.isfinite(d) and math.isfinite(fd)):
        return True
    if max(abs(value), abs(d)) > 1e6:
        return True  # ill-conditioned sample, oracle step unreliable
    return abs(d - fd) <= 1e-5 * max(1.0, abs(value))


def test_random_derivatives_match_finite_differences():
    rng = random.Random(20240817)
    checked = 0
    failures = []
    while checked < 300:
        e = random_expression(rng, rng.randint(1, 5))
        x = rng.uniform(-2.0, 2.0)
        try:
            expr.evaluate(e, x)
        except (EvalDomainError, OverflowError):
            continue
        if not check_derivative_against_fd(e, x):
            failures.append((expr.to_string(e), x))
        checked += 1
    assert not failures, failures[:5]


class TestPrintRoundTrip:
    def test_examples(self):
        rng = random.Random(7)
        for _ in range(200):
            e = random_expression(rng, rng.randint(1, 5))
            text = expr.to_string(e)
            back = expr.parse(text, "t")
            for _ in range(5):
                x = rng.uniform(-2.0, 2.0)
                try:
                    want = expr.evaluate(e, x)
                except (EvalDomainError, OverflowError):
                    continue
                got = expr.evaluate(back, x)
                assert got == pytest.approx(want, rel=1e-15, abs=1e-15)

    def test_precedence_sensitive_printing(self):
        for text in ["-(t^2)", "(t+1)*(t-1)", "t-(t-1)", "2/(3*t)", "(2^t)^3", "-(t+1)"]:
            e = expr.parse(text, "t")
            back = expr.parse(expr.to_string(e), "t")
            for x in [0.3, 1.7, -0.9]:
                assert expr.evaluate(back, x) == pytest.approx(expr.evaluate(e, x), rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_polynomial_evaluation_and_derivative(c, x, y):
    # (c + t*x)^2 has derivative 2x(c + tx); exact identity up to roundoff.
    e = (expr.constant(c) + expr.variable("t") * expr.constant(x)) ** 2.0
    d = expr.differentiate(e)
    lhs = expr.evaluate(d, y)
    rhs = 2 * x * (c + y * x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_operator_overloads_match_evaluation(x):
    t = expr.variable("t")
    e = (t * t + 1.0) / (2.0 - t / 4.0) - t**3.0 + (-t)
    want = (x * x + 1.0) / (2.0 - x / 4.0) - x**3 + (-x)
    assert expr.evaluate(e, x) == pytest.approx(want, rel=1e-14)
