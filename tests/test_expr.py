"""Tests for the expression language: parsing, evaluation, derivatives by jets."""

import gc
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import exact
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

    @pytest.mark.parametrize("text, offset", [("t + ²", 4), ("١.٥*t", 0)])
    def test_non_ascii_digits_rejected(self, text, offset):
        # numbers are ASCII 0-9: str.isdigit() would take a superscript two
        # (and fail on it later) or read Arabic-Indic 1.5 as 1.5
        with pytest.raises(ParseError) as ei:
            expr.parse(text, "t")
        assert str(ei.value) == f"unexpected character {text[offset]!r} (at offset {offset})"
        assert ei.value.position == offset


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
    """Derivatives as rows of ``evaluate(e, x, order=k)``, the Taylor jets."""

    def test_power_rule(self):
        d = expr.evaluate(expr.parse("t^2", "t"), 3.0, order=1)[1]
        assert d == pytest.approx(6.0, abs=1e-15)

    def test_sin_rule(self):
        d = expr.evaluate(expr.parse("sin(t)", "t"), 0.0, order=1)[1]
        assert d == pytest.approx(1.0, abs=1e-15)

    def test_second_derivative_matches_finite_difference(self):
        e = expr.parse("1/(sin(t)-0.5*cos(t))", "t")
        got = expr.evaluate(e, 1.0, order=2)[2]
        want = richardson_first_derivative(
            lambda x: richardson_first_derivative(lambda y: expr.evaluate(e, y), x, h=1e-4),
            1.0,
            h=1e-4,
        )
        assert got == pytest.approx(want, rel=1e-6)

    def test_constant_derivative_is_zero_expression(self):
        for text in ["3.5", "pi", "2*e + 1", "sin(1)"]:
            e = expr.parse(text, "t")
            for x in [-2.0, 0.0, 1.7, 42.0]:
                assert expr.evaluate(e, x, order=1)[1] == 0.0

    def test_quotient_rule(self):
        e = expr.parse("(t^2+1)/(t-2)", "t")
        # hand: ((2t)(t-2) - (t^2+1))/(t-2)^2 at t=3 -> (6 - 10)/1 = -4
        assert expr.evaluate(e, 3.0, order=1)[1] == pytest.approx(-4.0, abs=1e-12)

    def test_general_power(self):
        e = expr.parse("t^t", "t")
        # d/dt t^t = t^t (ln t + 1); at t=2: 4 (ln 2 + 1)
        assert expr.evaluate(e, 2.0, order=1)[1] == pytest.approx(4 * (math.log(2) + 1),
                                                                  rel=1e-12)

    def test_constant_base_power(self):
        e = expr.parse("2^t", "t")
        assert expr.evaluate(e, 3.0, order=1)[1] == pytest.approx(8 * math.log(2), rel=1e-12)

    def test_sec_tan_sqrt_ln_rules(self):
        cases = {
            "sec(t)": lambda x: math.tan(x) / math.cos(x),
            "tan(t)": lambda x: 1 / math.cos(x) ** 2,
            "sqrt(t)": lambda x: 0.5 / math.sqrt(x),
            "ln(t)": lambda x: 1 / x,
            "exp(3*t)": lambda x: 3 * math.exp(3 * x),
        }
        for text, want in cases.items():
            d = expr.evaluate(expr.parse(text, "t"), 0.7, order=1)[1]
            assert d == pytest.approx(want(0.7), rel=1e-12)

    def test_fourth_derivative_stays_exact(self):
        # the order-4 jet row keeps precision
        e = expr.parse("sin(2*t)*exp(0.3*t)", "t")

        def f4(x):
            # analytic 4th derivative of exp(at) sin(bt) via complex arithmetic
            z = complex(0.3, 2.0)
            return (z**4 * complex(math.cos(2 * x), math.sin(2 * x)) * math.exp(0.3 * x)).imag

        for x in [0.0, 0.5, 1.3]:
            assert expr.evaluate(e, x, order=4)[4] == pytest.approx(f4(x), rel=1e-10)


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
    """True when the jet's derivative row matches the Richardson central
    difference at ``x`` within 1e-5 * max(1, |f(x)|); None-like skips
    (domain faults, wild magnitudes) return True as 'not applicable'."""
    try:
        value, d = expr.evaluate(e, x, order=1)
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
    lhs = expr.evaluate(e, y, order=1)[1]
    rhs = 2 * x * (c + y * x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_operator_overloads_match_evaluation(x):
    t = expr.variable("t")
    e = (t * t + 1.0) / (2.0 - t / 4.0) - t**3.0 + (-t)
    want = (x * x + 1.0) / (2.0 - x / 4.0) - x**3 + (-x)
    assert expr.evaluate(e, x) == pytest.approx(want, rel=1e-14)


def arithmetic_expression(rng: random.Random, depth: int) -> expr.Expr:
    """A random expression over + - * /, sin and cos (denominators kept
    positive)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.45:
            return expr.constant(round(rng.uniform(-3.0, 3.0), 3))
        return expr.variable("t")
    if rng.random() < 0.7:
        op = rng.choice(["+", "-", "*", "/"])
        right = arithmetic_expression(rng, depth - 1)
        if op == "/":
            right = right * right + expr.constant(rng.uniform(0.5, 1.5))
        return expr.BinOp(op, arithmetic_expression(rng, depth - 1), right)
    return expr.Call(rng.choice(["sin", "cos"]), arithmetic_expression(rng, depth - 1))


_MATH = {"+": lambda l, r: l + r, "-": lambda l, r: l - r, "*": lambda l, r: l * r,
         "/": lambda l, r: l / r, "^": math.pow, "sin": math.sin, "cos": math.cos,
         "tan": lambda v: math.sin(v) / math.cos(v), "sec": lambda v: 1.0 / math.cos(v),
         "exp": math.exp, "ln": math.log, "sqrt": math.sqrt}


def math_value(e: expr.Expr, x: float) -> float:
    """``e`` at ``x`` by a walk over Python floats with ``math``: a reference
    that shares no code with the numpy evaluator."""
    if isinstance(e, expr.Literal):
        return e.value
    if isinstance(e, expr.Variable):
        return x
    if isinstance(e, expr.Neg):
        return -math_value(e.operand, x)
    if isinstance(e, expr.BinOp):
        return _MATH[e.op](math_value(e.left, x), math_value(e.right, x))
    return _MATH[e.fn](math_value(e.arg, x))


class TestArrayEvaluate:
    """evaluate against a ``math`` reference, element by element; a float is a
    batch of one."""

    def test_arithmetic_and_trig_bit_for_bit(self):
        rng = random.Random(4)
        xs = np.random.default_rng(4).uniform(-3.0, 3.0, (6, 7))
        for _ in range(200):
            e = arithmetic_expression(rng, rng.randint(1, 6))
            got = expr.evaluate(e, xs)
            assert got.shape == xs.shape
            want = np.array([math_value(e, x) for x in xs.ravel().tolist()]).reshape(xs.shape)
            assert np.array_equal(got, want), expr.to_string(e)
            one = [expr.evaluate(e, x) for x in xs.ravel().tolist()]
            assert all(isinstance(v, float) for v in one)
            assert np.array_equal(np.reshape(one, xs.shape), got)

    @pytest.mark.parametrize("text", ["exp(t)", "ln(t)", "sqrt(t)", "t^2", "t^2.5",
                                      "t^(-1.5)", "(t+1)^t", "2^t"])
    def test_transcendentals_within_one_ulp(self, text):
        e = expr.parse(text, "t")
        xs = np.random.default_rng(5).uniform(0.01, 8.0, 4000)
        got = expr.evaluate(e, xs)
        want = np.array([math_value(e, x) for x in xs.tolist()])
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    def test_constant_takes_the_shape_of_the_argument(self):
        assert expr.evaluate(expr.parse("2*pi", "t"), np.zeros((2, 3))).shape == (2, 3)

    @pytest.mark.parametrize("text, values, element", [
        ("1 + ln(t)", [[1.0, 2.0, 3.0], [-1.0, 0.5, -2.0]], [1, 0]),
        ("1/(t - 2)", [0.0, 1.0, 2.0, 2.0], [2]),
        ("sqrt(t) + t^0.5", [4.0, -1.0], [1]),
        ("t^(-1)", [1.0, 0.0], [1]),
        ("exp(t)", [1.0, 2.0, 800.0], [2]),
        ("sec(t)", [0.0, math.pi / 2], [1]),
        ("sin(10^308*10*t)", [0.0, 1.0, 2.0], [1]),
        ("(0 - 10)^t", [2.0, 401.0], [1]),
    ])
    def test_domain_error_names_first_faulting_element(self, text, values, element):
        e = expr.parse(text, "t")
        xs = np.array(values)
        with pytest.raises(EvalDomainError) as batch:
            expr.evaluate(e, xs)
        with pytest.raises(EvalDomainError) as one:
            expr.evaluate(e, float(xs[tuple(element)]))
        assert batch.value.position == one.value.position is not None
        assert f"at element {element} (variable = {float(xs[tuple(element)])!r})" \
            in str(batch.value)
        assert str(batch.value).startswith(str(one.value).split(" (source offset")[0])


class TestSharedMemo:
    """A sequence of trees evaluated with one memo, as curves and marching
    scales evaluate their components and derivatives."""

    TEXTS = ("2*sin(3*s) + s^2", "exp(cos(s))/(1 + s^2)", "sqrt(1 + s^2)*sin(s)")

    def trees(self):
        return [e for text in self.TEXTS for e in shared_trees(expr.parse(text, "s"), "s", 3)]

    def test_values_equal_per_tree_evaluation_bit_for_bit(self):
        trees = self.trees()
        xs = np.random.default_rng(7).uniform(-2.0, 2.0, (5, 3))
        shared = expr.evaluate(trees, xs)
        assert isinstance(shared, list) and len(shared) == len(trees)
        for tree, value in zip(trees, shared):
            assert value.shape == xs.shape
            assert np.array_equal(value, expr.evaluate(tree, xs)), expr.to_string(tree)
        floats = expr.evaluate(trees, 0.3)
        assert all(isinstance(v, float) for v in floats)
        assert floats == [expr.evaluate(tree, 0.3) for tree in trees]

    @pytest.mark.parametrize("text", ["t + sqrt(t)", "ln(t)*t^2", "1/(t - 2) + t"])
    @pytest.mark.parametrize("derivatives_first", [False, True])
    def test_domain_fault_keeps_message_and_offset(self, text, derivatives_first):
        # the first faulting tree may come after trees that share some of its
        # nodes; nodes made by the overloads carry no offset (None)
        e, *derivs = shared_trees(expr.parse(text, "t"), "t", 2)
        trees = [*derivs[::-1], e] if derivatives_first else [e, *derivs]
        xs = np.array([3.0, 2.5, -1.0, 2.0, 0.0])
        first = next(tree for tree in trees if _faults(tree, xs))
        with pytest.raises(EvalDomainError) as alone:
            expr.evaluate(first, xs)
        with pytest.raises(EvalDomainError) as shared:
            expr.evaluate(trees, xs)
        assert str(shared.value) == str(alone.value)
        assert shared.value.position == alone.value.position
        if not derivatives_first:
            assert shared.value.position is not None


def shared_trees(e: expr.BinOp, var: str, order: int) -> list[expr.Expr]:
    """``[e, e_1, ..., e_order]`` with e_k = (r / x) e_(k-1) + e_(k-1)^2, built
    by the overload API over e's parsed right operand r and the variable x:
    each tree refers to the one before it three times, and every new node
    carries no offset (None).  r / x is evaluated first, so a fault of r
    (with its offset) or of the division at x = 0 (None) comes before any
    fault of e_(k-1)."""
    ratio = e.right / expr.variable(var)
    out = [e]
    for _ in range(order):
        out.append(ratio * out[-1] + out[-1] * out[-1])
    return out


def _faults(tree, xs) -> bool:
    try:
        expr.evaluate(tree, xs)
    except EvalDomainError:
        return True
    return False


def nested_sin(depth: int) -> str:
    return "sin(" * depth + "s" + ")" * depth


class TestDerivativeBudget:
    """Derivatives cost time linear in the tree: jets visit each node once
    per evaluation."""

    def test_memos_leave_no_cycles_behind(self):
        # each call's memo is freed by reference counting, not by the cyclic
        # garbage collector
        e = expr.parse("s*sin(2*s) + exp(cos(s))/(1 + s^2)", "s")
        third = shared_trees(e, "s", 3)[-1]
        xs = np.linspace(0.1, 2.0, 7)
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                expr.evaluate([e, third], xs, order=5)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_nested_sines_are_linear_in_depth(self):
        # 40 nested sines: the fourth derivative tree would have ~3e7 nodes;
        # the jet is one pass over 41 nodes
        e = expr.parse(nested_sin(40), "s")
        with mp.workdps(30):
            f = exact.expression_function(e)
            for s in (0.3, 1.1, 2.5):
                jet = expr.evaluate(e, s, order=4)
                for k in range(5):
                    want = float(mp.diff(f, mp.mpf(s), k))
                    assert jet[k] == pytest.approx(want, rel=1e-12, abs=1e-14), (s, k)


def reference_raise_first(x, name, pos, out, *operands):
    """The fault check as it was before its finite-value shortcut: every
    fault mask computed at every node."""
    faults = [(holds(*operands), message) for holds, message in expr._FAULTS[name]]
    if name in expr._OVERFLOW:
        overflow = np.isinf(out)
        for operand in operands:
            overflow = overflow & np.isfinite(operand)
        faults.append((overflow, expr._OVERFLOW[name]))
    if not any(np.asarray(mask).any() for mask, _ in faults):
        return
    masks = [np.broadcast_to(mask, x.shape).ravel() for mask, _ in faults]
    first = int(np.argmax(np.logical_or.reduce(masks)))
    message = next(msg for mask, (_, msg) in zip(masks, faults) if mask[first])
    if np.ndim(x) == 0:
        raise EvalDomainError(message, pos)
    where = np.unravel_index(first, x.shape)
    raise EvalDomainError(f"{message} at element {list(map(int, where))} "
                          f"(variable = {float(x[where])!r})", pos)


# zeros, negatives, non-integers, poles of tan and sec, overflow and non-finite values
_FAULT_POOL = [0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 0.5, -2.5, 3.0, math.pi / 2, -math.pi / 2,
               3 * math.pi / 2, 710.0, 1e300, -1e300, 5e-324, math.inf, -math.inf, math.nan]


class TestFaultCheck:
    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from(sorted(expr._FAULTS)), n=st.integers(0, 6), data=st.data())
    def test_matches_every_mask_reference(self, name, n, data):
        """The shortcut for finite values raises the same error, message and
        offset as computing every fault mask, or neither raises."""
        def value(constant):  # a constant subtree, or an array of 0 dimensions, is a scalar
            pool = st.sampled_from(_FAULT_POOL) | st.floats()
            if not n or constant:
                return np.float64(data.draw(pool))
            return np.array(data.draw(st.lists(pool, min_size=n, max_size=n)))

        x = value(False)
        operands = [value(data.draw(st.booleans())) for _ in range(2 if name in "/^" else 1)]
        with np.errstate(all="ignore"):
            out = (operands[0] / operands[1] if name == "/" else
                   np.power(*operands) if name == "^" else expr._FUNCTIONS[name](operands[0]))

            def outcome(check):
                try:
                    check(x, name, 7, out, *operands)
                except EvalDomainError as err:
                    return str(err), err.position
                return None

            assert outcome(expr._raise_first) == outcome(reference_raise_first)

    @pytest.mark.parametrize("name, operands", [
        ("/", (1.0, 0.0)), ("/", (0.0, -0.0)), ("/", (math.inf, 0.0)),
        ("^", (0.0, -1.0)), ("^", (-0.0, -math.inf)), ("^", (-8.0, 1 / 3)), ("^", (10.0, 400.0)),
        ("^", (-0.5, math.inf)), ("^", (-1.0, -math.inf)), ("^", (-math.inf, -0.5)),
        ("sin", (math.inf,)), ("cos", (-math.inf,)), ("tan", (math.pi / 2,)),
        ("sec", (-math.pi / 2,)), ("exp", (710.0,)), ("ln", (0.0,)), ("ln", (-math.inf,)),
        ("sqrt", (-1e-300,)),
    ])
    def test_each_fault_at_its_element(self, name, operands):
        """Each fault, finite result or not, is named at its element: the
        second of [2, fault]."""
        x = np.array([2.0, 3.0])
        operands = [np.array([2.0, v]) for v in operands]
        with np.errstate(all="ignore"):
            out = (operands[0] / operands[1] if name == "/" else
                   np.power(*operands) if name == "^" else expr._FUNCTIONS[name](operands[0]))
            with pytest.raises(EvalDomainError) as ei:
                expr._raise_first(x, name, 7, out, *operands)
            with pytest.raises(EvalDomainError) as ref:
                reference_raise_first(x, name, 7, out, *operands)
        assert str(ei.value) == str(ref.value)
        assert "at element [1] (variable = 3.0)" in str(ei.value)


# ---------------------------------------------------------------------------
# Jets: evaluate(e, x, order=k)
# ---------------------------------------------------------------------------


_T = sympy.Symbol("t")
_SYMPY = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan, "sec": sympy.sec,
          "exp": sympy.exp, "ln": sympy.log, "sqrt": sympy.sqrt}
_REFERENCE = {"sin": np.sin, "cos": np.cos, "tan": lambda v: np.sin(v) / np.cos(v),
              "sec": lambda v: 1.0 / np.cos(v), "exp": np.exp, "ln": np.log, "sqrt": np.sqrt}


def to_sympy(e: expr.Expr):
    """The sympy expression of a tree over t; a literal is the exact value
    of its double."""
    if isinstance(e, expr.Literal):
        return sympy.Rational(e.value)
    if isinstance(e, expr.Variable):
        return _T
    if isinstance(e, expr.Neg):
        return -to_sympy(e.operand)
    if isinstance(e, expr.Call):
        return _SYMPY[e.fn](to_sympy(e.arg))
    l, r = to_sympy(e.left), to_sympy(e.right)
    return {"+": l + r, "-": l - r, "*": l * r, "/": l / r, "^": sympy.Pow(l, r)}[e.op]


def reference_evaluate(e: expr.Expr, x):
    """The value of ``e`` as the evaluator computed it before jets, without
    its fault checks: a numpy scalar for a subtree free of the variable."""
    if isinstance(e, expr.Literal):
        return np.float64(e.value)
    if isinstance(e, expr.Variable):
        return x
    if isinstance(e, expr.Neg):
        return -reference_evaluate(e.operand, x)
    if isinstance(e, expr.Call):
        return _REFERENCE[e.fn](reference_evaluate(e.arg, x))
    l, r = reference_evaluate(e.left, x), reference_evaluate(e.right, x)
    return {"+": lambda: l + r, "-": lambda: l - r, "*": lambda: l * r, "/": lambda: l / r,
            "^": lambda: np.power(l, r)}[e.op]()


# every operator and function, constant and variable exponents, kept where
# double precision is well conditioned: a variable exponent gets a base of at
# least 1, since u^v = exp(v ln u) loses the digits that ln u spends on a
# small base (ln(t)^(t/t) at t = 1.125 is off by 2e-12 in its fifth
# derivative), and exp and the trigonometric functions get an argument
# c/(1 + c^2) in [-1/2, 1/2], since the rounding of a large argument is
# amplified by its derivatives (sin((1 + 4t^2)^(t^3)) at t = 1.47, an argument
# near 1,300, is off by 2e-12 in its third)
_LEAVES = st.just(expr.variable("t")) | st.sampled_from(
    [0.5, 1.5, 2.0, 2.5, -0.75, -1.25]).map(expr.constant)
TREES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.builds(expr.BinOp, st.sampled_from("+-*/"), children, children),
    st.builds(expr.BinOp, st.just("^"), children,
              st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5]).map(expr.constant)),
    st.builds(expr.BinOp, st.just("^"), children.map(lambda c: 1.0 + c * c), children),
    st.builds(expr.Neg, children),
    st.builds(expr.Call, st.sampled_from(("ln", "sqrt")), children),
    st.builds(expr.Call, st.sampled_from(("sin", "cos", "tan", "sec", "exp")),
              children.map(lambda c: c / (1.0 + c * c))),
), max_leaves=5)


def subtrees(e: expr.Expr) -> list[expr.Expr]:
    """``e`` and every subtree of it."""
    return [e, *(s for c in expr._children(e) for s in subtrees(c))]


class TestJets:
    # a fixed draw: a tolerance on floating-point rounding is a model, and
    # a search across runs would find its edges at random
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(e=TREES, x=st.floats(0.5, 1.5), order=st.integers(0, 5))
    @example(e=expr.parse("sin(t/(1 + t*t)) - cos(t/(2 + t*t))", "t"), x=1.1, order=5)
    @example(e=expr.parse("tan(t/(1 + t*t)) * sec(t/(2 + t*t))", "t"), x=0.7, order=5)
    @example(e=expr.parse("exp(t/(1 + t*t)) - ln(1 + t) / sqrt(2 + t)", "t"), x=1.3, order=5)
    @example(e=expr.parse("(1 + t*t)^(t - 0.5) + (-t)^3 * t^-0.5", "t"), x=0.9, order=5)
    def test_derivatives_match_sympy(self, e, x, order):
        # 1e-12 relative to the largest derivative of that order among the
        # subtrees, the terms a row sums: ln((5^t)^3) at t = 1 has a fifth
        # derivative of 0 from terms near 3e5
        try:
            jet = np.atleast_1d(expr.evaluate(e, x, order=order))
            terms = np.abs([np.atleast_1d(expr.evaluate(sub, x, order=order))
                            for sub in subtrees(e)]).max(axis=0)
        except EvalDomainError:
            return
        f = to_sympy(e)
        for k, got in enumerate(jet.tolist()):
            want = complex(f.evalf(30, subs={_T: sympy.Rational(x)}))
            if not (math.isfinite(got) and math.isfinite(want.real)):
                return
            assert want.imag == 0.0, (expr.to_string(e), x, k)
            assert abs(got - want.real) <= 1e-12 * max(1.0, abs(want.real), terms[k]), (
                expr.to_string(e), x, k, got, want.real)
            f = f.diff(_T)

    @settings(max_examples=200, deadline=None)
    @given(e=TREES, xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
           order=st.integers(0, 5))
    def test_value_row_is_the_plain_evaluation_bit_for_bit(self, e, xs, order):
        x = np.array(xs)
        with np.errstate(all="ignore"):
            want = np.broadcast_to(reference_evaluate(e, x), x.shape)
            scalar = reference_evaluate(e, np.float64(xs[0]))
        try:
            got = expr.evaluate(e, x, order=order)
            one = expr.evaluate(e, xs[0], order=order)
        except EvalDomainError:
            return
        assert np.array_equal(got[0] if order else got, want, equal_nan=True)
        assert np.array_equal(one[0] if order else one, scalar, equal_nan=True)
        if not order:
            assert isinstance(one, float)

    def test_integer_powers_at_zero_are_exact(self):
        for text, want in (("t^2", [0.0, 0.0, 2.0, 0.0, 0.0, 0.0]),
                           ("t^3", [0.0, 0.0, 0.0, 6.0, 0.0, 0.0]),
                           ("(2*t)^2 + t^0", [1.0, 0.0, 8.0, 0.0, 0.0, 0.0])):
            got = expr.evaluate(expr.parse(text, "t"), np.array([0.0, 1.0]), order=5)
            assert got[:, 0].tolist() == want, text

    def test_shape_and_constants(self):
        e = expr.parse("2 + 0*t", "t")
        got = expr.evaluate([e, expr.parse("3", "t")], np.zeros((2, 3)), order=2)
        assert [g.shape for g in got] == [(3, 2, 3)] * 2
        assert got[1][0].tolist() == [[3.0] * 3] * 2 and not got[1][1:].any()
        assert expr.evaluate(e, 0.5, order=1).tolist() == [2.0, 0.0]
        with pytest.raises(ValueError):
            expr.evaluate(e, 0.5, order=expr.MAX_ORDER + 1)

    @pytest.mark.parametrize("text, name, offset", [
        ("t + sqrt(t)", "sqrt", 4), ("1 + t^0.5", "power", 5), ("ln(1 + t)*t^2.5", "power", 11),
        ("2^t + t^t", "power", 7)])
    def test_infinite_derivative_is_a_fault_at_its_node(self, text, name, offset):
        # finite values at t = 0, a non-finite derivative row: the node where
        # it first appears is named, with the element
        e = expr.parse(text, "t")
        xs = np.array([1.0, 0.0])
        assert np.all(np.isfinite(expr.evaluate(e, xs)))
        with pytest.raises(EvalDomainError) as ei:
            expr.evaluate(e, xs, order=3)
        assert str(ei.value) == (f"{name} has no finite derivative at element [1] "
                                 f"(variable = 0.0) (source offset {offset})")

    def test_value_faults_keep_their_messages(self):
        # the value row is checked before the derivative rows
        for text, message in (("1/(t - 1)", "division by zero"),
                              ("ln(t - 1)", "ln of a non-positive value"),
                              ("sqrt(t - 2)", "sqrt of a negative value")):
            e = expr.parse(text, "t")
            with pytest.raises(EvalDomainError) as plain:
                expr.evaluate(e, np.array([3.0, 1.0]))
            with pytest.raises(EvalDomainError) as jet:
                expr.evaluate(e, np.array([3.0, 1.0]), order=4)
            assert str(jet.value) == str(plain.value) and str(plain.value).startswith(message)
