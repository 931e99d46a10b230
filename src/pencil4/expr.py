"""A small arithmetic expression language with exact symbolic derivatives.

This is the input language for curve components and marching-scale
functions.  One free variable, real literals, ``+ - * / ^`` with the usual
precedence (``^`` binds tighter than unary minus, which binds tighter than
``* /``, which bind tighter than ``+ -``; ``^`` is right-associative, the
rest left), the functions ``sin cos tan sec exp ln sqrt`` and the named
constants ``pi`` and ``e``.

Derivatives are symbolic so that fourth-order curve derivatives stay exact;
the only rewriting performed is constant folding plus the obvious
0/1-identities, which keeps derivative trees small without pretending to be
a CAS.  Correctness is judged by evaluation, not by canonical form.

Expression values are immutable; evaluation is a pure function of the tree
and the binding, so concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from .errors import EvalDomainError, ParseError, UnknownIdentifierError

__all__ = [
    "Expr",
    "Literal",
    "Variable",
    "BinOp",
    "Neg",
    "Call",
    "parse",
    "differentiate",
    "evaluate",
    "to_string",
    "constant",
    "variable",
    "call",
]

FUNCTIONS = ("sin", "cos", "tan", "sec", "exp", "ln", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}

# Trig poles: |cos| below this means sec/tan/1:cos are evaluated essentially
# at the pole and the result would be garbage, so it is a domain error.
_POLE_TOL = 1e-14

# Deepest nesting the parser accepts, counted both as parser recursion
# (parentheses, calls, signs, exponents) and as depth of the parsed tree.
# Evaluation and differentiation recurse once per tree level.
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes.

    Supports arithmetic operators (with float coercion) so higher modules
    can assemble expressions programmatically; the results go through the
    same constant-folding constructors the differentiator uses.
    """

    __slots__ = ()

    # Overloads -------------------------------------------------------

    def __add__(self, other):
        return _add(self, _coerce(other))

    def __radd__(self, other):
        return _add(_coerce(other), self)

    def __sub__(self, other):
        return _sub(self, _coerce(other))

    def __rsub__(self, other):
        return _sub(_coerce(other), self)

    def __mul__(self, other):
        return _mul(self, _coerce(other))

    def __rmul__(self, other):
        return _mul(_coerce(other), self)

    def __truediv__(self, other):
        return _div(self, _coerce(other))

    def __rtruediv__(self, other):
        return _div(_coerce(other), self)

    def __pow__(self, other):
        return _pow(self, _coerce(other))

    def __neg__(self):
        return _neg(self)

    # Convenience -----------------------------------------------------

    def __call__(self, x: float) -> float:
        return evaluate(self, x)

    def derivative(self) -> "Expr":
        return differentiate(self)

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_string(self)!r})"


@dataclass(frozen=True, repr=False, slots=True)
class Literal(Expr):
    value: float
    pos: int | None = None


@dataclass(frozen=True, repr=False, slots=True)
class Variable(Expr):
    name: str
    pos: int | None = None


@dataclass(frozen=True, repr=False, slots=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr
    pos: int | None = None


@dataclass(frozen=True, repr=False, slots=True)
class Neg(Expr):
    operand: Expr
    pos: int | None = None


@dataclass(frozen=True, repr=False, slots=True)
class Call(Expr):
    fn: str
    arg: Expr
    pos: int | None = None


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Literal(float(value))
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Literal) and (v is None or e.value == v)


# ---------------------------------------------------------------------------
# Folding constructors
# ---------------------------------------------------------------------------


def _fold2(op: str, l: Expr, r: Expr, value: float) -> Expr:
    # Fold only finite results so trees stay printable.
    if math.isfinite(value):
        return Literal(value)
    return BinOp(op, l, r)


def _add(l: Expr, r: Expr) -> Expr:
    if _is_const(l) and _is_const(r):
        return _fold2("+", l, r, l.value + r.value)
    if _is_const(l, 0.0):
        return r
    if _is_const(r, 0.0):
        return l
    return BinOp("+", l, r)


def _sub(l: Expr, r: Expr) -> Expr:
    if _is_const(l) and _is_const(r):
        return _fold2("-", l, r, l.value - r.value)
    if _is_const(r, 0.0):
        return l
    if _is_const(l, 0.0):
        return _neg(r)
    return BinOp("-", l, r)


def _mul(l: Expr, r: Expr) -> Expr:
    if _is_const(l) and _is_const(r):
        return _fold2("*", l, r, l.value * r.value)
    if _is_const(l, 0.0) or _is_const(r, 0.0):
        return Literal(0.0)
    if _is_const(l, 1.0):
        return r
    if _is_const(r, 1.0):
        return l
    if _is_const(l, -1.0):
        return _neg(r)
    if _is_const(r, -1.0):
        return _neg(l)
    return BinOp("*", l, r)


def _div(l: Expr, r: Expr) -> Expr:
    if _is_const(r) and r.value != 0.0 and _is_const(l):
        return _fold2("/", l, r, l.value / r.value)
    if _is_const(l, 0.0) and not _is_const(r, 0.0):
        return Literal(0.0)
    if _is_const(r, 1.0):
        return l
    return BinOp("/", l, r)


def _pow(l: Expr, r: Expr) -> Expr:
    if _is_const(r, 1.0):
        return l
    if _is_const(r, 0.0):
        return Literal(1.0)
    if _is_const(l) and _is_const(r):
        try:
            v = _pow_value(l.value, r.value, None)
            if math.isfinite(v):
                return Literal(v)
        except EvalDomainError:
            pass  # keep symbolic; error surfaces at evaluation
    return BinOp("^", l, r)


def _neg(e: Expr) -> Expr:
    if _is_const(e):
        return Literal(-e.value)
    if isinstance(e, Neg):
        return e.operand
    return Neg(e)


def constant(value: float) -> Expr:
    """A literal node."""
    return Literal(float(value))


def variable(name: str) -> Expr:
    """The free variable node."""
    return Variable(name)


def call(fn: str, arg: Expr) -> Expr:
    """Apply one of the built-in functions to a subexpression."""
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    return Call(fn, _coerce(arg))


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP LPAREN RPAREN EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ParseError("digits expected after decimal point", j)
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], var_name: str):
        self.tokens = tokens
        self.k = 0
        self.var_name = var_name
        self.nesting = 0  # active unary() calls: every recursion passes one

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos)
        return self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance()
            rhs = self.term()
            node = BinOp(op.text, node, rhs, op.pos)
        return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance()
            rhs = self.unary()
            node = BinOp(op.text, node, rhs, op.pos)
        return node

    # unary := '-' unary | power
    def unary(self) -> Expr:
        tok = self.peek()
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", tok.pos)
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            node = self.unary()
            node = Neg(node, tok.pos) if tok.text == "-" else node
        else:
            node = self.power()
        self.nesting -= 1
        return node

    # power := atom ('^' unary)?   -- right-associative, exponent may be signed
    def power(self) -> Expr:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            exponent = self.unary()
            node = BinOp("^", node, exponent, tok.pos)
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Literal(float(tok.text), tok.pos)
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "LPAREN":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifierError(tok.text, tok.pos)
                self.advance()
                arg = self.expr()
                self.expect("RPAREN", "')'")
                return Call(tok.text, arg, tok.pos)
            if tok.text == self.var_name:
                return Variable(tok.text, tok.pos)
            if tok.text in CONSTANTS:
                return Literal(CONSTANTS[tok.text], tok.pos)
            raise UnknownIdentifierError(tok.text, tok.pos)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        raise ParseError("expected a number, identifier or '('", tok.pos)


def parse(text: str, var_name: str) -> Expr:
    """Parse ``text`` into an expression tree over the free variable
    ``var_name``.

    Raises ParseError (with byte offset) on malformed input or nesting
    deeper than MAX_DEPTH, and UnknownIdentifierError for any symbol other
    than the variable, ``pi``, ``e`` and the built-in functions.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    if not var_name.isidentifier():
        raise ValueError(f"invalid variable name {var_name!r}")
    if var_name in CONSTANTS or var_name in FUNCTIONS:
        raise ValueError(f"variable name {var_name!r} shadows a builtin symbol")
    parser = _Parser(_tokenize(text), var_name)
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise ParseError("unexpected trailing input", tail.pos)
    _check_depth(node)
    return node


def _check_depth(root: Expr) -> None:
    """Bound the tree depth, level by level: operator chains such as
    t+t+...+t nest the tree without nesting the parser."""
    level, depth = [root], 1
    while level:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", level[0].pos)
        level = [child for node in level for child in _children(node)]
        depth += 1


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, Neg):
        return (e.operand,)
    if isinstance(e, Call):
        return (e.arg,)
    return ()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _pow_value(base: float, exponent: float, pos: int | None) -> float:
    if base == 0.0 and exponent < 0.0:
        raise EvalDomainError("zero raised to a negative power", pos)
    if base < 0.0:
        if float(exponent).is_integer():
            return math.pow(base, exponent)
        raise EvalDomainError("negative base with non-integer exponent", pos)
    try:
        return math.pow(base, exponent)
    except OverflowError:
        raise EvalDomainError("overflow in power", pos) from None


def evaluate(e: Expr, x: float) -> float:
    """Evaluate ``e`` with the free variable bound to ``x`` in IEEE double
    precision.  Domain faults raise EvalDomainError carrying the source
    offset of the offending subtree."""
    if isinstance(e, Literal):
        return e.value
    if isinstance(e, Variable):
        return x
    if isinstance(e, Neg):
        return -evaluate(e.operand, x)
    if isinstance(e, BinOp):
        l = evaluate(e.left, x)
        r = evaluate(e.right, x)
        op = e.op
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "/":
            if r == 0.0:
                raise EvalDomainError("division by zero", e.pos)
            return l / r
        if op == "^":
            return _pow_value(l, r, e.pos)
        raise AssertionError(f"bad operator {op!r}")
    if isinstance(e, Call):
        v = evaluate(e.arg, x)
        fn = e.fn
        if fn == "sin":
            return math.sin(v)
        if fn == "cos":
            return math.cos(v)
        if fn == "tan":
            c = math.cos(v)
            if abs(c) < _POLE_TOL:
                raise EvalDomainError("tan evaluated at a pole", e.pos)
            return math.sin(v) / c
        if fn == "sec":
            c = math.cos(v)
            if abs(c) < _POLE_TOL:
                raise EvalDomainError("sec evaluated at a pole", e.pos)
            return 1.0 / c
        if fn == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                raise EvalDomainError("overflow in exp", e.pos) from None
        if fn == "ln":
            if v <= 0.0:
                raise EvalDomainError("ln of a non-positive value", e.pos)
            return math.log(v)
        if fn == "sqrt":
            if v < 0.0:
                raise EvalDomainError("sqrt of a negative value", e.pos)
            return math.sqrt(v)
        raise AssertionError(f"bad function {fn!r}")
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative with respect to the free variable.

    The output stays inside the same grammar, so repeated application
    yields higher-order derivatives.
    """
    if isinstance(e, Literal):
        return Literal(0.0)
    if isinstance(e, Variable):
        return Literal(1.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.operand))
    if isinstance(e, BinOp):
        u, v = e.left, e.right
        du, dv = differentiate(u), differentiate(v)
        op = e.op
        if op == "+":
            return _add(du, dv)
        if op == "-":
            return _sub(du, dv)
        if op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, Literal(2.0)))
        if op == "^":
            if _is_const(v):
                n = v.value
                return _mul(_mul(Literal(n), _pow(u, Literal(n - 1.0))), du)
            if _is_const(u) and u.value > 0.0:
                # c^v -> c^v * ln(c) * v'
                return _mul(_mul(e, Literal(math.log(u.value))), dv)
            # u^v -> u^v * (v' ln u + v u'/u)
            bracket = _add(_mul(dv, Call("ln", u)), _mul(v, _div(du, u)))
            return _mul(e, bracket)
        raise AssertionError(f"bad operator {op!r}")
    if isinstance(e, Call):
        u = e.arg
        du = differentiate(u)
        fn = e.fn
        if fn == "sin":
            return _mul(Call("cos", u), du)
        if fn == "cos":
            return _neg(_mul(Call("sin", u), du))
        if fn == "tan":
            return _mul(_pow(Call("sec", u), Literal(2.0)), du)
        if fn == "sec":
            return _mul(_mul(Call("sec", u), Call("tan", u)), du)
        if fn == "exp":
            return _mul(e, du)
        if fn == "ln":
            return _div(du, u)
        if fn == "sqrt":
            return _div(du, _mul(Literal(2.0), e))
        raise AssertionError(f"bad function {fn!r}")
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PRECEDENCE[e.op]
    if isinstance(e, Neg):
        return _PRECEDENCE["neg"]
    return 9


def to_string(e: Expr) -> str:
    """Render the tree back to source text.  ``parse(to_string(e))``
    evaluates identically to ``e`` (tree equality is not promised)."""
    if isinstance(e, Literal):
        if e.value < 0.0 or (e.value == 0.0 and math.copysign(1.0, e.value) < 0.0):
            return f"(-{_fmt(-e.value)})"
        return _fmt(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Neg):
        inner = to_string(e.operand)
        if _prec(e.operand) < _PRECEDENCE["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    if isinstance(e, BinOp):
        p = _PRECEDENCE[e.op]
        ls = to_string(e.left)
        rs = to_string(e.right)
        # left-assoc: parenthesize right child at equal precedence; ^ is the
        # mirror image (right-assoc), and its left child must also be
        # wrapped when it is unary minus (since ^ binds tighter).
        if e.op == "^":
            if _prec(e.left) <= p:
                ls = f"({ls})"
            if _prec(e.right) < p:
                rs = f"({rs})"
        else:
            if _prec(e.left) < p:
                ls = f"({ls})"
            if _prec(e.right) <= p:
                rs = f"({rs})"
        return f"{ls} {e.op} {rs}"
    raise TypeError(f"not an expression node: {e!r}")


def _fmt(v: float) -> str:
    # Plain decimal form (the grammar has no scientific notation).  The
    # Decimal expansion is the exact binary value, so reparsing rounds back
    # to the identical double.
    if v == math.floor(v) and abs(v) < 1e16:
        return f"{v:.1f}"
    return format(Decimal(v), "f")
