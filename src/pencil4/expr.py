"""A small arithmetic expression language, evaluated with its derivatives.

This is the input language for curve components and marching-scale
functions.  One free variable, real literals, ``+ - * / ^`` with the usual
precedence (``^`` binds tighter than unary minus, which binds tighter than
``* /``, which bind tighter than ``+ -``; ``^`` is right-associative, the
rest left), the functions ``sin cos tan sec exp ln sqrt`` and the named
constants ``pi`` and ``e``.

Derivatives come from evaluating the tree on truncated Taylor series
("jets", Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13):
``evaluate(e, x, order=k)`` gives the value and the first k derivatives in
one pass, at a cost linear in the tree, and exact up to rounding.  They
are the only derivatives the language has: no derivative tree is built.

Expression values are immutable; evaluation is a pure function of the tree
and the binding, so concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Sequence

import numpy as np

from .errors import EvalDomainError, ParseError, UnknownIdentifierError

__all__ = [
    "Expr",
    "Literal",
    "Variable",
    "BinOp",
    "Neg",
    "Call",
    "parse",
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
# Evaluation recurses once per tree level.
MAX_DEPTH = 100

# Highest derivative ``evaluate`` gives, the fifth of a curve for its kappa
# rates: a jet's sums of at most 6 terms keep their order in every batch
# shape (see ``_conv``).
MAX_ORDER = 5


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes.

    Supports arithmetic operators (with float coercion) so higher modules
    can assemble expressions programmatically; the results go through
    constructors that fold literal arithmetic and the 0/1 identities, so
    printed trees stay short.
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
        # each fault of ^ gives a non-finite value: left for evaluation to report
        with np.errstate(all="ignore"):
            v = float(np.power(l.value, r.value))
        if math.isfinite(v):
            return Literal(v)
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
        if "0" <= ch <= "9":  # ASCII only: str.isdigit() accepts "²" and "١"
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not "0" <= text[j] <= "9":
                    raise ParseError("digits expected after decimal point", j)
                while j < n and "0" <= text[j] <= "9":
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


# Domain faults of each operator and function: (rule, message) pairs in the
# order they are reported.  A rule maps the operands (arrays or numpy
# scalars) to a mask.
_FAULTS = {
    "/": ((lambda l, r: r == 0.0, "division by zero"),),
    "^": ((lambda l, r: (l == 0.0) & (r < 0.0), "zero raised to a negative power"),
          (lambda l, r: (l < 0.0) & (r % 1.0 != 0.0),
           "negative base with non-integer exponent")),
    **{fn: ((lambda v: np.isinf(v), f"{fn} of an infinite value"),) for fn in ("sin", "cos")},
    **{fn: ((lambda v: np.isinf(v), f"{fn} of an infinite value"),
            (lambda v: abs(np.cos(v)) < _POLE_TOL, f"{fn} evaluated at a pole"))
       for fn in ("tan", "sec")},
    "exp": (),  # it only overflows
    "ln": ((lambda v: v <= 0.0, "ln of a non-positive value"),),
    "sqrt": ((lambda v: v < 0.0, "sqrt of a negative value"),),
}
# Operations whose finite operands can give an infinite value: a fault.
_OVERFLOW = {"^": "overflow in power", "exp": "overflow in exp"}

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": lambda v: np.sin(v) / np.cos(v),
    "sec": lambda v: 1.0 / np.cos(v),
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
}


def evaluate(e: Expr | Sequence[Expr], x, order: int = 0):
    """Evaluate ``e`` with the free variable bound to ``x`` in IEEE double
    precision, with numpy ufuncs.  ``x`` is a float (the result is a float:
    a batch of one) or an ndarray (the result has the shape of ``x``).
    ``e`` may also be a sequence of expressions, evaluated in order with one
    memo (a curve's components share subtrees): the result is then the list
    of their values.  A subtree shared within ``e`` is evaluated once.
    Domain faults raise EvalDomainError carrying the source offset of the
    offending subtree; for an array the message also names the first
    faulting element.

    With ``order`` k > 0 each result is instead an array ``(k + 1,
    *x.shape)`` of the value and its first k derivatives, from one pass
    over truncated Taylor series (``_jet``); row 0 is the order-0 result bit
    for bit.  A derivative that is not finite where its value is (``sqrt``
    at 0) is a domain fault too, of the node that first produces it."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 0 and {MAX_ORDER}, got {order!r}")
    arr = np.asarray(x, dtype=float)
    bound, memo = (arr if arr.ndim else arr[()]), {}
    if order:
        bound = np.zeros((order + 1, *arr.shape))
        bound[0], bound[1] = arr, 1.0
    with np.errstate(all="ignore"):
        out = [_evaluate(tree, bound, memo, _jet if order else _value)
               for tree in ((e,) if isinstance(e, Expr) else e)]
    if order:  # rows times k!; a constant's derivative rows vanish
        factorial = _ramp(bound, _FACTORIAL)
        out = [(v if isinstance(v, np.ndarray) else np.broadcast_to(
            np.where(_ramp(bound) == 0.0, v, 0.0), bound.shape)) * factorial for v in out]
    else:
        out = [np.array(np.broadcast_to(value, arr.shape)) for value in out]
        if not isinstance(x, np.ndarray):
            out = [float(value) for value in out]
    return out[0] if isinstance(e, Expr) else out


def _evaluate(e: Expr, x, memo: dict, node):
    """The value of ``e`` over ``x`` by ``node`` (``_value``, or ``_jet`` over
    the variable's jet); ``memo`` maps the id of each node evaluated so far
    (``e`` keeps its nodes, and so their ids, alive) to its value."""
    key = id(e)
    if key not in memo:
        memo[key] = node(e, x, *(_evaluate(c, x, memo, node) for c in _children(e)))
    return memo[key]


def _value(e: Expr, x, *v):
    """The value of node ``e`` over ``x`` given the values ``v`` of its
    children (a numpy scalar where a subtree does not depend on the
    variable, so no operation raises); faults are found by masks."""
    if isinstance(e, Literal):
        return np.float64(e.value)
    if isinstance(e, Variable):
        return x
    if isinstance(e, Neg):
        return -v[0]
    if isinstance(e, BinOp):
        l, r = v
        op = e.op
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "/":
            out = l / r
        elif op == "^":
            out = np.power(l, r)
        else:
            raise AssertionError(f"bad operator {op!r}")
        _raise_first(x, op, e.pos, out, l, r)
        return out
    if isinstance(e, Call):
        if e.fn not in _FUNCTIONS:
            raise AssertionError(f"bad function {e.fn!r}")
        out = _FUNCTIONS[e.fn](v[0])
        _raise_first(x, e.fn, e.pos, out, v[0])
        return out
    raise TypeError(f"not an expression node: {e!r}")


def _jet(e: Expr, x: np.ndarray, *v):
    """The jet of node ``e`` from its children's jets ``v``, where ``x`` is
    the variable's: an array ``(order + 1, *shape)`` of the Taylor
    coefficients f^(k)/k!, or a numpy scalar for a subtree free of the
    variable.  Row 0 is ``_value`` of the rows 0, faults included.  Where
    ``_FAULTS`` checks row 0, a derivative row that is not finite where row
    0 is raises too (elsewhere only unchecked overflow makes one so)."""
    if isinstance(e, Literal):
        return np.float64(e.value)
    if isinstance(e, Variable):
        return x
    if isinstance(e, Neg) or np.ndarray not in map(type, v):
        return _value(e, x[0], *v)
    name = e.op if isinstance(e, BinOp) else e.fn
    w = _linear(name, *v) if name in "+-*/" else None
    if w is None:
        w = np.empty(x.shape)
        w[0] = _value(e, x[0], *(c[0] if isinstance(c, np.ndarray) else c for c in v))
        _TAYLOR[name](w, *v)
    elif name == "/":
        _raise_first(x[0], name, e.pos, w[0], v[0][0], v[1])
    if name in _FAULTS and not math.isfinite(np.add.reduce(w[1:], axis=None)):
        bad = np.isfinite(w[0]) & ~np.isfinite(w[1:]).all(axis=0)
        if bad.any():
            what = {"/": "quotient", "^": "power"}.get(name, name)
            _raise(x[0], int(np.argmax(bad)), f"{what} has no finite derivative", e.pos)
    return w


def _linear(name: str, l, r) -> np.ndarray | None:
    """The jet of ``l name r`` by one operation on whole jets where it is
    linear in them, else None; row 0 is the same IEEE operation on rows 0
    (``l - r_0`` is ``(-r_0) + l``)."""
    lj, rj = isinstance(l, np.ndarray), isinstance(r, np.ndarray)
    if name == "*":
        return None if lj and rj else l * r
    if name == "/":
        return None if rj else l / r
    if lj and rj:
        return l + r if name == "+" else l - r
    w = l.copy() if lj else r.copy() if name == "+" else -r
    w[0] += l if rj else r if name == "+" else -r
    return w


def _raise_first(x, name: str, pos: int | None, out, *operands) -> None:
    """Raise EvalDomainError at the first element of ``x`` where one of
    ``name``'s domain faults holds; at that element the earliest listed
    fault is reported."""
    # Each fault but a pole gives a non-finite value, for ``^`` only from finite
    # operands ((-0.5)^inf is 0): none holds where these sums are all finite.
    checked = (out, *operands) if name == "^" else (out,)
    if name not in ("tan", "sec") and all(math.isfinite(v.sum()) for v in checked):
        return
    faults = [(holds(*operands), message) for holds, message in _FAULTS[name]]
    if name in _OVERFLOW:
        overflow = np.isinf(out)
        for operand in operands:
            overflow = overflow & np.isfinite(operand)
        faults.append((overflow, _OVERFLOW[name]))
    if not any(np.asarray(mask).any() for mask, _ in faults):
        return
    masks = [np.broadcast_to(mask, x.shape).ravel() for mask, _ in faults]
    first = int(np.argmax(np.logical_or.reduce(masks)))
    _raise(x, first, next(msg for mask, (_, msg) in zip(masks, faults) if mask[first]), pos)


def _raise(x, first: int, message: str, pos: int | None) -> None:
    """Raise EvalDomainError with ``message``, naming the element of ``x``
    at flat index ``first`` when ``x`` is an array."""
    if np.ndim(x) == 0:
        raise EvalDomainError(message, pos)
    where = np.unravel_index(first, x.shape)
    raise EvalDomainError(f"{message} at element {list(map(int, where))} "
                          f"(variable = {float(x[where])!r})", pos)


# ---------------------------------------------------------------------------
# Taylor recurrences (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
# ch. 13): each fills rows 1.. of a node's jet ``w`` from its row 0 and its
# children's jets
# ---------------------------------------------------------------------------


# Row numbers and factorials of jets, and each row count's Cauchy-product
# indices [k, j] -> k - j (n where j > k), made at import, before any large
# array: built lazily between large arrays they kept the heap from shrinking
# (3 MB more peak RSS on the 120x120 grid benchmark).
_ROWS = np.arange(MAX_ORDER + 1.0)
_FACTORIAL = np.cumprod(np.maximum(_ROWS, 1.0))
_TOEPLITZ = [np.where(j <= k, k - j, n) for n in range(MAX_ORDER + 2)
             for k, j in [np.indices((n, n))]]
_SIGNS = np.array([1.0, -1.0])  # (sin, cos)' = u' (cos, sin) * _SIGNS


def _ramp(w: np.ndarray, rows: np.ndarray = _ROWS) -> np.ndarray:
    """``rows`` (k by default) for the rows k of a jet, shaped to broadcast
    over it."""
    return rows[:len(w)].reshape((-1,) + (1,) * (w.ndim - 1))


def _conv(a: np.ndarray, b: np.ndarray):
    """sum_j a_j b_j over rows, in row order below 8 rows whatever the other
    axes, so a batch and its batches of one agree bit for bit."""
    return np.add.reduce(a * b, axis=0)


def _cauchy(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The jet of u v: w_k = sum_j u_j v_(k-j), in j order."""
    padded = np.concatenate([v, np.zeros((1, *v.shape[1:]))])
    return np.add.reduce(u * padded[_TOEPLITZ[len(u)]], axis=1)


def _quotient(w, u, v) -> None:
    """w = u / v: v_0 w_k = u_k - sum_(j<k) w_j v_(k-j)."""
    for k in range(1, len(w)):
        w[k] = ((u[k] if isinstance(u, np.ndarray) else 0.0) - _conv(w[:k], v[k:0:-1])) / v[0]


def _exp(w, u) -> None:
    """w = exp(u), w' = u' w: k w_k = sum_(j=1..k) j u_j w_(k-j)."""
    ju = u * _ramp(w)
    for k in range(1, len(w)):
        w[k] = _conv(ju[1:k + 1], w[k - 1::-1]) / k


def _log(w, u) -> None:
    """w = ln(u), u w' = u': u_0 w_k = u_k - sum_(j=1..k-1) (j/k) w_j u_(k-j)."""
    j = _ramp(w)
    for k in range(1, len(w)):
        w[k] = (u[k] - _conv(j[1:k] * w[1:k], u[k - 1:0:-1]) / k) / u[0]


def _sincos(u) -> np.ndarray:
    """sin u and cos u stacked on axis 1: (sin, cos)' = u' (cos, -sin), so
    k (s_k, c_k) = sum_(j=1..k) j u_j (c_(k-j), -s_(k-j))."""
    sc = np.empty((len(u), 2, *u.shape[1:]))
    sc[0, 0], sc[0, 1] = np.sin(u[0]), np.cos(u[0])
    ju = (u * _ramp(u))[:, None]
    sign = _SIGNS.reshape((2,) + (1,) * (u.ndim - 1))
    for k in range(1, len(u)):
        sc[k] = _conv(ju[1:k + 1], sc[k - 1::-1, ::-1]) * sign / k
    return sc


def _power(w, u, r) -> None:
    """w = u^r: for a constant integer r by repeated squaring (so t^2 stays
    exact at t = 0), else as exp(r ln u)."""
    if not isinstance(r, np.ndarray) and r % 1.0 == 0.0:
        p, n = None, abs(int(r))
        while n:
            if n & 1:
                p = u if p is None else _cauchy(p, u)
            n >>= 1
            if n:
                u = _cauchy(u, u)
        if r < 0.0:
            _quotient(w, 1.0, p)
        else:
            w[1:] = 0.0 if p is None else p[1:]
        return
    log = np.log(u)  # row 0 of a jet; _log rewrites the rest
    if isinstance(u, np.ndarray):
        _log(log, u)
    both = isinstance(r, np.ndarray) and isinstance(log, np.ndarray)
    _exp(w, _cauchy(r, log) if both else r * log)


_TAYLOR = {
    "*": lambda w, l, r: np.copyto(w[1:], _cauchy(l, r)[1:]),
    "/": _quotient, "^": _power, "exp": _exp, "ln": _log,
    "sqrt": lambda w, u: _power(w, u, 0.5),
    "sin": lambda w, u: np.copyto(w[1:], _sincos(u)[1:, 0]),
    "cos": lambda w, u: np.copyto(w[1:], _sincos(u)[1:, 1]),
    "tan": lambda w, u: _quotient(w, *_sincos(u).swapaxes(0, 1)),
    "sec": lambda w, u: _quotient(w, 1.0, _sincos(u)[:, 1]),
}


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
