"""Exact reference invariants of W-curve pencils, in 50-digit arithmetic.

Shares no formula with pencil4 or its oracle.  The surface point

    X(s, t) = gamma(s) + A(t) V2(s) + B(t) V4(s)

is evaluated in mpmath: gamma and its derivatives in closed form, the frame
V1..V4 by Gram-Schmidt on gamma', ..., gamma'''' (V4 signed so that the
frame has determinant +1).  The partial derivatives of X come from
``mp.diff``, and the invariants from the shape operators A_1, A_2 of an
orthonormal tangent frame (e_1, e_2) and normal frame (n_1, n_2), with
(e_1, e_2, n_1, n_2) positively oriented in E^4:

    K = det A_1 + det A_2,   K_N = (A_1 A_2 - A_2 A_1)_12,
    |H|^2 = (tr A_1 / 2)^2 + (tr A_2 / 2)^2.

A point costs a few hundredths of a second.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Sequence

from mpmath import mp

from pencil4 import expr as ex

DPS = 50

_ORDERS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


class Invariants(NamedTuple):
    K: float
    K_N: float
    H_norm_sq: float


def _dot(a, b):
    return mp.fsum(x * y for x, y in zip(a, b))


def _unit(v):
    n = mp.sqrt(_dot(v, v))
    return [x / n for x in v]


def _minus_projections(v, basis):
    for b in basis:
        p = _dot(v, b)
        v = [x - p * y for x, y in zip(v, b)]
    return v


def w_curve_pencil(a: float, b: float, c: float, d: float,
                   A: Callable, B: Callable) -> Callable:
    """X(s, t) as a list of four mpf for the W-curve
    (a cos cs, a sin cs, b cos ds, b sin ds) and marching functions ``A``,
    ``B`` of an mpf (written with mpmath functions).  The parameters are
    taken as the exact values of the given doubles."""
    a, b, c, d = (mp.mpf(x) for x in (a, b, c, d))
    cache = {}

    def point(s, t):
        key = (s, t, mp.prec)
        if key not in cache:
            # gamma^(k)(s): each (cos, sin) pair advances by k quarter turns
            derivs = [[a * c**k * mp.cos(c * s + k * mp.pi / 2),
                       a * c**k * mp.sin(c * s + k * mp.pi / 2),
                       b * d**k * mp.cos(d * s + k * mp.pi / 2),
                       b * d**k * mp.sin(d * s + k * mp.pi / 2)] for k in range(5)]
            frame = []
            for v in derivs[1:]:
                frame.append(_unit(_minus_projections(v, frame)))
            if mp.det(mp.matrix(frame)) < 0:
                frame[3] = [-x for x in frame[3]]
            a_t, b_t = A(t), B(t)
            cache[key] = [g + a_t * v2 + b_t * v4
                          for g, v2, v4 in zip(derivs[0], frame[1], frame[3])]
        return cache[key]

    return point


def invariants(point: Callable, s: float, t: float) -> Invariants:
    """K, K_N and |H|^2 of the immersion ``point`` at (s, t)."""
    with mp.workdps(DPS):
        s, t = mp.mpf(s), mp.mpf(t)
        x = {order: [mp.diff(lambda u, v, i=i: point(u, v)[i], (s, t), order)
                     for i in range(4)] for order in _ORDERS}
        x_s, x_t = x[1, 0], x[0, 1]
        e1 = _unit(x_s)
        e2 = _unit(_minus_projections(x_t, [e1]))
        normals = []
        for i in range(4):
            r = _minus_projections([mp.mpf(i == j) for j in range(4)], [e1, e2, *normals])
            if len(normals) < 2 and _dot(r, r) > mp.mpf(1) / 16:
                normals.append(_unit(r))
        if mp.det(mp.matrix([e1, e2, *normals])) < 0:
            normals[1] = [-y for y in normals[1]]
        # (e_1 e_2) = (X_s X_t) P
        J = mp.matrix([x_s, x_t]).T
        P = mp.inverse(J.T * J) * J.T * mp.matrix([e1, e2]).T
        shape = []
        for n in normals:
            h = mp.matrix([[_dot(x[2, 0], n), _dot(x[1, 1], n)],
                           [_dot(x[1, 1], n), _dot(x[0, 2], n)]])
            shape.append(P.T * h * P)
        A1, A2 = shape
        return Invariants(
            K=float(mp.det(A1) + mp.det(A2)),
            K_N=float((A1 * A2 - A2 * A1)[0, 1]),
            H_norm_sq=float(sum(((S[0, 0] + S[1, 1]) / 2) ** 2 for S in shape)),
        )


# ---------------------------------------------------------------------------
# Analytic curves: expression trees read by mpmath
# ---------------------------------------------------------------------------


_FUNCTIONS = {"sin": mp.sin, "cos": mp.cos, "tan": mp.tan, "sec": mp.sec, "exp": mp.exp,
              "ln": mp.ln, "sqrt": mp.sqrt}
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
              "^": operator.pow}


def expression_function(e: ex.Expr) -> Callable:
    """The function of one mpf that the pencil4 expression tree ``e``
    denotes, in mpmath at its working precision; a literal is the exact
    value of its double."""
    def value(node, x):
        if isinstance(node, ex.Literal):
            return mp.mpf(node.value)
        if isinstance(node, ex.Variable):
            return x
        if isinstance(node, ex.Neg):
            return -value(node.operand, x)
        if isinstance(node, ex.Call):
            return _FUNCTIONS[node.fn](value(node.arg, x))
        return _OPERATORS[node.op](value(node.left, x), value(node.right, x))

    return lambda x: value(e, x)


class Frenet(NamedTuple):
    frame: list   # rows V1..V4, four mpf each
    kappas: list  # kappa1, kappa2, kappa3


def curve_frenet(components: Sequence[Callable], s) -> Frenet:
    """Frame and curvatures at ``s`` of the curve whose components are the
    mpmath functions ``components``: Gram-Schmidt on gamma', ..., gamma''''
    from ``mp.diffs``, with kappa_i the ratio |e_(i+1)| / |e_i| of
    successive residual lengths, and kappa3 and V4 signed so that
    det[V1 V2 V3 V4] = +1."""
    with mp.workdps(DPS):
        derivs = [list(mp.diffs(f, mp.mpf(s), 4))[1:] for f in components]
        frame, lengths = [], []
        for k in range(4):
            r = _minus_projections([d[k] for d in derivs], frame)
            lengths.append(mp.sqrt(_dot(r, r)))
            frame.append(_unit(r))
        sign = mp.sign(mp.det(mp.matrix(frame)))
        frame[3] = [sign * x for x in frame[3]]
        return Frenet(frame, [lengths[1] / lengths[0], lengths[2] / lengths[1],
                              sign * lengths[3] / lengths[2]])


def kappa_rates(components: Sequence[Callable], s) -> list:
    """kappa_1'(s), kappa_2'(s), kappa_3'(s) of ``curve_frenet`` by a central
    difference of step 1e-15 at 50 digits (truncation near 1e-30)."""
    with mp.workdps(DPS):
        h = mp.mpf("1e-15")
        plus, minus = (curve_frenet(components, mp.mpf(s) + d).kappas for d in (h, -h))
        return [(p - m) / (2 * h) for p, m in zip(plus, minus)]
