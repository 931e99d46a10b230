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

from typing import Callable, NamedTuple

from mpmath import mp

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
