"""Unit-speed curves in Euclidean 4-space and their moving frames.

The frame of a nondegenerate curve comes from Gram-Schmidt on the first
four derivatives; the first two curvatures are nonnegative by construction
and the sign of the third is fixed by requiring det[V1 V2 V3 V4] = +1.
Degenerate double-rotation generators (equal rotation rates, or a planar
circle) get an explicit completion so that pencils over them remain
well-defined.

All types are immutable and all operations are pure functions, so they are
safe to call from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import (
    ConstraintViolationError,
    DegenerateFrameError,
    UnsupportedCompletionError,
)

__all__ = [
    "Vec4",
    "WCurve",
    "AnalyticCurve",
    "CurveSpec",
    "FrenetApparatus",
    "derivatives",
    "frenet_apparatus",
    "complete_frame",
    "is_w_curve",
]

KAPPA_TOL = 1e-9  # below this a curvature is treated as structurally zero
UNIT_SPEED_TOL_W = 1e-12
UNIT_SPEED_TOL_ANALYTIC = 1e-9


@dataclass(frozen=True)
class Vec4:
    """A point or vector in E^4 (dimensionless model units)."""

    x1: float
    x2: float
    x3: float
    x4: float

    @classmethod
    def from_array(cls, a) -> "Vec4":
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.x4])

    def dot(self, other: "Vec4") -> float:
        return self.x1 * other.x1 + self.x2 * other.x2 + self.x3 * other.x3 + self.x4 * other.x4

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def __add__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3, self.x4 + other.x4)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3, self.x4 - other.x4)

    def scaled(self, k: float) -> "Vec4":
        return Vec4(k * self.x1, k * self.x2, k * self.x3, k * self.x4)


@dataclass(frozen=True)
class WCurve:
    """Double-rotation curve (a cos cs, a sin cs, b cos ds, b sin ds).

    Unit speed requires a^2 c^2 + b^2 d^2 = 1; construction rejects
    anything else rather than silently reparametrizing.
    """

    a: float
    b: float
    c: float
    d: float
    domain: tuple[float, float] = (0.0, 2.0 * math.pi)

    def __post_init__(self):
        speed_sq = self.a**2 * self.c**2 + self.b**2 * self.d**2
        if abs(speed_sq - 1.0) > UNIT_SPEED_TOL_W:
            raise ConstraintViolationError(
                f"not unit speed: a^2 c^2 + b^2 d^2 = {speed_sq!r} (must be 1)"
            )

    def point(self, s) -> np.ndarray:
        """gamma(s) for a float (shape (4,)) or an array of s (shape (..., 4))."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return np.stack([a * np.cos(c * s), a * np.sin(c * s),
                         b * np.cos(d * s), b * np.sin(d * s)], axis=-1)

    def derivative_arrays(self, s: float, order: int) -> list[np.ndarray]:
        a, b, c, d = self.a, self.b, self.c, self.d
        c1, s1 = math.cos(c * s), math.sin(c * s)
        c2, s2 = math.cos(d * s), math.sin(d * s)
        out = []
        for k in range(1, order + 1):
            # k-th derivative of (cos, sin) rotates by k*pi/2 and scales by rate^k
            pc, ps = _rot_pair(c1, s1, k)
            qc, qs = _rot_pair(c2, s2, k)
            out.append(np.array([a * c**k * pc, a * c**k * ps, b * d**k * qc, b * d**k * qs]))
        return out

    @property
    def is_degenerate_rotation(self) -> bool:
        """True when the Gram-Schmidt frame breaks down at rank 2: equal
        rotation rates, or one of the two circles collapsed (planar)."""
        return abs(self.c - self.d) <= 1e-12 or abs(self.b) <= 1e-12 or abs(self.a) <= 1e-12


def _rot_pair(c1: float, s1: float, k: int) -> tuple[float, float]:
    # k-th derivative pattern of (cos u, sin u) w.r.t. u
    m = k % 4
    if m == 0:
        return c1, s1
    if m == 1:
        return -s1, c1
    if m == 2:
        return -c1, -s1
    return s1, -c1


@dataclass(frozen=True)
class AnalyticCurve:
    """Curve given by four expressions in the arc-length parameter.

    Construction verifies |  ||gamma'(s)|| - 1 | <= 1e-9 on a 256-point
    sample of the domain and rejects non-unit-speed input.
    """

    components: tuple[ex.Expr, ex.Expr, ex.Expr, ex.Expr]
    domain: tuple[float, float]
    _derivs: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if len(self.components) != 4:
            raise ConstraintViolationError("an analytic curve needs exactly 4 components")
        columns = [(e, *ex.derivatives(e, 4)) for e in self.components]
        object.__setattr__(self, "_derivs", tuple(zip(*columns)))
        s0, s1 = self.domain
        if not s1 > s0:
            raise ConstraintViolationError("empty parameter domain")
        samples = np.linspace(s0, s1, 256)
        speed = np.sqrt(sum(ex.evaluate(e, samples) ** 2 for e in self._derivs[1]))
        worst = float(np.max(np.abs(speed - 1.0)))
        if not worst <= UNIT_SPEED_TOL_ANALYTIC:
            raise ConstraintViolationError(
                f"analytic curve is not unit speed (max | ||gamma'|| - 1 | = {worst:.3e})"
            )

    @classmethod
    def from_strings(cls, components: Sequence[str], domain: tuple[float, float],
                     var: str = "s") -> "AnalyticCurve":
        parsed = tuple(ex.parse(text, var) for text in components)
        return cls(parsed, (float(domain[0]), float(domain[1])))

    def point(self, s) -> np.ndarray:
        """gamma(s) for a float (shape (4,)) or an array of s (shape (..., 4))."""
        return np.stack([ex.evaluate(e, s) for e in self._derivs[0]], axis=-1)

    def derivative_arrays(self, s: float, order: int) -> list[np.ndarray]:
        return [np.array([ex.evaluate(e, s) for e in self._derivs[k]])
                for k in range(1, order + 1)]


CurveSpec = WCurve | AnalyticCurve


@dataclass(frozen=True, eq=False)
class FrenetApparatus:
    """Orthonormal moving frame V1..V4 with curvatures at one parameter.

    ``kappa2``/``kappa3`` are the canonical curvature magnitudes read off
    Gram-Schmidt (zero for a completed degenerate frame).  ``connection``
    holds the coefficients (w1, w2, w3) of the actual frame ODE

        V1' = w1 V2,  V2' = -w1 V1 + w2 V3,
        V3' = -w2 V2 + w3 V4,  V4' = -w3 V3;

    for a nondegenerate curve these equal the curvatures, while the
    explicit completion of a degenerate rotation generator rotates with
    (kappa1, 0, -c).  Surface formulas must use ``connection``.

    ``degenerate`` flags which kappa_i fell below KAPPA_TOL.
    """

    frame: np.ndarray  # 4x4, rows V1..V4
    kappa1: float
    kappa2: float
    kappa3: float
    degenerate: tuple[bool, bool, bool]
    rank: int
    connection: tuple[float, float, float]

    @property
    def V1(self) -> Vec4:
        return Vec4.from_array(self.frame[0])

    @property
    def V2(self) -> Vec4:
        return Vec4.from_array(self.frame[1])

    @property
    def V3(self) -> Vec4:
        return Vec4.from_array(self.frame[2])

    @property
    def V4(self) -> Vec4:
        return Vec4.from_array(self.frame[3])

    @property
    def kappas(self) -> tuple[float, float, float]:
        return (self.kappa1, self.kappa2, self.kappa3)


def derivatives(curve: CurveSpec, s: float, order: int = 4) -> list[Vec4]:
    """gamma'(s), ..., gamma^(order)(s); exact for WCurve, symbolic for
    analytic curves."""
    if not 1 <= order <= 4:
        raise ValueError("order must be between 1 and 4")
    return [Vec4.from_array(d) for d in curve.derivative_arrays(s, order)]


def frenet_apparatus(curve: CurveSpec, s: float) -> FrenetApparatus:
    """Frame and curvatures at ``s`` by Gram-Schmidt orthonormalization of
    the first four derivatives.

    For degenerate double-rotation generators the explicit completion of
    ``complete_frame`` is substituted; any other rank loss raises
    DegenerateFrameError carrying the achieved rank.
    """
    if isinstance(curve, WCurve) and curve.is_degenerate_rotation:
        return complete_frame(curve, s)

    d1, d2, d3, d4 = curve.derivative_arrays(s, 4)
    v1 = d1 / np.linalg.norm(d1)

    e2 = d2 - (d2 @ v1) * v1
    kappa1 = float(np.linalg.norm(e2))
    if kappa1 < KAPPA_TOL:
        raise DegenerateFrameError(rank=1, kappas=(0.0,), message="straight line: kappa1 = 0")
    v2 = e2 / kappa1

    e3 = d3 - (d3 @ v1) * v1 - (d3 @ v2) * v2
    n3 = float(np.linalg.norm(e3))
    kappa2 = n3 / kappa1
    if kappa2 < KAPPA_TOL:
        raise DegenerateFrameError(
            rank=2, kappas=(kappa1, 0.0),
            message=f"planar curve: kappa1 = {kappa1!r}, kappa2 = 0",
        )
    v3 = e3 / n3

    e4 = d4 - (d4 @ v1) * v1 - (d4 @ v2) * v2 - (d4 @ v3) * v3
    n4 = float(np.linalg.norm(e4))
    kappa3_mag = n4 / (kappa1 * kappa2)
    if kappa3_mag < KAPPA_TOL:
        # Curve lies in a 3-space; the normal complement is canonical up to
        # sign, which the determinant convention fixes below.
        v4 = _orthogonal_complement(v1, v2, v3)
        kappa3_flag = True
    else:
        v4 = e4 / n4
        kappa3_flag = False

    if float(np.linalg.det(np.column_stack([v1, v2, v3, v4]))) < 0.0:
        v4 = -v4
    kappa3 = float(d4 @ v4) / (kappa1 * kappa2)

    frame = np.array([v1, v2, v3, v4])
    return FrenetApparatus(
        frame=frame,
        kappa1=kappa1,
        kappa2=kappa2,
        kappa3=kappa3,
        degenerate=(False, False, kappa3_flag),
        rank=3 if kappa3_flag else 4,
        connection=(kappa1, kappa2, kappa3),
    )


def _orthogonal_complement(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
    best = None
    best_norm = -1.0
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        r = e - (e @ v1) * v1 - (e @ v2) * v2 - (e @ v3) * v3
        n = float(np.linalg.norm(r))
        if n > best_norm:
            best, best_norm = r / n, n
    return best


def complete_frame(curve: CurveSpec, s: float) -> FrenetApparatus:
    """Explicit frame completion for a degenerate double-rotation generator
    (equal rates c = d, or a planar circle with b = 0).

    Returns the frame with

        V3(s) = (-b sin cs, b cos cs, a sin cs, -a cos cs) / sqrt(a^2+b^2)
        V4(s) = ( b cos cs, b sin cs, -a cos cs, -a sin cs) / sqrt(a^2+b^2)

    and kappa2 = kappa3 = 0 (the curve is a planar circle, so only kappa1
    survives).  The completion itself rotates: its frame ODE coefficients
    are (kappa1, 0, -c), recorded on ``connection``.
    """
    if not isinstance(curve, WCurve):
        raise UnsupportedCompletionError(
            "frame completion is only defined for degenerate double-rotation generators"
        )
    a, b, c, d = curve.a, curve.b, curve.c, curve.d
    if abs(b) <= 1e-12:
        rate = c
    elif abs(curve.c - curve.d) <= 1e-12:
        rate = 0.5 * (c + d)
    else:
        raise UnsupportedCompletionError(
            "no completion convention for this curve (need c = d or b = 0)"
        )
    if abs(a) <= 1e-12:
        raise UnsupportedCompletionError(
            "no completion convention for a generator collapsed onto the second plane"
        )

    r = math.hypot(a, b)
    kappa1 = rate * rate * r  # |gamma''| for the planar circle of radius r
    c1, s1 = math.cos(rate * s), math.sin(rate * s)
    v1 = np.array([-a * rate * s1, a * rate * c1, -b * rate * s1, b * rate * c1])
    v2 = np.array([-a * c1, -a * s1, -b * c1, -b * s1]) / r
    v3 = np.array([-b * s1, b * c1, a * s1, -a * c1]) / r
    v4 = np.array([b * c1, b * s1, -a * c1, -a * s1]) / r
    frame = np.array([v1, v2, v3, v4])
    return FrenetApparatus(
        frame=frame,
        kappa1=kappa1,
        kappa2=0.0,
        kappa3=0.0,
        degenerate=(False, True, True),
        rank=2,
        connection=(kappa1, 0.0, -rate),
    )


def is_w_curve(samples: Sequence[FrenetApparatus]) -> bool:
    """True when every curvature is constant across the samples (max-min
    spread of each kappa_i at most 1e-8)."""
    if len(samples) < 16:
        raise ValueError("need at least 16 frame samples")
    for pick in (lambda f: f.kappa1, lambda f: f.kappa2, lambda f: f.kappa3):
        values = [pick(f) for f in samples]
        if max(values) - min(values) > 1e-8:
            return False
    return True
