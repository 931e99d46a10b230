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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import (
    ConstraintViolationError,
    DegenerateFrameError,
    EvalDomainError,
    UnsupportedCompletionError,
)

__all__ = [
    "WCurve",
    "AnalyticCurve",
    "CurveSpec",
    "FrenetFrames",
    "frenet_frames",
    "frenet_apparatus",
    "gram_schmidt",
    "orthonormal_completion",
]

KAPPA_TOL = 1e-9  # below this a curvature is treated as structurally zero
UNIT_SPEED_TOL_W = 1e-12
UNIT_SPEED_TOL_ANALYTIC = 1e-9
_SKIP_TOL = 0.25  # shortest residual an orthonormal completion accepts


@dataclass(frozen=True)
class WCurve:
    """Double-rotation curve (a cos cs, a sin cs, b cos ds, b sin ds).

    Unit speed requires a^2 c^2 + b^2 d^2 = 1; construction rejects
    anything else rather than silently reparametrizing.

    ``parallel`` picks the completion of a degenerate generator (see
    ``_completed_frames``; a nondegenerate curve ignores it): off, V3 and V4
    rotate with the circle; on, they stay at their s = 0 values, so a pencil
    sweeps a cone over the circle.
    """

    a: float
    b: float
    c: float
    d: float
    domain: tuple[float, float] = (0.0, 2.0 * math.pi)
    parallel: bool = False

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d  # float ** would raise OverflowError
        speed_sq = (a * a) * (c * c) + (b * b) * (d * d)
        if not abs(speed_sq - 1.0) <= UNIT_SPEED_TOL_W:
            raise ConstraintViolationError(
                f"not unit speed: a^2 c^2 + b^2 d^2 = {speed_sq!r} (must be 1)"
            )

    def point(self, s) -> np.ndarray:
        """gamma(s) for a float (shape (4,)) or an array of s (shape (..., 4))."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return np.stack([a * np.cos(c * s), a * np.sin(c * s),
                         b * np.cos(d * s), b * np.sin(d * s)], axis=-1)

    def derivative_arrays(self, s, order: int) -> list[np.ndarray]:
        """gamma'(s), ..., gamma^(order)(s), each of shape (4,) for a float
        or (..., 4) for an array of s."""
        a, b, c, d = self.a, self.b, self.c, self.d
        c1, s1 = np.cos(c * s), np.sin(c * s)
        c2, s2 = np.cos(d * s), np.sin(d * s)
        out = []
        for k in range(1, order + 1):
            # k-th derivative of (cos, sin) rotates by k*pi/2 and scales by rate^k
            pc, ps = _rot_pair(c1, s1, k)
            qc, qs = _rot_pair(c2, s2, k)
            out.append(np.stack([a * c**k * pc, a * c**k * ps, b * d**k * qc, b * d**k * qs],
                                axis=-1))
        return out

    @property
    def is_degenerate_rotation(self) -> bool:
        """True when the Gram-Schmidt frame breaks down at rank 2: equal
        rotation rates, or one of the two circles collapsed (planar)."""
        return abs(self.c - self.d) <= 1e-12 or abs(self.b) <= 1e-12 or abs(self.a) <= 1e-12


def _rot_pair(c1, s1, k: int):
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

    def __post_init__(self):
        if len(self.components) != 4:
            raise ConstraintViolationError("an analytic curve needs exactly 4 components")
        s0, s1 = self.domain
        if not s1 > s0:
            raise ConstraintViolationError("empty parameter domain")
        (speed,) = self.derivative_arrays(_linspace(s0, s1, 256), 1)
        with np.errstate(over="ignore"):  # an overflowing speed is not unit speed
            worst = float(np.max(np.abs(_norm(speed)[:, 0] - 1.0)))
        if not worst <= UNIT_SPEED_TOL_ANALYTIC:
            raise ConstraintViolationError(
                f"analytic curve is not unit speed (max | ||gamma'|| - 1 | = {worst:.3e})"
            )

    @classmethod
    def from_strings(cls, components: Sequence[str],
                     domain: tuple[float, float]) -> "AnalyticCurve":
        parsed = tuple(ex.parse(text, "s") for text in components)
        return cls(parsed, (float(domain[0]), float(domain[1])))

    def point(self, s) -> np.ndarray:
        """gamma(s) for a float (shape (4,)) or an array of s (shape (..., 4))."""
        return np.stack(ex.evaluate(self.components, s), axis=-1)

    def derivative_arrays(self, s, order: int) -> list[np.ndarray]:
        """gamma'(s), ..., gamma^(order)(s), each of shape (4,) for a float
        or (..., 4) for an array of s, from one jet evaluation of the
        components."""
        return list(np.stack(ex.evaluate(self.components, s, order=order), axis=-1)[1:])


CurveSpec = WCurve | AnalyticCurve


@dataclass(frozen=True, eq=False)
class FrenetFrames:
    """Orthonormal moving frames V1..V4 with curvatures at n parameters.

    ``frame`` is (n, 4, 4) with rows V1..V4 per parameter.  ``kappas`` (n, 3)
    holds the canonical curvature magnitudes kappa1..kappa3 read off
    Gram-Schmidt (kappa2 = kappa3 = 0 for a completed degenerate frame).
    ``connection`` (n, 3) holds the coefficients (w1, w2, w3) of the actual
    frame ODE

        V1' = w1 V2,  V2' = -w1 V1 + w2 V3,
        V3' = -w2 V2 + w3 V4,  V4' = -w3 V3;

    for a nondegenerate curve these equal the curvatures, while the
    explicit completion of a degenerate rotation generator rotates with
    (kappa1, 0, -c), or is parallel with (kappa1, 0, 0) for
    ``WCurve.parallel``.  Surface formulas must use ``connection``.

    ``rank`` (n,) is 4, 3 where the curve lies in a 3-space (kappa3 below
    KAPPA_TOL, V4 completed), or 2 for a completed degenerate frame: kappa_i
    is structurally zero exactly where rank <= i.

    ``rates`` (n, 3), when asked for, holds the s-derivatives of
    ``connection``; otherwise it is None.
    """

    frame: np.ndarray
    kappas: np.ndarray
    connection: np.ndarray
    rank: np.ndarray
    rates: np.ndarray | None = None


_EYE = np.eye(4)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (..., 4) arrays, shape (..., 1): one BLAS dot
    per row of contiguous copies (BLAS sums a strided row in another order),
    so the scalar ``x @ y`` bit for bit (a sum of products is not)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _linspace(start: float, stop: float, num: int) -> np.ndarray:
    """``np.linspace`` over a range of finite width.  Near +-1.8e308 its
    product i * step can overflow at the last sample only, which numpy then
    sets to ``stop``: every sample is finite, so the warning is off."""
    with np.errstate(over="ignore"):
        return np.linspace(start, stop, num)


def _norm(a: np.ndarray) -> np.ndarray:
    """Row-wise norms, shape (..., 1): ``np.linalg.norm`` of a row bit for bit."""
    return np.sqrt(_dot(a, a))


def gram_schmidt(vectors: Sequence[np.ndarray]):
    """Classical Gram-Schmidt on the (n, 4) arrays ``vectors``, per row: each
    loses its projections on the unit vectors before it, every projection
    taken of the original vector, and is divided by its residual norm.
    Returns the unit vectors and the residual norms, each (n, 1).  A zero
    residual divides by zero; callers decide under which ``np.errstate``."""
    units, norms = [], []
    for x in vectors:
        e = x
        for u in units:
            e = e - _dot(x, u) * u
        norms.append(_norm(e))
        units.append(e / norms[-1])
    return units, norms


def orthonormal_completion(rows: Sequence[np.ndarray], count: int):
    """Up to ``count`` orthonormal vectors orthogonal to the orthonormal
    (n, 4) arrays ``rows``, per row, by Gram-Schmidt over the standard basis.

    The basis vectors are offered in order e1..e4; each loses its projections
    on ``rows`` and then on the vectors accepted so far, and its residual is
    accepted when longer than 0.25 (so a 1-D complement, whose squared
    residuals sum to 1, always finds its vector).  Returns the (count, n, 4)
    vectors, zero where none was found, and the number found per row."""
    n = len(rows[0])
    out = np.zeros((count, n, 4))
    found = np.zeros(n, dtype=int)
    for i in range(4):
        res = _EYE[i]
        for r in rows:
            res = res - r[:, i, None] * r  # e_i . r, exactly
        for q in out[:-1]:
            res = res - _dot(res, q) * q
        length = _norm(res)
        take = np.flatnonzero((length[:, 0] > _SKIP_TOL) & (found < count))
        out[found[take], take] = res[take] / length[take]
        found[take] += 1
        if (found == count).all():  # the later basis vectors would take nothing
            break
    return out, found


def frenet_frames(curve: CurveSpec, s, rates: bool = False) -> FrenetFrames:
    """Frames and curvatures at every entry of the 1-D array ``s`` by
    Gram-Schmidt orthonormalization of the first four derivatives, each
    step one array operation over all of s.

    Degenerate double-rotation generators get the explicit completion of
    ``_completed_frames``.  Where kappa3 falls below KAPPA_TOL (the curve lies
    in a 3-space) V4 is the normal complement of V1..V3, canonical up to
    the sign that det = +1 fixes.  Any other rank loss raises
    DegenerateFrameError carrying the achieved rank, at the first such s,
    and a frame that is not finite (``c s`` overflowing on a W-curve)
    raises EvalDomainError at the first such s.

    With ``rates`` the connection's s-derivatives are filled in: zero for a
    W-curve, else exact from the Frenet equations, by which gamma^(3) has
    kappa1' on V2, gamma^(4) has 2 kappa1' kappa2 + kappa1 kappa2' on V3,
    and gamma^(5) has kappa1 kappa2 kappa3' + kappa3 (3 kappa1' kappa2 +
    2 kappa1 kappa2') on V4.
    """
    s = np.asarray(s, dtype=float)
    # trigonometry of an overflowing c s gives NaN frames, refused here
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(curve, WCurve) and curve.is_degenerate_rotation:
            frames = _completed_frames(curve, s, rates)
        else:
            frames = _derived_frames(curve, s, rates)
    bad = ~np.isfinite(frames.frame).all(axis=(1, 2))
    if bad.any():
        raise EvalDomainError(f"spine frame is not finite at s = {float(s[bad.argmax()])!r}")
    return frames


def _derived_frames(curve: CurveSpec, s: np.ndarray, rates: bool) -> FrenetFrames:
    """The frames of ``frenet_frames`` from the curve's derivatives."""
    analytic_rates = rates and not isinstance(curve, WCurve)
    d = curve.derivative_arrays(s, 5 if analytic_rates else 4)
    with np.errstate(divide="ignore", invalid="ignore"):
        v, norms = gram_schmidt(d[:4])
        kappa1, kappa2 = norms[1], norms[2] / norms[1]
        in_3_space = (norms[3] / (kappa1 * kappa2))[:, 0] < KAPPA_TOL
    fault = np.flatnonzero((kappa1 < KAPPA_TOL) | (kappa2 < KAPPA_TOL))
    if fault.size:
        i = fault[0]
        at = f" at s = {float(s[i])!r}"
        if kappa1[i, 0] < KAPPA_TOL:
            raise DegenerateFrameError(rank=1, kappas=(0.0,),
                                       message="straight line: kappa1 = 0" + at)
        k1 = float(kappa1[i, 0])
        raise DegenerateFrameError(rank=2, kappas=(k1, 0.0),
                                   message=f"planar curve: kappa1 = {k1!r}, kappa2 = 0" + at)
    frame = np.stack(v, axis=1)
    if in_3_space.any():
        completed, _ = orthonormal_completion(frame[in_3_space, :3].swapaxes(0, 1), 1)
        frame[in_3_space, 3] = completed[0]
    frame[np.linalg.det(frame) < 0.0, 3] *= -1.0
    kappa3 = _dot(d[3], frame[:, 3]) / (kappa1 * kappa2)
    kappas = np.concatenate([kappa1, kappa2, kappa3], 1)
    rate = np.zeros((s.size, 3)) if rates else None
    if analytic_rates:
        rate1 = _dot(d[2], frame[:, 1])
        rate2 = (_dot(d[3], frame[:, 2]) - 2.0 * rate1 * kappa2) / kappa1
        rate3 = (_dot(d[4], frame[:, 3])
                 - kappa3 * (3.0 * rate1 * kappa2 + 2.0 * kappa1 * rate2)) / (kappa1 * kappa2)
        rate = np.concatenate([rate1, rate2, rate3], 1)
    return FrenetFrames(frame=frame, kappas=kappas, connection=kappas,
                        rank=np.where(in_3_space, 3, 4), rates=rate)


def frenet_apparatus(curve: CurveSpec, s: float) -> FrenetFrames:
    """Frame and curvatures at ``s``: ``frenet_frames`` on a batch of one."""
    return frenet_frames(curve, np.array([float(s)]))


def _completed_frames(curve: WCurve, s: np.ndarray, rates: bool) -> FrenetFrames:
    """Explicit frame completion for a degenerate double-rotation generator
    (equal rates c = d, or a planar circle with b = 0), at every entry of
    the 1-D array ``s``:

        V3(s) = (-b sin cs, b cos cs, a sin cs, -a cos cs) / sqrt(a^2+b^2)
        V4(s) = ( b cos cs, b sin cs, -a cos cs, -a sin cs) / sqrt(a^2+b^2)

    and kappa2 = kappa3 = 0 (the curve is a planar circle, so only kappa1
    survives), while the completion itself rotates with (kappa1, 0, -c).
    With ``curve.parallel`` V3 and V4 keep their s = 0 values, the
    constant normal plane of the circle, and the connection is (kappa1, 0, 0).
    """
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
    c1, s1 = np.cos(rate * s), np.sin(rate * s)
    c3, s3 = (np.ones_like(s), np.zeros_like(s)) if curve.parallel else (c1, s1)
    frame = np.stack([
        np.stack([-a * rate * s1, a * rate * c1, -b * rate * s1, b * rate * c1], axis=-1),
        np.stack([-a * c1, -a * s1, -b * c1, -b * s1], axis=-1) / r,
        np.stack([-b * s3, b * c3, a * s3, -a * c3], axis=-1) / r,
        np.stack([b * c3, b * s3, -a * c3, -a * s3], axis=-1) / r,
    ], axis=1)
    n = s.size
    return FrenetFrames(frame=frame, kappas=np.tile([kappa1, 0.0, 0.0], (n, 1)),
                        connection=np.tile([kappa1, 0.0, 0.0 if curve.parallel else -rate],
                                           (n, 1)),
                        rank=np.full(n, 2), rates=np.zeros((n, 3)) if rates else None)

