"""Constructors and verifiers for the special pencil families.

* Generalized rotation surfaces: a pencil over a double-rotation generator
  sweeps the surface (f(t) cos cs, f(t) sin cs, g(t) cos ds, g(t) sin ds);
  the marching functions solve a 2x2 linear system in the profile pair
  (f, g).  The system is written against the actual frame orientation, so
  reconstruction is pointwise exact for either sign gauge of V4.
* Vranceanu surfaces: the degenerate case c = d = 1 with polar profiles
  f = r cos t, g = r sin t, routed through the frame completion.
* Lawson surfaces: f = cos t, g = sin t, d = 1, any c > 0; ``lawson``
  returns the profile and ``rotation_pencil`` the pencil, as for any
  ``RotationProfile``, which holds its generator.
* Ruled pencils: A = B = t/sqrt(2), the unit ruling along (V2+V4)/sqrt(2).
* Flat polar designs: A = r cos t, B = r sin t with the four radius
  families that close both flatness residuals, each gated by its curvature
  constraint; one ``FlatPolarDesign`` record holds the case, the radius,
  the pencil and the verification numbers.

Radii and profiles are parsed expressions (``expr.parse``).

The ``ruled_reference_*`` functions are shortcut formulas for the ruled
pencil written directly in the spine curvatures.  The Gaussian one is known
to disagree with the coefficient computation (factor ~2 at t = 0); both are
kept so the verification report can show the measured ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import curvature as cu
from . import expr as ex
from .curve import CurveSpec, WCurve, _linspace, frenet_frames
from .errors import (
    ConstraintViolationError,
    DomainError,
    EvalDomainError,
    SingularProfileSystemError,
)
from .oracle import Immersion
from .pencil import MarchingScale, PencilSurface

__all__ = [
    "RotationProfile",
    "rotation_marching",
    "rotation_pencil",
    "vranceanu",
    "vranceanu_immersion",
    "lawson",
    "ruled_pencil",
    "polar_marching",
    "FlatPolarDesign",
    "flat_polar_solution",
    "flat_ode_residuals",
    "w_curve_with_equal_curvatures",
    "ruled_reference_gaussian",
    "ruled_reference_normal_curvature",
]

PROFILE_CONSTRAINT_TOL = 1e-8
FLAT_GAUSSIAN_TOL = 1e-8
_R_POSITIVITY_SAMPLES = 64
_R_MAGNITUDE_CAP = 1e8
_VERIFY_GRID = (9, 33)  # (ns, nt) of a flat design's verification record


# ---------------------------------------------------------------------------
# Generalized rotation surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationProfile:
    """Profile functions f, g of a generalized rotation surface over the
    double-rotation generator ``curve`` with constants a, b, c, d."""

    f: ex.Expr
    g: ex.Expr
    curve: WCurve

    def point(self, s, t) -> np.ndarray:
        """The rotation surface at floats (shape (4,)) or broadcastable
        arrays (shape (..., 4))."""
        f, g = ex.evaluate((self.f, self.g), t)
        c, d = self.curve.c, self.curve.d
        return np.stack(np.broadcast_arrays(
            f * np.cos(c * s), f * np.sin(c * s), g * np.cos(d * s), g * np.sin(d * s),
        ), axis=-1)


def _frame_gauge_sign(curve: WCurve) -> float:
    """Sign relating the computed V4(0) to (b d^2, 0, -a c^2, 0)/kappa1.

    The linear profile inversion below needs the orientation the frame
    actually uses, which flips with sign(a b c d (c^2 - d^2)) under the
    det = +1 convention."""
    w = np.array([curve.b * curve.d**2, 0.0, -curve.a * curve.c**2, 0.0])
    dot = float(frenet_frames(curve, np.array([0.0])).frame[0, 3] @ w)
    return 1.0 if dot >= 0.0 else -1.0


def rotation_marching(profile: RotationProfile,
                      t_domain: tuple[float, float] = (0.0, 1.0)) -> MarchingScale:
    """Marching-scale functions whose pencil sweeps exactly the rotation
    surface with profiles (f, g).

    Solves, against the actual frame gauge sigma,

        f = a - (a c^2 A)/k1 + sigma (b d^2 B)/k1
        g = b - (b d^2 A)/k1 - sigma (a c^2 B)/k1

    which inverts to A = -(a c^2 (f-a) + b d^2 (g-b))/k1 and
    B = sigma (b d^2 (f-a) - a c^2 (g-b))/k1 (the coefficient matrix has
    determinant a^2 c^4 + b^2 d^4 = k1^2)."""
    a, b, c, d = profile.curve.a, profile.curve.b, profile.curve.c, profile.curve.d
    k1 = math.sqrt(a * a * c**4 + b * b * d**4)
    if k1 * k1 < 1e-12:
        raise SingularProfileSystemError("profile system is singular: a^2 c^4 + b^2 d^4 vanishes")
    sigma = _frame_gauge_sign(profile.curve)
    ac2, bd2 = a * c * c, b * d * d
    df, dg = profile.f - a, profile.g - b
    big_a = -(ac2 * df + bd2 * dg) / k1
    big_b = sigma * (bd2 * df - ac2 * dg) / k1
    return MarchingScale(big_a, big_b, (float(t_domain[0]), float(t_domain[1])))


def rotation_pencil(profile: RotationProfile,
                    t_domain: tuple[float, float] = (0.0, 1.0)) -> PencilSurface:
    return PencilSurface(profile.curve, rotation_marching(profile, t_domain))


# ---------------------------------------------------------------------------
# Vranceanu surfaces
# ---------------------------------------------------------------------------


def vranceanu(r: ex.Expr, a: float, b: float,
              t_domain: tuple[float, float] = (0.0, 1.0)) -> PencilSurface:
    """Pencil sweeping the Vranceanu surface

        (r(t) cos t cos s, r(t) cos t sin s, r(t) sin t cos s, r(t) sin t sin s)

    over the degenerate generator (a cos s, a sin s, b cos s, b sin s) with
    a^2 + b^2 = 1, using the frame completion convention."""
    if abs(a * a + b * b - 1.0) > 1e-12:
        raise ConstraintViolationError("vranceanu generator needs a^2 + b^2 = 1")
    t = ex.variable("t")
    profile = RotationProfile(r * ex.call("cos", t), r * ex.call("sin", t), WCurve(a, b, 1.0, 1.0))
    return rotation_pencil(profile, t_domain)


def vranceanu_immersion(r: ex.Expr, s_domain: tuple[float, float],
                        t_domain: tuple[float, float]) -> Immersion:
    """The canonical Vranceanu parametrization as an oracle immersion."""

    def fn(s, t) -> np.ndarray:
        rv = ex.evaluate(r, t)
        ct, st = np.cos(t), np.sin(t)
        cs, ss = np.cos(s), np.sin(s)
        return np.stack(np.broadcast_arrays(rv * ct * cs, rv * ct * ss,
                                            rv * st * cs, rv * st * ss), axis=-1)

    return Immersion(fn, s_domain, t_domain)


# ---------------------------------------------------------------------------
# Lawson surfaces
# ---------------------------------------------------------------------------


def lawson(c: float) -> RotationProfile:
    """The double-rotation surface with profiles (cos t, sin t) and rates
    (c, 1).  The generator takes b = 1/sqrt(2) and a = 1/(c sqrt(2)), which
    is unit speed for every c > 0 (and degenerate exactly at c = 1, where
    the completion convention takes over); ``rotation_pencil`` realizes it
    as a pencil."""
    if c <= 0.0:
        raise ConstraintViolationError("lawson rate must be positive")
    t = ex.variable("t")
    curve = WCurve(1.0 / (c * math.sqrt(2.0)), 1.0 / math.sqrt(2.0), c, 1.0)
    return RotationProfile(ex.call("cos", t), ex.call("sin", t), curve)


# ---------------------------------------------------------------------------
# Ruled pencils
# ---------------------------------------------------------------------------


def ruled_pencil(curve: CurveSpec,
                 t_domain: tuple[float, float] = (0.0, 0.5)) -> PencilSurface:
    """The pencil with unit ruling direction (V2 + V4)/sqrt(2), i.e.
    A(t) = B(t) = t/sqrt(2)."""
    marching = MarchingScale.from_expressions("t/sqrt(2)", "t/sqrt(2)", t_domain)
    return PencilSurface(curve, marching)


def ruled_reference_gaussian(k1: float, k2: float, k3: float, t: float) -> float:
    """Shortcut Gaussian-curvature formula for the ruled pencil in terms of
    constant spine curvatures.  Disagrees with the coefficient route by a
    factor of ~2 at t = 0; retained for the adjudication report."""
    denom = ((1.0 - t * k1) ** 2 + t * t * (k2 - k3) ** 2) ** 2
    return -((k2 - k3) ** 2) / denom


def ruled_reference_normal_curvature(k1: float, k2: float, k3: float, t: float) -> float:
    """Shortcut normal-curvature formula for the ruled pencil; agrees with
    the coefficient route at t = 0."""
    denom = 2.0 * ((1.0 - t * k1) ** 2 + t * t * (k2 - k3) ** 2) ** 2
    return (k2 - k3) * (t * (k1 * k1 + k2 * k2 - k3 * k3) - k1) / denom


# ---------------------------------------------------------------------------
# Polar marching and flat designs
# ---------------------------------------------------------------------------


def polar_marching(r: ex.Expr, t_domain: tuple[float, float]) -> MarchingScale:
    """A = r(t) cos t, B = r(t) sin t.

    Requires r to be finite and positive across the domain; a pole or sign
    change raises DomainError."""
    _check_radius(r, t_domain)
    t = ex.variable("t")
    return MarchingScale(
        r * ex.call("cos", t), r * ex.call("sin", t),
        (float(t_domain[0]), float(t_domain[1])),
    )


def _check_radius(r: ex.Expr, t_domain: tuple[float, float]) -> None:
    """r at 64 samples of the domain, from one array evaluation; the first
    sample that blows up or is not positive is named."""
    ts = _linspace(t_domain[0], t_domain[1], _R_POSITIVITY_SAMPLES)
    try:
        values = ex.evaluate(r, ts)
    except EvalDomainError as err:
        raise DomainError(f"radius function singular inside t-range: {err}") from err
    blows_up = ~np.isfinite(values) | (np.abs(values) > _R_MAGNITUDE_CAP)
    bad = np.flatnonzero(blows_up | (values <= 0.0))
    if bad.size:
        i = bad[0]
        what = "blows up near" if blows_up[i] else "is not positive at"
        raise DomainError(f"radius function {what} t = {float(ts[i])!r}")


@dataclass(frozen=True)
class FlatPolarDesign:
    """One flat polar design: the case label, the constants, the solved
    radius function, the curvature constraint it rests on and the pencil
    it sweeps, with grid evidence that it closes both flatness residuals
    (``residuals_flat``, the verdict of ``Sweep.flat``) and has K = 0."""

    case: str
    c1: float
    c2: float
    r: ex.Expr
    constraint: str
    surface: PencilSurface
    max_rho1: float
    max_rho2: float
    residuals_flat: bool
    max_abs_gaussian: float
    max_ode_residual_1: float
    max_ode_residual_2: float

    @property
    def flat(self) -> bool:
        return self.residuals_flat and self.max_abs_gaussian <= FLAT_GAUSSIAN_TOL


# per case: the constraint, and the sign of r = sign/(c1 sin t - c2 cos t)
# (None: r = c1 sec t)
_CASES = {
    "i": ("planar generator; r = 1/(c1 sin t - c2 cos t)", 1.0),
    "ii": ("kappa3 = c1 kappa2 / (c2 + kappa1); r = 1/(c1 sin t - c2 cos t)", 1.0),
    "iii": ("circular generator; r = -1/(c1 sin t - c2 cos t)", -1.0),
    "iv": ("kappa1 = 1/c1; r = c1 / cos t", None),
}


def _check_case_preconditions(case: str, c1: float, c2: float, curve: CurveSpec,
                              s_samples: np.ndarray) -> None:
    if case in ("i", "iii"):
        planar = isinstance(curve, WCurve) and curve.is_degenerate_rotation
        if not planar:
            raise ConstraintViolationError(
                f"case {case}: generator must be a planar circle "
                "(degenerate double rotation)"
            )
        return
    frames = frenet_frames(curve, s_samples)
    kappa1, kappa2, kappa3 = frames.kappas.T
    if case == "ii":
        denom = c2 + kappa1
        with np.errstate(divide="ignore", invalid="ignore"):
            deviation = np.abs(kappa3 - c1 * kappa2 / denom)
        failing = np.stack([frames.rank < 4, np.abs(denom) < 1e-12,
                            deviation > PROFILE_CONSTRAINT_TOL])
        messages = ["case ii: generator frame degenerates", "case ii: c2 + kappa1 vanishes",
                    "case ii: kappa3 != c1 kappa2 / (c2 + kappa1) (|deviation| = {:.3e})"]
    else:  # iv
        if c1 == 0.0:
            raise ConstraintViolationError("case iv: c1 must be nonzero")
        deviation = np.abs(kappa1 - 1.0 / c1)
        failing = (deviation > PROFILE_CONSTRAINT_TOL)[None]
        messages = ["case iv: kappa1 != 1/c1 (|deviation| = {:.3e})"]
    # the first failing sample raises the message of its first failing check
    bad = np.flatnonzero(failing.any(axis=0))
    if bad.size:
        i = bad[0]
        raise ConstraintViolationError(messages[np.argmax(failing[:, i])].format(deviation[i]))


def flat_polar_solution(case: str, c1: float, c2: float, curve: CurveSpec,
                        t_domain: tuple[float, float],
                        s_domain: tuple[float, float] | None = None) -> FlatPolarDesign:
    """Instantiate one of the four flat polar designs and verify it.

    The design records the maxima of both flatness residuals and of |K| on
    a grid, plus the radius-ODE residuals.  The planar cases i and iii
    sweep the circle with its parallel completion (``WCurve.parallel``):
    V3 and V4 are constant, kappa2 = kappa3 = 0 holds for the frame the
    points use, and the surface is a cone over the circle.
    """
    case = case.lower()
    if case not in _CASES:
        raise ValueError(f"unknown flat design case {case!r}")
    constraint, sign = _CASES[case]
    if s_domain is None:
        s_domain = curve.domain
    ns, nt = _VERIFY_GRID
    s_samples = _linspace(s_domain[0], s_domain[1], ns)
    _check_case_preconditions(case, c1, c2, curve, s_samples)
    if case in ("i", "iii"):
        curve = replace(curve, parallel=True)

    t = ex.variable("t")
    if sign is None:
        r = c1 * ex.call("sec", t)
    else:
        r = sign / (c1 * ex.call("sin", t) - c2 * ex.call("cos", t))
    surface = PencilSurface(curve, polar_marching(r, t_domain))

    t_samples = _linspace(t_domain[0], t_domain[1], nt)
    sw = surface.sweep(s_samples, t_samples).require_regular()
    eps1, eps2 = flat_ode_residuals(r, curve, _linspace(t_domain[0], t_domain[1], 64),
                                    s_samples)
    return FlatPolarDesign(
        case=case, c1=c1, c2=c2, r=r, constraint=constraint, surface=surface,
        max_rho1=sw.max_rho1,
        max_rho2=sw.max_rho2,
        residuals_flat=sw.flat,
        max_abs_gaussian=float(np.max(np.abs(cu.invariants_from_forms(sw.forms).K))),
        max_ode_residual_1=float(np.max(np.abs(eps1))),
        max_ode_residual_2=float(np.max(np.abs(eps2))),
    )


def flat_ode_residuals(r: ex.Expr, curve: CurveSpec, t_samples: Sequence[float],
                       s_samples: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Residual fields of the two differential equations a flat polar
    design must satisfy:

        eps1(t)    = 2 r'^2 - r r'' + r^2
        eps2(s, t) = k1 k3 r^2 + (r' k2 - r k3) cos t - (r' k3 + r k2) sin t

    evaluated with the first two derivatives of r from one jet evaluation
    and the curve's own curvature values."""
    t_arr = np.asarray(list(t_samples), dtype=float)
    rv, dv, sv = ex.evaluate(r, t_arr, order=2)
    eps1 = 2.0 * dv * dv - rv * sv + rv * rv
    # kappas per s as (ns, 1) columns against the (nt,) radius samples
    k1, k2, k3 = frenet_frames(curve, np.asarray(s_samples, dtype=float)).kappas.T[:, :, None]
    eps2 = (k1 * k3 * rv * rv + (dv * k2 - rv * k3) * np.cos(t_arr)
            - (dv * k3 + rv * k2) * np.sin(t_arr))
    return eps1, eps2


# ---------------------------------------------------------------------------
# Equal-curvature generators (flat ruled pencils)
# ---------------------------------------------------------------------------


def w_curve_with_equal_curvatures(c: float, d: float) -> WCurve:
    """A unit-speed double-rotation generator with kappa2 = kappa3 and the
    rates c, d.

    kappa2 = |a b c d (c^2-d^2)|/kappa1 and kappa3 = c d/kappa1 coincide
    exactly when |a b (c^2 - d^2)| = 1.  With a = sqrt(1 - b^2 d^2)/c (unit
    speed) and u = b^2 that is d^2 u^2 - u + c^2/gap^2 = 0, gap = |c^2 - d^2|,
    solvable iff gap >= 2 c d; b^2 is its smaller root, written without
    cancellation."""
    if c <= 0.0 or d <= 0.0 or abs(c - d) < 1e-9:
        raise ConstraintViolationError("need distinct positive rates")
    gap = abs(c * c - d * d)
    if gap < 2.0 * c * d:
        raise ConstraintViolationError(
            f"no equal-curvature generator for rates ({c}, {d}): "
            f"|c^2 - d^2| = {gap:.6g} < 2 c d = {2 * c * d:.6g}"
        )
    b_sq = 2.0 * c * c / (gap * gap * (1.0 + math.sqrt(1.0 - (2.0 * c * d / gap) ** 2)))
    b = math.sqrt(b_sq)
    a = math.sqrt(1.0 - b_sq * d * d) / c
    curve = WCurve(a, b, c, d)
    _, k2, k3 = frenet_frames(curve, np.array([0.0])).kappas[0].tolist()
    residual = abs(k2 - k3)
    if residual > 1e-12:
        raise ConstraintViolationError(
            f"equal-curvature construction missed: |k2 - k3| = {residual:.3e}"
        )
    return curve
