"""Surface pencils X(s,t) = gamma(s) + A(t) V2(s) + B(t) V4(s).

The marching-scale functions A, B are expressions in t with exact symbolic
derivatives.  Writing a = 1 - k1 A and b = k2 A - k3 B, the tangent plane is
spanned by X_s = a V1 + b V3 and X_t = A' V2 + B' V4, the metric is
diagonal (E = a^2 + b^2, F = 0, G = A'^2 + B'^2), and the second
fundamental form has exactly four nonzero coefficients.

Coefficient source: by default the k_i are the frame-ODE ("connection")
coefficients of the apparatus, which is what differentiating the actual
frame requires; for completed degenerate frames these differ from the
curve's own curvatures (which are zero past kappa1).  Flatness bookkeeping
that follows the curve-curvature convention passes ``source="curve"``.

Each pencil formula is written once and accepts floats or broadcastable
arrays: the scalar methods feed it one point, ``PencilSurface.sweep`` feeds
it spine data per s as ``(1, ns)`` and marching values per t as ``(nt, 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .curve import CurveSpec, FrenetApparatus, Vec4, WCurve, frenet_apparatus
from .errors import RegularityViolationError

__all__ = [
    "MarchingScale",
    "PencilSurface",
    "PencilCoefficients",
    "FundamentalForms",
    "Sweep",
]

REGULARITY_TOL = 1e-12
_KAPPA_FD_STEP = 1e-5  # central step for kappa'(s) on analytic curves

# Regularity status codes of a grid point, and the condition each one names.
OK, SPINE, MARCHING = 0, 1, 2
CONDITIONS = ("ok", "spine", "marching")


@dataclass(frozen=True)
class MarchingScale:
    """The pair A(t), B(t) with exact first and second derivatives."""

    A: ex.Expr
    B: ex.Expr
    domain: tuple[float, float]
    dA: ex.Expr = field(init=False, repr=False, compare=False, default=None)
    dB: ex.Expr = field(init=False, repr=False, compare=False, default=None)
    ddA: ex.Expr = field(init=False, repr=False, compare=False, default=None)
    ddB: ex.Expr = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "dA", ex.differentiate(self.A))
        object.__setattr__(self, "dB", ex.differentiate(self.B))
        object.__setattr__(self, "ddA", ex.differentiate(self.dA))
        object.__setattr__(self, "ddB", ex.differentiate(self.dB))
        t0, t1 = self.domain
        if not t1 > t0:
            raise RegularityViolationError("marching")
        for t in np.linspace(t0, t1, 64):
            da = ex.evaluate(self.dA, float(t))
            db = ex.evaluate(self.dB, float(t))
            if da * da + db * db <= REGULARITY_TOL:
                raise RegularityViolationError("marching", t=float(t))

    @classmethod
    def from_expressions(cls, a_text: str, b_text: str, domain: tuple[float, float],
                         var: str = "t") -> "MarchingScale":
        return cls(ex.parse(a_text, var), ex.parse(b_text, var),
                   (float(domain[0]), float(domain[1])))

    def values(self, t: float) -> tuple[float, float, float, float, float, float]:
        """(A, B, A', B', A'', B'') at ``t``."""
        return (
            ex.evaluate(self.A, t),
            ex.evaluate(self.B, t),
            ex.evaluate(self.dA, t),
            ex.evaluate(self.dB, t),
            ex.evaluate(self.ddA, t),
            ex.evaluate(self.ddB, t),
        )


@dataclass(frozen=True)
class PencilCoefficients:
    """a, b shorthand and their partial derivatives at one point."""

    a: float
    b: float
    a_s: float
    a_t: float
    b_s: float
    b_t: float


@dataclass(frozen=True)
class FundamentalForms:
    """First- and second-form coefficients at a pencil surface point
    (arrays of them on a grid from a sweep).

    F vanishes identically for pencils, as do c1_12 and c2_22; they are kept
    as explicit zeros so generic curvature formulas can consume this
    structure directly.
    """

    E: float
    G: float
    W2: float
    c1_11: float
    c1_22: float
    c2_11: float
    c2_12: float
    F: float = 0.0
    c1_12: float = 0.0
    c2_22: float = 0.0


@dataclass(frozen=True, eq=False)
class Sweep:
    """A pencil on the tensor grid ``t x s``, t-major: leading axes
    ``(nt, ns)``.  ``forms`` is NaN where ``status`` is not OK.  ``rho1``
    (``(nt, 1)``) and ``rho2`` are the unmasked flatness residuals
    A' B'' - B' A'' = sqrt(G) c1_22 and a b_t - b a_t = sqrt(E) c2_12."""

    s: np.ndarray       # (ns,)
    t: np.ndarray       # (nt,)
    points: np.ndarray  # (nt, ns, 4)
    status: np.ndarray  # (nt, ns) int8: OK, SPINE or MARCHING
    forms: FundamentalForms
    rho1: np.ndarray
    rho2: np.ndarray

    def require_regular(self) -> None:
        """Raise RegularityViolationError at the first irregular grid point
        in t-major order."""
        bad = np.flatnonzero(self.status)
        if bad.size:
            it, i_s = divmod(int(bad[0]), self.s.size)
            raise RegularityViolationError(CONDITIONS[self.status[it, i_s]],
                                           float(self.s[i_s]), float(self.t[it]))


# ---------------------------------------------------------------------------
# Pencil formulas: floats or broadcastable arrays
# ---------------------------------------------------------------------------


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _coefficients(k, dk, A, B, dA, dB) -> PencilCoefficients:
    k1, k2, k3 = k
    dk1, dk2, dk3 = dk
    return PencilCoefficients(a=1.0 - k1 * A, b=k2 * A - k3 * B,
                              a_s=-dk1 * A, a_t=-k1 * dA,
                              b_s=dk2 * A - dk3 * B, b_t=k2 * dA - k3 * dB)


def metric(co: PencilCoefficients, dA, dB):
    """(E, G) = (a^2 + b^2, A'^2 + B'^2)."""
    return co.a * co.a + co.b * co.b, dA * dA + dB * dB


def _regularity(E, G) -> np.ndarray:
    """Status code per point; the spine condition is tested first."""
    return np.where(E <= REGULARITY_TOL, SPINE,
                    np.where(G <= REGULARITY_TOL, MARCHING, OK)).astype(np.int8)


def _point(gamma, V2, V4, A, B):
    return gamma + A * V2 + B * V4


def form_numerators(k, co: PencilCoefficients, dA, dB, ddA, ddB):
    """(q1, q2, sigma, rho2): the nonzero second-form coefficients before
    normalization, sqrt(G) c1_11, sqrt(G) c1_22, sqrt(E) c2_11 and
    sqrt(E) c2_12.  q2 and rho2 are the flatness residuals rho1 and rho2."""
    k1, k2, k3 = k
    return (
        dA * co.b * k3 - dB * (k1 * co.a - k2 * co.b),  # <X_ss, N1> sqrt(G)
        dA * ddB - dB * ddA,                            # <X_tt, N1> sqrt(G)
        co.a * co.b_s - co.b * co.a_s,                  # <X_ss, N2> sqrt(E)
        co.a * co.b_t - co.b * co.a_t,                  # <X_st, N2> sqrt(E)
    )


def _forms(E, G, q1, q2, sigma, rho2) -> FundamentalForms:
    sqrt_e, sqrt_g = _sqrt(E), _sqrt(G)
    return FundamentalForms(E=E, G=G, W2=E * G,
                            c1_11=q1 / sqrt_g, c1_22=q2 / sqrt_g,
                            c2_11=sigma / sqrt_e, c2_12=rho2 / sqrt_e)


@dataclass(frozen=True)
class PencilSurface:
    """A spine curve plus marching-scale functions, evaluable to points,
    frames and fundamental forms."""

    curve: CurveSpec
    marching: MarchingScale
    s_domain: tuple[float, float] = None
    _frames: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.s_domain is None:
            object.__setattr__(self, "s_domain", self.curve.domain)

    @property
    def t_domain(self) -> tuple[float, float]:
        return self.marching.domain

    # -- frames ---------------------------------------------------------

    def frame(self, s: float) -> FrenetApparatus:
        app = self._frames.get(s)
        if app is None:
            app = frenet_apparatus(self.curve, s)
            self._frames[s] = app
        return app

    def _kappas(self, s: float, source: str) -> tuple[float, float, float]:
        app = self.frame(s)
        if source == "frame":
            return app.connection
        if source == "curve":
            return app.kappas
        raise ValueError(f"unknown coefficient source {source!r}")

    def _kappa_rates(self, s: float, source: str) -> tuple[float, float, float]:
        """d/ds of the coefficient triple; exactly zero for W-curves,
        central finite differences elsewhere (no closed form survives the
        Gram-Schmidt construction)."""
        if isinstance(self.curve, WCurve):
            return (0.0, 0.0, 0.0)
        h = _KAPPA_FD_STEP
        lo, hi = self.s_domain
        if s - h < lo or s + h > hi:
            # one-sided second-order fallback near the boundary
            sign = 1.0 if s - h < lo else -1.0
            k0 = np.array(self._kappas(s, source))
            k1 = np.array(self._kappas(s + sign * h, source))
            k2 = np.array(self._kappas(s + 2.0 * sign * h, source))
            rate = sign * (-3.0 * k0 + 4.0 * k1 - k2) / (2.0 * h)
            return tuple(float(v) for v in rate)
        plus = np.array(self._kappas(s + h, source))
        minus = np.array(self._kappas(s - h, source))
        rate = (plus - minus) / (2.0 * h)
        return tuple(float(v) for v in rate)

    # -- geometry at one point -------------------------------------------

    def coefficients(self, s: float, t: float, source: str = "frame") -> PencilCoefficients:
        A, B, dA, dB, _, _ = self.marching.values(t)
        return _coefficients(self._kappas(s, source), self._kappa_rates(s, source),
                             A, B, dA, dB)

    def _regular(self, s: float, t: float, source: str = "frame"):
        """(coefficients, marching values, E, G) at one point; raises
        RegularityViolationError when either regularity condition fails."""
        values = self.marching.values(t)
        co = _coefficients(self._kappas(s, source), self._kappa_rates(s, source),
                           *values[:4])
        E, G = metric(co, values[2], values[3])
        if (status := int(_regularity(E, G))) != OK:
            raise RegularityViolationError(CONDITIONS[status], s, t)
        return co, values, E, G

    def point_array(self, s: float, t: float) -> np.ndarray:
        """X(s,t) without regularity checks (the point itself is always
        defined); used by the numerical oracle's stencils."""
        app = self.frame(s)
        A = ex.evaluate(self.marching.A, t)
        B = ex.evaluate(self.marching.B, t)
        return _point(self.curve.point(s), app.frame[1], app.frame[3], A, B)

    def point(self, s: float, t: float) -> Vec4:
        """X(s,t); raises RegularityViolationError when either regularity
        condition fails at the point."""
        self._regular(s, t)
        return Vec4.from_array(self.point_array(s, t))

    def tangent_frame(self, s: float, t: float) -> tuple[Vec4, Vec4]:
        """(X_s, X_t) = (a V1 + b V3, A' V2 + B' V4)."""
        co, (_, _, dA, dB, _, _), _, _ = self._regular(s, t)
        app = self.frame(s)
        x_s = co.a * app.frame[0] + co.b * app.frame[2]
        x_t = dA * app.frame[1] + dB * app.frame[3]
        return Vec4.from_array(x_s), Vec4.from_array(x_t)

    def normal_frame(self, s: float, t: float) -> tuple[Vec4, Vec4]:
        """(N1, N2) = ((-B' V2 + A' V4)/sqrt(G), (-b V1 + a V3)/sqrt(E))."""
        co, (_, _, dA, dB, _, _), E, G = self._regular(s, t)
        app = self.frame(s)
        n1 = (-dB * app.frame[1] + dA * app.frame[3]) / math.sqrt(G)
        n2 = (-co.b * app.frame[0] + co.a * app.frame[2]) / math.sqrt(E)
        return Vec4.from_array(n1), Vec4.from_array(n2)

    def fundamental_forms(self, s: float, t: float, source: str = "frame") -> FundamentalForms:
        co, values, E, G = self._regular(s, t, source)
        return _forms(E, G, *form_numerators(self._kappas(s, source), co, *values[2:]))

    def second_derivative_s(self, s: float, t: float, source: str = "frame") -> Vec4:
        """X_ss assembled from the frame decomposition
        a_s V1 + (k1 a - k2 b) V2 + b_s V3 + k3 b V4."""
        k1, k2, k3 = self._kappas(s, source)
        co = self.coefficients(s, t, source)
        app = self.frame(s)
        v = (co.a_s * app.frame[0]
             + (k1 * co.a - k2 * co.b) * app.frame[1]
             + co.b_s * app.frame[2]
             + k3 * co.b * app.frame[3])
        return Vec4.from_array(v)

    # -- geometry on a grid ----------------------------------------------

    def sweep(self, ss, ts, source: str = "frame") -> Sweep:
        """Points, forms and regularity status on the grid ``ts x ss``.
        Reads spine data once per s and marching values once per t; an
        irregular point gets a status code, never an exception."""
        s_list = [float(s) for s in ss]
        t_list = [float(t) for t in ts]
        k = np.array([self._kappas(s, source) for s in s_list]).T[:, None, :]
        dk = np.array([self._kappa_rates(s, source) for s in s_list]).T[:, None, :]
        gamma = np.array([self.curve.point(s) for s in s_list])
        frames = np.array([self.frame(s).frame for s in s_list])
        A, B, dA, dB, ddA, ddB = np.array(
            [self.marching.values(t) for t in t_list]).reshape(-1, 6).T[:, :, None]

        co = _coefficients(k, dk, A, B, dA, dB)
        E, G = metric(co, dA, dB)
        status = _regularity(E, G)
        q1, q2, sigma, rho2 = form_numerators(k, co, dA, dB, ddA, ddB)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = _forms(E, G, q1, q2, sigma, rho2)
        irregular = status != OK
        forms = FundamentalForms(
            **{name: np.where(irregular, np.nan, getattr(raw, name))
               for name in ("E", "G", "W2", "c1_11", "c1_22", "c2_11", "c2_12")})
        points = _point(gamma, frames[:, 1], frames[:, 3], A[..., None], B[..., None])
        return Sweep(s=np.array(s_list), t=np.array(t_list), points=points,
                     status=status, forms=forms, rho1=q2, rho2=rho2)
