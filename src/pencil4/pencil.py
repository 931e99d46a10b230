"""Surface pencils X(s,t) = gamma(s) + A(t) V2(s) + B(t) V4(s).

The marching-scale functions A, B are expressions in t, evaluated with
their first and second derivatives.  Writing a = 1 - k1 A and
b = k2 A - k3 B, the tangent plane is spanned by X_s = a V1 + b V3 and
X_t = A' V2 + B' V4, the metric is diagonal (E = a^2 + b^2, F = 0,
G = A'^2 + B'^2), and the second fundamental form has exactly four nonzero
coefficients.

The k_i are the frame-ODE ("connection") coefficients of the spine's
``FrenetFrames``: the frame the points are swept with is the frame whose
derivatives the forms use.  For a completed degenerate frame they differ
from the curve's own curvatures (zero past kappa1) unless the completion is
parallel (``WCurve.parallel``).

Each pencil formula is written once over broadcastable arrays, and
``PencilSurface.sweep`` is the one place they are evaluated: spine data per
s as ``(1, ns)``, marching values per t as ``(nt, 1)``.  One point is a
sweep over the 1x1 grid ``[s] x [t]``, read at ``[0, 0]``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .curve import CurveSpec, FrenetFrames, _linspace, frenet_apparatus, frenet_frames
from .errors import EvalDomainError, RegularityViolationError

__all__ = [
    "MarchingScale",
    "PencilSurface",
    "PencilCoefficients",
    "FundamentalForms",
    "Sweep",
]

REGULARITY_TOL = 1e-12
FLATNESS_RESIDUAL_TOL = 1e-9
_BLOCK = 4096  # most values per block of a point assembly (see _point)

# Regularity status codes of a grid point, and the condition each one names.
OK, SPINE, MARCHING = 0, 1, 2
CONDITIONS = ("ok", "spine", "marching")


@dataclass(frozen=True)
class MarchingScale:
    """The pair A(t), B(t) with exact first and second derivatives."""

    A: ex.Expr
    B: ex.Expr
    domain: tuple[float, float]

    def __post_init__(self):
        t0, t1 = self.domain
        if not t1 > t0:
            raise RegularityViolationError("marching")
        samples = _linspace(t0, t1, 64)
        (_, da), (_, db) = ex.evaluate((self.A, self.B), samples, order=1)
        with np.errstate(all="ignore"):  # an overflowing speed is not a stall
            stalled = np.flatnonzero(da * da + db * db <= REGULARITY_TOL)
        if stalled.size:
            raise RegularityViolationError("marching", t=float(samples[stalled[0]]))

    @classmethod
    def from_expressions(cls, a_text: str, b_text: str,
                         domain: tuple[float, float]) -> "MarchingScale":
        return cls(ex.parse(a_text, "t"), ex.parse(b_text, "t"),
                   (float(domain[0]), float(domain[1])))

    def values(self, t) -> tuple:
        """(A, B, A', B', A'', B'') at a float ``t``, or an array of each at
        an array of t, from one order-2 jet evaluation of A and B."""
        (A, dA, ddA), (B, dB, ddB) = ex.evaluate((self.A, self.B), t, order=2)
        return A, B, dA, dB, ddA, ddB


@dataclass(frozen=True)
class PencilCoefficients:
    """a, b shorthand and their partial derivatives, at a point or on a grid."""

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
    as explicit zeros so that one invariant kernel,
    ``curvature.invariants_from_forms``, serves pencils and the oracle's
    measured forms alike.
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
    ``(nt, ns)``.  ``forms`` is NaN where ``status`` is not OK.  The
    per-axis data the grid fields come from is kept: frames (rows V1..V4),
    the connection triple ``k``, its s-rates ``dk`` and the ``marching``
    values A, B, A', B', A'', B''.  ``rho1`` (``(nt, 1)``) and ``rho2`` are
    the unmasked flatness residuals A' B'' - B' A'' = sqrt(G) c1_22 and
    a b_t - b a_t = sqrt(E) c2_12, whose joint vanishing forces K = 0."""

    s: np.ndarray       # (ns,)
    t: np.ndarray       # (nt,)
    frames: np.ndarray  # (ns, 4, 4)
    k: np.ndarray       # (3, 1, ns)
    dk: np.ndarray      # (3, 1, ns)
    marching: np.ndarray  # (6, nt, 1)
    points: np.ndarray  # (nt, ns, 4)
    status: np.ndarray  # (nt, ns) int8: OK, SPINE or MARCHING
    forms: FundamentalForms
    rho1: np.ndarray
    rho2: np.ndarray

    def require_regular(self) -> "Sweep":
        """Raise RegularityViolationError at the first irregular grid point
        in t-major order; return the sweep when every point is regular."""
        bad = np.flatnonzero(self.status)
        if bad.size:
            it, i_s = divmod(int(bad[0]), self.s.size)
            raise RegularityViolationError(CONDITIONS[self.status[it, i_s]],
                                           float(self.s[i_s]), float(self.t[it]))
        return self

    @property
    def max_rho1(self) -> float:
        return float(np.max(np.abs(self.rho1)))

    @property
    def max_rho2(self) -> float:
        return float(np.max(np.abs(self.rho2)))

    @property
    def flat(self) -> bool:
        return self.max_rho1 <= FLATNESS_RESIDUAL_TOL and self.max_rho2 <= FLATNESS_RESIDUAL_TOL

    def coefficients(self) -> PencilCoefficients:
        """a, b and their partial derivatives, ``(nt, ns)`` each."""
        return _coefficients(self.k, self.dk, *self.marching[:4])

    def _in_frame(self, *c) -> np.ndarray:
        """c1 V1 + c2 V2 + c3 V3 + c4 V4 at every grid point, ``(nt, ns, 4)``."""
        return sum(np.asarray(ci)[..., None] * self.frames[:, i] for i, ci in enumerate(c))

    def tangent_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(X_s, X_t) = (a V1 + b V3, A' V2 + B' V4)."""
        co, (dA, dB) = self.coefficients(), self.marching[2:4]
        return self._in_frame(co.a, 0.0, co.b, 0.0), self._in_frame(0.0, dA, 0.0, dB)

    def normal_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(N1, N2) = ((-B' V2 + A' V4)/sqrt(G), (-b V1 + a V3)/sqrt(E)); NaN
        where the point is irregular."""
        co, (dA, dB), f = self.coefficients(), self.marching[2:4], self.forms
        return (self._in_frame(0.0, -dB, 0.0, dA) / np.sqrt(f.G)[..., None],
                self._in_frame(-co.b, 0.0, co.a, 0.0) / np.sqrt(f.E)[..., None])

    def second_derivative_s(self) -> np.ndarray:
        """X_ss = a_s V1 + (k1 a - k2 b) V2 + b_s V3 + k3 b V4."""
        co, (k1, k2, k3) = self.coefficients(), self.k
        return self._in_frame(co.a_s, k1 * co.a - k2 * co.b, co.b_s, k3 * co.b)


# ---------------------------------------------------------------------------
# Pencil formulas, over broadcastable arrays
# ---------------------------------------------------------------------------


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


def _point(gamma, V2, V4, A, B, where=slice(None)):
    """gamma + A V2 + B V4 for (m, 4) spine rows read at ``where``, as a
    (..., 4) view of a component-major array.  Each coordinate is gathered
    and summed in place in blocks of leading-axis rows of at most ``_BLOCK``
    values, ``X = A V2; X += gamma; X += B V4``: the sums of ``gamma + A * V2
    + B * V4`` bit for bit (IEEE addition commutes).  Overflows stay inf."""
    shape = np.broadcast_shapes(np.shape(gamma[:, 0][where]), np.shape(A), np.shape(B))
    X = np.empty((4,) + (shape or (1,)))  # one point: a plane of one
    rows = max(1, _BLOCK * len(X[0]) // X[0].size)
    with np.errstate(all="ignore"):
        for c in range(4):
            terms = (A, B, gamma[:, c][where], V2[:, c][where], V4[:, c][where])
            by_rows = [np.ndim(t) == len(shape) > 0 and len(t) > 1 for t in terms]  # or broadcast
            for i in range(0, len(X[0]), rows):
                a, b, g, v2, v4 = (t[i:i + rows] if cut else t for t, cut in zip(terms, by_rows))
                x = np.multiply(a, v2, out=X[c, i:i + rows])
                x += g
                x += b * v4
    return np.moveaxis(X, 0, -1).reshape(shape + (4,))


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


def _first(grid):
    """A dataclass of ``(1, 1)`` grid arrays (or constants) as one of floats."""
    return type(grid)(**{f.name: np.asarray(getattr(grid, f.name)).item()
                         for f in dataclasses.fields(grid)})


@dataclass(frozen=True)
class PencilSurface:
    """A spine curve plus marching-scale functions, evaluable to points,
    frames and fundamental forms."""

    curve: CurveSpec
    marching: MarchingScale

    # -- frames ---------------------------------------------------------

    def frame(self, s: float) -> FrenetFrames:
        """The spine's frame at ``s``: a ``FrenetFrames`` with one entry."""
        return frenet_apparatus(self.curve, s)

    def _spine(self, s: np.ndarray):
        """Frames (n, 4, 4), connection triples and their exact s-rates
        (n, 3) at the 1-D array ``s``, from one ``frenet_frames`` batch over
        s (the rates are zero for W-curves; see ``frenet_frames``)."""
        frames = frenet_frames(self.curve, s, rates=True)
        return frames.frame, frames.connection, frames.rates

    # -- geometry at one point: a sweep over the 1x1 grid [s] x [t] --------

    def coefficients(self, s: float, t: float) -> PencilCoefficients:
        return _first(self.sweep([s], [t]).coefficients())

    def point_array(self, s, t) -> np.ndarray:
        """X(s,t) without regularity checks (the point itself is always
        defined): shape (4,) for floats, ``(..., 4)`` for broadcastable
        arrays, a view of a component-major array.  Frames come from one
        batch over the distinct s; this is the numerical oracle's point
        function."""
        s = np.asarray(s, dtype=float)
        uniq, where = np.unique(s, return_inverse=True)
        frames = frenet_frames(self.curve, uniq).frame
        A, B = ex.evaluate((self.marching.A, self.marching.B), t)
        return _point(self.curve.point(uniq), frames[:, 1], frames[:, 3], A, B,
                      where.reshape(s.shape))

    def fundamental_forms(self, s: float, t: float) -> FundamentalForms:
        return _first(self.sweep([s], [t]).require_regular().forms)

    # -- geometry on a grid ----------------------------------------------

    def sweep(self, ss, ts) -> Sweep:
        """Points, forms and regularity status on the grid ``ts x ss``.
        Spine data comes from one frame batch over s and the marching
        values from one evaluation over t; an irregular point gets a status
        code, never an exception.  Raises EvalDomainError at the first t
        where a marching value (A, B or a derivative) is not finite, and at
        the first regular (s, t), t-major, where a form coefficient is not
        (an overflowing product)."""
        s = np.array(ss, dtype=float).reshape(-1)
        t = np.array(ts, dtype=float).reshape(-1)
        frames, k, dk = self._spine(s)
        k, dk = k.T[:, None, :], dk.T[:, None, :]
        gamma = self.curve.point(s)
        marching = np.stack(self.marching.values(t))[:, :, None]
        bad = ~np.isfinite(marching).all(axis=(0, 2))
        if bad.any():  # an unchecked sum or product overflowed
            raise EvalDomainError(
                f"marching scale is not finite at t = {float(t[bad.argmax()])!r}")
        A, B, dA, dB, ddA, ddB = marching

        with np.errstate(all="ignore"):  # a non-finite form is refused below
            co = _coefficients(k, dk, A, B, dA, dB)
            E, G = metric(co, dA, dB)
            q1, q2, sigma, rho2 = form_numerators(k, co, dA, dB, ddA, ddB)
            sqrt_e, sqrt_g = np.sqrt(E), np.sqrt(G)
            raw = dict(E=E, G=G, W2=E * G, c1_11=q1 / sqrt_g, c1_22=q2 / sqrt_g,
                       c2_11=sigma / sqrt_e, c2_12=rho2 / sqrt_e)
        status = _regularity(E, G)
        irregular = status != OK
        forms = FundamentalForms(**{name: np.where(irregular, np.nan, value)
                                    for name, value in raw.items()})
        points = _point(gamma, frames[:, 1], frames[:, 3], A, B)
        if not all(np.isfinite(value).all() for value in raw.values()):  # 0/0 or overflow
            finite = np.isfinite(np.broadcast_arrays(*raw.values())).all(axis=0)
            bad = ~(irregular | finite)
            if bad.any():
                it, i_s = np.unravel_index(bad.argmax(), bad.shape)
                raise EvalDomainError("fundamental forms are not finite at (s, t) = "
                                      f"({float(s[i_s])!r}, {float(t[it])!r})")
        return Sweep(s=s, t=t, frames=frames, k=k, dk=dk, marching=marching, points=points,
                     status=status, forms=forms, rho1=q2, rho2=rho2)
