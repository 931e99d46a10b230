"""Curvature invariants of pencil surfaces.

The primary route assembles Gaussian curvature, normal curvature and the
mean-curvature vector from the fundamental-form coefficients; the direct
closed forms in the a/b shorthand are provided as a second route and the
test suite holds the two together to 1e-10 (they are the same algebra
rearranged).  Both read one 1x1 ``PencilSurface.sweep`` per point, so an
irregular point raises RegularityViolationError on either route.

Every invariant is read from the connection of the frame the surface is
swept with, so it is a quantity of the surface the points describe and
matches the numerical oracle, completed degenerate frames included.  The
flatness residuals and their verdict are fields of the sweep
(``Sweep.rho1``, ``Sweep.rho2``, ``Sweep.flat``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pencil import FundamentalForms, PencilSurface, form_numerators, metric

__all__ = [
    "CurvatureReport",
    "report",
    "gaussian",
    "normal_curvature",
    "gaussian_closed_form",
    "normal_curvature_closed_form",
    "mean_closed_form",
]


@dataclass(frozen=True)
class CurvatureReport:
    """K, K_N and mean-curvature data at one surface point.

    H1, H2 are the mean-vector components along the pencil normals N1, N2;
    h_norm_sq = H1^2 + H2^2.
    """

    K: float
    K_N: float
    H1: float
    H2: float
    H_norm_sq: float


def invariants_from_forms(f: FundamentalForms) -> CurvatureReport:
    """Assemble the invariants from closed-form or measured coefficients,
    scalars or arrays; the only place K, K_N and the mean vector are
    assembled.  With c^k_ij = <X_ij, N_k> for orthonormal normals N1, N2
    and W2 = EG - F^2, K_N is the commutator of the two shape operators,

        K_N = [E (c1_12 c2_22 - c2_12 c1_22) - F (c1_11 c2_22 - c2_11 c1_22)
               + G (c1_11 c2_12 - c2_11 c1_12)] / W2^{3/2},

    whose sign follows the orientation of (X_s, X_t, N1, N2)."""
    w2 = f.W2
    K = (
        (f.c1_11 * f.c1_22 - f.c1_12 * f.c1_12)
        + (f.c2_11 * f.c2_22 - f.c2_12 * f.c2_12)
    ) / w2
    root = np.sqrt(w2)
    with np.errstate(over="ignore"):  # W2^{3/2} overflows where K_N need not: divide twice
        den = w2 * root
    big = np.isinf(den) & np.isfinite(w2)
    K_N = (
        f.E * (f.c1_12 * f.c2_22 - f.c2_12 * f.c1_22)
        - f.F * (f.c1_11 * f.c2_22 - f.c2_11 * f.c1_22)
        + f.G * (f.c1_11 * f.c2_12 - f.c2_11 * f.c1_12)
    ) / np.where(big, w2, den) / np.where(big, root, 1.0)
    H1 = 0.5 * (f.c1_11 * f.G + f.c1_22 * f.E - 2.0 * f.c1_12 * f.F) / w2  # 2 W2 can overflow
    H2 = 0.5 * (f.c2_11 * f.G + f.c2_22 * f.E - 2.0 * f.c2_12 * f.F) / w2
    return CurvatureReport(K=K, K_N=K_N, H1=H1, H2=H2, H_norm_sq=H1 * H1 + H2 * H2)


def report(p: PencilSurface, s: float, t: float) -> CurvatureReport:
    return invariants_from_forms(p.fundamental_forms(s, t))


def gaussian(p: PencilSurface, s: float, t: float) -> float:
    return report(p, s, t).K


def normal_curvature(p: PencilSurface, s: float, t: float) -> float:
    return report(p, s, t).K_N


def mean_vector_ambient(p: PencilSurface, s: float, t: float) -> np.ndarray:
    """The mean-curvature vector as an ambient E^4 vector (basis free)."""
    sw = p.sweep([s], [t]).require_regular()
    r = invariants_from_forms(sw.forms)
    n1, n2 = sw.normal_frame()
    return (r.H1[..., None] * n1 + r.H2[..., None] * n2)[0, 0]


# ---------------------------------------------------------------------------
# Direct closed forms in the a/b shorthand (second route, used in tests)
# ---------------------------------------------------------------------------


def _shorthand(p: PencilSurface, s: float, t: float):
    """(E, G, q1, q2, sigma, rho2) at one regular point, as floats."""
    sw = p.sweep([s], [t]).require_regular()
    co, (dA, dB, ddA, ddB) = sw.coefficients(), sw.marching[2:]
    return [x.item() for x in (*metric(co, dA, dB),
                               *form_numerators(sw.k, co, dA, dB, ddA, ddB))]


def gaussian_closed_form(p: PencilSurface, s: float, t: float) -> float:
    """K = [E q2 q1 - G rho2^2] / (EG)^2 with the shorthand above."""
    E, G, q1, q2, _, rho2 = _shorthand(p, s, t)
    return (E * q2 * q1 - G * rho2 * rho2) / (E * G) ** 2


def normal_curvature_closed_form(p: PencilSurface, s: float, t: float) -> float:
    """K_N = rho2 (G q1 - E q2) / (EG)^2."""
    E, G, q1, q2, _, rho2 = _shorthand(p, s, t)
    return rho2 * (G * q1 - E * q2) / (E * G) ** 2


def mean_closed_form(p: PencilSurface, s: float, t: float) -> tuple[float, float, float]:
    """H1 = (E q2 + G q1) / (2 E G^{3/2}), H2 = sigma / (2 E^{3/2})."""
    E, G, q1, q2, sigma, _ = _shorthand(p, s, t)
    h1 = (E * q2 + G * q1) / (2.0 * E * G**1.5)
    h2 = sigma / (2.0 * E**1.5)
    return (h1, h2, h1 * h1 + h2 * h2)

