"""Curvature invariants of pencil surfaces.

The primary route assembles Gaussian curvature, normal curvature and the
mean-curvature vector from the fundamental-form coefficients; the direct
closed forms in the a/b shorthand are provided as a second route and the
test suite holds the two together to 1e-10 (they are the same algebra
rearranged).

Flatness checks follow the curve-curvature convention (``source="curve"``):
for a completed degenerate frame the b-coefficient is conventionally zero
there, which is what makes the planar flat-design cases come out flat by
construction.  Everything else defaults to the frame-connection source,
which matches the numerical oracle on every surface including those built
on completed frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pencil import FundamentalForms, PencilSurface, Sweep, _sqrt, form_numerators

__all__ = [
    "CurvatureReport",
    "FlatnessResiduals",
    "report",
    "gaussian",
    "normal_curvature",
    "flatness_residuals",
    "gaussian_closed_form",
    "normal_curvature_closed_form",
    "mean_closed_form",
]

FLATNESS_RESIDUAL_TOL = 1e-9


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
    K_N = (
        f.E * (f.c1_12 * f.c2_22 - f.c2_12 * f.c1_22)
        - f.F * (f.c1_11 * f.c2_22 - f.c2_11 * f.c1_22)
        + f.G * (f.c1_11 * f.c2_12 - f.c2_11 * f.c1_12)
    ) / (w2 * _sqrt(w2))
    H1 = (f.c1_11 * f.G + f.c1_22 * f.E - 2.0 * f.c1_12 * f.F) / (2.0 * w2)
    H2 = (f.c2_11 * f.G + f.c2_22 * f.E - 2.0 * f.c2_12 * f.F) / (2.0 * w2)
    return CurvatureReport(K=K, K_N=K_N, H1=H1, H2=H2, H_norm_sq=H1 * H1 + H2 * H2)


def report(p: PencilSurface, s: float, t: float, source: str = "frame") -> CurvatureReport:
    return invariants_from_forms(p.fundamental_forms(s, t, source))


def gaussian(p: PencilSurface, s: float, t: float, source: str = "frame") -> float:
    return report(p, s, t, source).K


def normal_curvature(p: PencilSurface, s: float, t: float, source: str = "frame") -> float:
    return report(p, s, t, source).K_N


def mean_vector_ambient(p: PencilSurface, s: float, t: float,
                        source: str = "frame") -> np.ndarray:
    """The mean-curvature vector as an ambient E^4 vector (basis free)."""
    r = report(p, s, t, source)
    n1, n2 = p.normal_frame(s, t)
    return r.H1 * n1 + r.H2 * n2


# ---------------------------------------------------------------------------
# Direct closed forms in the a/b shorthand (second route, used in tests)
# ---------------------------------------------------------------------------


def _shorthand(p: PencilSurface, s: float, t: float, source: str):
    _, k, co, (_, _, dA, dB, ddA, ddB), E, G = p._at(s, t, source)
    q1, q2, sigma, rho2 = form_numerators(k, co, dA, dB, ddA, ddB)
    return E, G, q1, q2, rho2, sigma


def gaussian_closed_form(p: PencilSurface, s: float, t: float,
                         source: str = "frame") -> float:
    """K = [E q2 q1 - G rho2^2] / (EG)^2 with the shorthand above."""
    E, G, q1, q2, rho2, _ = _shorthand(p, s, t, source)
    return (E * q2 * q1 - G * rho2 * rho2) / (E * G) ** 2


def normal_curvature_closed_form(p: PencilSurface, s: float, t: float,
                                 source: str = "frame") -> float:
    """K_N = rho2 (G q1 - E q2) / (EG)^2."""
    E, G, q1, q2, rho2, _ = _shorthand(p, s, t, source)
    return rho2 * (G * q1 - E * q2) / (E * G) ** 2


def mean_closed_form(p: PencilSurface, s: float, t: float,
                     source: str = "frame") -> tuple[float, float, float]:
    """H1 = (E q2 + G q1) / (2 E G^{3/2}), H2 = sigma / (2 E^{3/2})."""
    E, G, q1, q2, _, sigma = _shorthand(p, s, t, source)
    h1 = (E * q2 + G * q1) / (2.0 * E * G**1.5)
    h2 = sigma / (2.0 * E**1.5)
    return (h1, h2, h1 * h1 + h2 * h2)


# ---------------------------------------------------------------------------
# Flatness condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FlatnessResiduals:
    """The two residual fields whose joint vanishing forces K = 0:

        rho1(t)    = A' B'' - B' A''
        rho2(s, t) = a b_t - b a_t
    """

    rho1: np.ndarray  # shape (nt,)
    rho2: np.ndarray  # shape (ns, nt)
    t_values: np.ndarray
    s_values: np.ndarray

    @classmethod
    def from_sweep(cls, sw: Sweep) -> "FlatnessResiduals":
        return cls(rho1=sw.rho1[:, 0], rho2=sw.rho2.T, t_values=sw.t, s_values=sw.s)

    @property
    def max_rho1(self) -> float:
        return float(np.max(np.abs(self.rho1)))

    @property
    def max_rho2(self) -> float:
        return float(np.max(np.abs(self.rho2)))

    @property
    def flat(self) -> bool:
        return self.max_rho1 <= FLATNESS_RESIDUAL_TOL and self.max_rho2 <= FLATNESS_RESIDUAL_TOL


def flatness_residuals(
    p: PencilSurface,
    t_values: Sequence[float],
    s_values: Sequence[float],
    source: str = "curve",
) -> FlatnessResiduals:
    """Evaluate both flatness residual fields on the sample sets.

    The default ``source="curve"`` evaluates rho2 with the curve's own
    curvature values (the convention under which a completed planar frame
    has b = 0 identically)."""
    return FlatnessResiduals.from_sweep(p.sweep(list(s_values), list(t_values), source))
