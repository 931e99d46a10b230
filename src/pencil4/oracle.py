"""Independent numerical differential geometry for immersions into E^4.

Works purely from point evaluations of a patch (u, v) -> E^4: derivatives
by central differences with one Richardson extrapolation level (the
resulting 5-point stencils are 4th-order accurate), a normal basis by
Gram-Schmidt over the standard basis vectors, and the curvature invariants
assembled from the measured fundamental-form coefficients.  Nothing here
touches moving frames or expression derivatives: the derivatives, the normals
and the second-form coefficients ``c`` are measured independently of every
closed form in the library.  The last step is shared: the invariants are
assembled by ``curvature.invariants_from_forms``, the same kernel the closed
forms use, so that step is checked against an exact reference in the tests
instead.

Points are measured in batches: the stencil points of up to ``SLICE``
points come from one call of the immersion's evaluator, and every step after
that is an array operation, so a single point is a batch of one.  The
batches are spine-column slices: the points are taken sorted by u, then v,
so a slice spans few distinct u; the report comes back in input order.  The
evaluator is called stencil-major: each stencil node is one (n, 4) plane.

K and ||H||^2 (and the ambient mean-curvature vector) are basis
independent.  The normal curvature depends on the orientation of the
chosen bases; reports carry that orientation so callers can compare values
up to one global sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curvature import invariants_from_forms
from .curve import _dot, gram_schmidt, orthonormal_completion
from .errors import RankDeficiencyError, StepUnderflowError
from .pencil import FundamentalForms

__all__ = [
    "Immersion",
    "OracleReport",
    "ComparisonReport",
    "numeric_forms",
    "compare",
]

DEFAULT_TOLERANCE = 1e-6
_GRAM_TOL = 1e-12
# Most points whose stencils share one evaluator call: bounds the working set
# (the stencil points and the evaluator's temporaries) whatever the batch size.
# 552 is the largest size, in steps of 8, whose traced peak over a 40 x 40
# grid (1.082 MB with numpy 2.4) stays within the 1.089 MB that
# tests/test_oracle.py holds; 560 reaches 1.093 MB.  Such a grid takes 3 calls.
SLICE = 552


@dataclass(frozen=True)
class Immersion:
    """A surface patch given by an evaluator and a rectangular domain.

    ``fn(U, V)`` takes broadcastable arrays of parameters and returns the
    points, shape ``(..., 4)`` over the broadcast shape (floats give one
    point).  The oracle calls it once per slice of at most ``SLICE`` points,
    with U of shape (1, 5, n) and V of shape (5, 1, n): each stencil node is
    an (n, 4) plane, stride-1 per coordinate for component-major points (as
    ``PencilSurface.point_array``'s).  A slice holds points sorted by u
    (spine columns), so its stencils share few distinct u: ``point_array``
    builds one frame per distinct u.

    ``step`` overrides the differencing step; when None the policy
    h = 1e-4 * max(1, |u|, |v|) applies.  Larger steps (~4e-3) push the
    roundoff floor of second derivatives from ~1e-7 down to ~1e-10 and are
    used by flatness certifications.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u_domain: tuple[float, float]
    v_domain: tuple[float, float]
    step: float | None = None

    def step_at(self, u, v):
        if self.step is not None:
            return np.full(np.broadcast(u, v).shape, float(self.step))
        return 1e-4 * np.maximum(np.maximum(1.0, np.abs(u)), np.abs(v))


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Measured fundamental forms and curvature invariants at one point,
    or at each of n points (every field then gains a leading axis n).

    ``c`` has shape (2, 2, 2): c[k-1, i-1, j-1] is the projection of X_ij
    onto the k-th measured normal.  ``orientation`` is the sign of
    det[T1 T2 N1 N2]; k_n * orientation is comparable across points and
    basis choices.  ``error_estimate`` maps quantity names to the observed
    difference between the extrapolated and unextrapolated stencil values
    (NaN where the unextrapolated tangents are degenerate).
    """

    E: float
    F: float
    G: float
    W2: float
    c: np.ndarray
    K: float
    k_n: float
    mean_vector: np.ndarray
    h_norm_sq: float
    orientation: float
    error_estimate: dict

    @property
    def k_n_oriented(self) -> float:
        return self.k_n * self.orientation


_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])  # stencil nodes, in steps h


def numeric_forms(im: Immersion, u, v) -> OracleReport:
    """Fundamental forms and invariants at (u, v) from differencing alone.

    ``u`` and ``v`` are floats (one report of floats) or equal-length 1-D
    arrays (one report of arrays, in their order); a float pairs with every
    element of the other.  The 5 x 5 stencil grids of the points
    (u + i h, v + j h), i, j in -2..2, are evaluated in one ``im.fn`` call
    per slice of at most ``SLICE`` points.  The points are measured in
    spine-column order (sorted by u, then v): a slice then spans few
    distinct u, whose per-u data (a pencil's frames) an evaluator computes
    once per distinct value.

    Raises StepUnderflowError when the 2-step stencil leaves the domain, reaches
    past the largest double or has a step that does not change u or v, and
    RankDeficiencyError when the measured tangents are dependent, at the
    first such point in the order of the input.
    """
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u, v = np.broadcast_arrays(np.atleast_1d(np.asarray(u, dtype=float)),
                               np.atleast_1d(np.asarray(v, dtype=float)))
    h = im.step_at(u, v)
    (u0, u1), (v0, v1) = im.u_domain, im.v_domain
    with np.errstate(over="ignore"):  # reach past the largest double, or a lost step
        outside = ((u - 2 * h < u0) | (u + 2 * h > u1) | (v - 2 * h < v0) | (v + 2 * h > v1)
                   | ~np.isfinite(np.maximum(np.abs(u), np.abs(v)) + 2 * h)
                   | (u + h == u) | (v + h == v))
    if outside.any():
        i = int(np.argmax(outside))
        raise StepUnderflowError(
            f"stencil of half-width {2 * float(h[i])!r} does not fit at "
            f"({float(u[i])!r}, {float(v[i])!r})"
        )
    del h, outside  # a slice takes the steps of its own points
    n = u.size
    order = np.lexsort((v, u))
    fields = dict.fromkeys(OracleReport.__dataclass_fields__)
    fault = np.zeros(n, dtype=np.int8)
    for start in range(0, max(n, 1), SLICE):
        at = order[start:start + SLICE]
        rep, fault[at] = _measure(im, u[at], v[at])
        fields = {name: _put(batch, getattr(rep, name), at, n) for name, batch in fields.items()}
        del rep  # freed before the next slice is measured
    if fault.any():
        i = int(np.argmax(fault != 0))
        raise RankDeficiencyError({
            1: "tangent vectors are numerically dependent",
            2: "could not assemble a normal basis",
            3: f"tangent Gram determinant too small: {float(fields['W2'][i])!r}",
        }[int(fault[i])] + f" at ({float(u[i])!r}, {float(v[i])!r})")
    if scalar:
        fields = {name: _unbatch(value) for name, value in fields.items()}
    return OracleReport(**fields)


def _measure(im: Immersion, u: np.ndarray, v: np.ndarray):
    """The batched report of ``numeric_forms`` over one slice of points, and
    the rank fault code per point (0 where there is none).  The stencil
    values are freed once differenced, so the report is assembled without
    them."""
    n, h = u.size, im.step_at(u, v)
    # Y[j, i] = X(u + (i-2) h, v + (j-2) h), an (n, 4) plane
    Y = np.broadcast_to(im.fn((u + _OFFSETS[:, None] * h)[None],
                              (v + _OFFSETS[:, None] * h)[:, None]), (5, 5, n, 4))
    h = h[:, None]
    with np.errstate(all="ignore"):
        # d/dv along every u-line, both levels (each coordinate's planes read
        # unbuffered), then d/du of each level: Richardson of Richardson and
        # plain of plain
        dv = np.empty((2, 5, n, 4))
        for c in range(4):
            np.subtract(Y[4:2:-1, ..., c], Y[:2, ..., c], out=dv[..., c])
        _richardson(dv, 2.0 * h, 4.0 * h)
        x_uv = _diff1(dv[0], h)
        np.subtract(dv[1, 3], dv[1, 1], out=x_uv[1])
        x_uv[1] /= 2.0 * h
        del dv
        # the u- and the v-line of each point, row-contiguous for the report's dots
        lines = np.empty((5, 2, n, 4))
        lines[:, 0], lines[:, 1] = Y[2], Y[:, 2]
        del Y
        (x_u, x_v), (x_uu, x_vv) = (d.swapaxes(0, 1) for d in
                                    (_diff1(lines, h), _diff2(lines, lines[2, 0], h)))
        del lines
        return _report_from_derivatives(x_u, x_v, x_uu, x_uv, x_vv)


def _diff1(line, h: np.ndarray):
    """Central first derivatives from the five values ``line[0..4]`` =
    f(x - 2h), ..., f(x + 2h), on a leading axis of two levels: the
    Richardson value at index 0, the plain one at index 1."""
    return _richardson(line[4:2:-1] - line[:2], 2.0 * h, 4.0 * h)


def _diff2(line, center: np.ndarray, h: np.ndarray):
    """Central second derivatives, as ``_diff1``."""
    return _richardson(line[4:2:-1] - 2.0 * center + line[:2], h * h, 4.0 * h * h)


def _richardson(d: np.ndarray, d_near, d_far):
    """The differences ``d`` = (wide, near) over steps 2h and h, turned in
    place into ((4 lo - wide / d_far) / 3, lo) for lo = near / d_near."""
    d[1] /= d_near
    d[0] /= d_far
    np.subtract(4.0 * d[1], d[0], out=d[0])
    d[0] /= 3.0
    return d


def _put(batch, value, at: np.ndarray, n: int):
    """The report field ``batch`` over all n points (made on first use, a
    dict of them for the error estimates) with one slice's ``value``
    written at the points ``at``."""
    if isinstance(value, dict):
        return {k: _put((batch or {}).get(k), v, at, n) for k, v in value.items()}
    if batch is None:
        batch = np.empty((n,) + value.shape[1:], value.dtype)
    batch[at] = value
    return batch


def _unbatch(value):
    """The first entry of a batched report field."""
    if isinstance(value, dict):
        return {k: _unbatch(v) for k, v in value.items()}
    return float(value[0]) if value.ndim == 1 else value[0]


def _normal_basis(x_u: np.ndarray, x_v: np.ndarray):
    """Orthonormal tangents t1, t2 and normals n1, n2 per point, plus the
    rank fault per point: 1 where the tangents are dependent, 2 where no
    normal basis could be assembled, else 0."""
    (t1, t2), (_, rn) = gram_schmidt((x_u, x_v))
    (n1, n2), found = orthonormal_completion((t1, t2), 2)
    fault = np.where((rn * rn)[:, 0] < _GRAM_TOL, 1, np.where(found != 2, 2, 0))
    return t1, t2, n1, n2, fault


_MINORS = ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3], [1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def _orientation(t1, t2, n1, n2) -> np.ndarray:
    """sign det[t1 t2 n1 n2] per row, by Laplace expansion: the 2 x 2 minors
    of (t1, t2) on rows (i, j) times those of (n1, n2) on the other two,
    signed as the permutation (i, j, k, l)."""
    i, j, sign = _MINORS
    t, n = (a[:, i] * b[:, j] - a[:, j] * b[:, i] for a, b in ((t1, t2), (n1, n2)))
    return np.sign((t * n[:, ::-1]) @ sign)


def _forms(x_u, x_v, x_uu, x_uv, x_vv, n1, n2) -> FundamentalForms:
    """The measured first-form coefficients and c^k_ij = <X_ij, N_k>."""
    E = _dot(x_u, x_u)[..., 0]
    F = _dot(x_u, x_v)[..., 0]
    G = _dot(x_v, x_v)[..., 0]
    c1_11, c1_12, c1_22 = (_dot(d, n1)[..., 0] for d in (x_uu, x_uv, x_vv))
    c2_11, c2_12, c2_22 = (_dot(d, n2)[..., 0] for d in (x_uu, x_uv, x_vv))
    return FundamentalForms(E=E, G=G, W2=E * G - F * F, c1_11=c1_11, c1_22=c1_22,
                            c2_11=c2_11, c2_12=c2_12, F=F, c1_12=c1_12, c2_22=c2_22)


def _report_from_derivatives(x_u, x_v, x_uu, x_uv, x_vv):
    """The report from the measured derivatives, both levels stacked as by
    ``_diff1`` and assembled in one pass over the Richardson normals, and the
    rank fault code per point: that of ``_normal_basis``, or 3 where W2 is
    too small.  The plain level gives only the truncation estimates."""
    t1, t2, n1, n2, fault = _normal_basis(x_u[0], x_v[0])
    f = _forms(x_u, x_v, x_uu, x_uv, x_vv, n1, n2)
    inv = invariants_from_forms(f)
    levels = {**vars(f), **vars(inv)}
    degenerate = levels["W2"][1] <= _GRAM_TOL
    est = {name: np.where(degenerate, np.nan, abs(levels[name][0] - levels[name][1]))
           for name in ("E", "F", "G", "K", "K_N", "H_norm_sq")}
    ext = {name: value[0] for name, value in levels.items()}
    fault = np.where(fault == 0, np.where(ext["W2"] <= _GRAM_TOL, 3, 0), fault)
    c = np.stack([ext[f"c{k}_{ij}"] for k in "12" for ij in ("11", "12", "12", "22")],
                 axis=-1).reshape(-1, 2, 2, 2)
    return OracleReport(
        E=ext["E"], F=ext["F"], G=ext["G"], W2=ext["W2"], c=c, K=ext["K"], k_n=ext["K_N"],
        mean_vector=ext["H1"][:, None] * n1 + ext["H2"][:, None] * n2,
        h_norm_sq=ext["H_norm_sq"], orientation=_orientation(t1, t2, n1, n2), error_estimate=est,
    ), fault


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of matching a closed-form field against the oracle."""

    quantity: str
    max_abs_dev: float
    worst_point: tuple[float, float]
    tolerance: float
    passed: bool
    ratio: float  # median closed/oracle over well-conditioned points
    estimate: float  # oracle truncation estimate at worst_point
    sign: float = 1.0  # global sign applied to the oracle values

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.quantity}: {verdict}  max|dev| = {self.max_abs_dev:.3e} "
            f"(tol {self.tolerance:.1e}; oracle truncation est {self.estimate:.1e}) "
            f"at (s, t) = "
            f"({self.worst_point[0]:.6g}, {self.worst_point[1]:.6g}); "
            f"ratio closed/oracle = {self.ratio:.6g}"
        )


def compare(
    quantity: str,
    closed: Sequence[float],
    oracle_values: Sequence[float],
    points: Sequence[tuple[float, float]],
    estimates: Sequence[float],
    tolerance: float = DEFAULT_TOLERANCE,
    *,
    match_sign: bool = False,
) -> ComparisonReport:
    """Max absolute deviation of ``closed`` against the oracle.

    A point passes when |closed - oracle| <= max(tol, tol * |oracle|).  With
    ``match_sign`` one global sign is granted to the oracle values first
    (normal curvature is defined up to normal-basis orientation).
    ``estimates`` are the oracle's truncation estimates per point; the
    report keeps the one at its worst point (informational only).
    """
    a = np.asarray(closed, dtype=float)
    b = np.asarray(oracle_values, dtype=float)
    if a.shape != b.shape or len(a) != len(points):
        raise ValueError("field shapes disagree")
    sign = 1.0
    if match_sign and np.max(np.abs(b)) > 0:
        if np.max(np.abs(a - b)) > np.max(np.abs(a + b)):
            sign = -1.0
    dev = np.abs(a - sign * b)
    with np.errstate(over="ignore", invalid="ignore"):  # tol |b| can overflow, dev be inf
        limits = np.maximum(tolerance, tolerance * np.abs(b))
        worst = int(np.argmax(np.where(np.isfinite(dev), dev - limits, np.inf)))
    good = np.abs(b) > max(1e-9, 0.01 * float(np.max(np.abs(b)))) if np.max(np.abs(b)) > 0 else np.zeros(len(b), bool)
    ratios = np.sort(a[good] / (sign * b[good]))  # np.median imports numpy.ma; NaN sorts last
    mid = len(ratios) // 2
    ratio = math.nan if not len(ratios) or np.isnan(ratios[-1]) else float(
        ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2)
    return ComparisonReport(
        quantity=quantity,
        max_abs_dev=float(np.max(dev)),
        worst_point=tuple(points[worst]),
        tolerance=tolerance,
        passed=bool(np.all((dev <= limits) & np.isfinite(dev))),
        ratio=ratio,
        sign=sign,
        estimate=float(estimates[worst]),
    )


def grid_max_abs_gaussian(im: Immersion, s_values: Sequence[float],
                          t_values: Sequence[float]) -> float:
    """max |K| measured by the oracle over a grid (flatness certification),
    one ``numeric_forms`` call over every grid point; NaN if any point's K
    is NaN."""
    s_grid, t_grid = np.meshgrid(s_values, t_values)
    K = numeric_forms(im, s_grid.ravel(), t_grid.ravel()).K
    return float(np.max(np.abs(K), initial=0.0))
