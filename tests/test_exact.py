"""Closed forms and oracle against the exact 50-digit reference of
``exact.py``, which shares no formula with either."""

import math

import numpy as np
import pytest
from mpmath import mp

import exact
from pencil4 import curvature as cu
from pencil4 import curve as cv
from pencil4 import families as fam
from pencil4 import oracle as orc
from pencil4 import pencil as pc
from test_curve import _num, make_involute

SQ3 = math.sqrt(3.0)
SEED = (SQ3 / 2, 0.25, 1.0, 2.0)
# a second W-curve, a^2 c^2 + b^2 d^2 = 1 by construction
TH, C2, D2 = 0.7, 0.9, 1.7
SECOND = (math.cos(TH) / C2, math.sin(TH) / D2, C2, D2)

# (A, B) as pencil4 expressions and as mpmath functions
POLY = ("t", "t^2", lambda t: t, lambda t: t**2)
MIXED = ("0.8*t + 0.3*t^2", "t^2 - 0.2*sin(t)",
         lambda t: mp.mpf("0.8") * t + mp.mpf("0.3") * t**2,
         lambda t: t**2 - mp.mpf("0.2") * mp.sin(t))


def pencil(spine, marching, domain=(-0.3, 0.3)):
    return pc.PencilSurface(spine, pc.MarchingScale.from_expressions(*marching[:2], domain))


def twin(a, b, c, d):
    """The W-curve (a, b, c, d) written as four expressions in s."""
    return cv.AnalyticCurve.from_strings(
        [f"{_num(a)}*cos({_num(c)}*s)", f"{_num(a)}*sin({_num(c)}*s)",
         f"{_num(b)}*cos({_num(d)}*s)", f"{_num(b)}*sin({_num(d)}*s)"], (0.0, 2 * math.pi))


def sample(n, seed):
    rng = np.random.default_rng(seed)
    return list(zip(rng.uniform(0.1, 6.1, n).tolist(), rng.uniform(-0.28, 0.28, n).tolist()))


def assert_matches(got, want, tol):
    assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)


# The pencil normals make (X_s, X_t, N1, N2) negatively oriented, so the
# library's K_N is minus the reference's positively oriented one.


@pytest.mark.parametrize("params, marching", [(SEED, POLY), (SECOND, MIXED)])
def test_closed_forms_match_reference(params, marching):
    p = pencil(cv.WCurve(*params), marching)
    X = exact.w_curve_pencil(*params, *marching[2:])
    for s, t in sample(10, 3):
        ref = exact.invariants(X, s, t)
        rep = cu.report(p, s, t)
        assert_matches(rep.K, ref.K, 1e-10)
        assert_matches(rep.K_N, -ref.K_N, 1e-10)
        assert_matches(rep.H_norm_sq, ref.H_norm_sq, 1e-10)
        assert_matches(cu.gaussian_closed_form(p, s, t), ref.K, 1e-10)
        assert_matches(cu.normal_curvature_closed_form(p, s, t), -ref.K_N, 1e-10)
        assert_matches(cu.mean_closed_form(p, s, t)[2], ref.H_norm_sq, 1e-10)


def test_analytic_twin_matches_reference():
    # the twin is the same surface, with its frame and kappa rates from the
    # jets of its components
    p = pencil(twin(*SECOND), MIXED)
    X = exact.w_curve_pencil(*SECOND, *MIXED[2:])
    for s, t in sample(10, 4):
        ref = exact.invariants(X, s, t)
        rep = cu.report(p, s, t)
        assert_matches(rep.K, ref.K, 1e-10)
        assert_matches(rep.K_N, -ref.K_N, 1e-10)
        assert_matches(rep.H_norm_sq, ref.H_norm_sq, 1e-10)


def test_normal_curvature_independent_of_marching_speed():
    # A = t, B = t^2 at t = 0.6 and A = 2t, B = 4t^2 at t = 0.3 reach the
    # same point of the same surface
    spine = cv.WCurve(*SEED)
    slow = cu.report(pencil(spine, POLY, (-1.0, 1.0)), 0.7, 0.6)
    fast = cu.report(pencil(spine, ("2*t", "4*t^2"), (-1.0, 1.0)), 0.7, 0.3)
    ref = exact.invariants(exact.w_curve_pencil(*SEED, *POLY[2:]), 0.7, 0.6)
    for rep in (slow, fast):
        assert_matches(rep.K_N, 5.631417005546989, 1e-12)
        assert_matches(rep.K_N, -ref.K_N, 1e-12)
        assert_matches(rep.K, ref.K, 1e-12)
        assert_matches(rep.H_norm_sq, ref.H_norm_sq, 1e-12)


def test_ruled_pencil_matches_reference_over_t():
    # the ruled pencil A = B = t/sqrt(2) over its whole t range, not only at
    # t = 0, where W = 1 would hide any normalization
    p = fam.ruled_pencil(cv.WCurve(*SEED), (0.0, 0.5))
    X = exact.w_curve_pencil(*SEED, lambda t: t / mp.sqrt(2), lambda t: t / mp.sqrt(2))
    for s, t in zip(np.linspace(0.3, 5.9, 10).tolist(), np.linspace(0.0, 0.45, 10).tolist()):
        ref = exact.invariants(X, s, t)
        rep = cu.report(p, s, t)
        assert_matches(rep.K, ref.K, 1e-10)
        assert_matches(rep.K_N, -ref.K_N, 1e-10)


def test_oracle_matches_reference():
    p = pencil(cv.WCurve(*SECOND), MIXED)
    X = exact.w_curve_pencil(*SECOND, *MIXED[2:])
    pts = sample(6, 5)
    s, t = (np.array(x) for x in zip(*pts))
    rep = orc.numeric_forms(orc.Immersion(p.point_array, (0.0, 2 * math.pi), (-0.3, 0.3)), s, t)
    sign = None
    for i, (si, ti) in enumerate(pts):
        ref = exact.invariants(X, si, ti)
        assert_matches(rep.K[i], ref.K, orc.DEFAULT_TOLERANCE)
        assert_matches(rep.h_norm_sq[i], ref.H_norm_sq, orc.DEFAULT_TOLERANCE)
        # one sign over all points: the orientation of the measured bases
        sign = sign or math.copysign(1.0, rep.k_n_oriented[i] * ref.K_N)
        assert_matches(rep.k_n_oriented[i], sign * ref.K_N, orc.DEFAULT_TOLERANCE)


@pytest.mark.parametrize("curve, s", [
    (make_involute(), np.linspace(0.55, 2.45, 20)),
    (twin(*SEED), np.linspace(0.1, 6.1, 20)),
    (twin(*SECOND), np.linspace(0.1, 6.1, 20)),
], ids=["involute", "seed_twin", "second_twin"])
def test_analytic_frames_and_kappa_rates_match_reference(curve, s):
    # the rates that enter a_s and b_s, against 50-digit Gram-Schmidt; the
    # involute's kappas vary with s, the twins' are constant
    frames = cv.frenet_frames(curve, s, rates=True)
    components = [exact.expression_function(e) for e in curve.components]
    for i, x in enumerate(s.tolist()):
        ref = exact.curve_frenet(components, x)
        assert np.abs(frames.frame[i] - np.array(ref.frame, dtype=float)).max() <= 1e-13
        assert np.abs(frames.kappas[i] - np.array(ref.kappas, dtype=float)).max() <= 1e-13
        rates = np.array(exact.kappa_rates(components, x), dtype=float)
        assert np.abs(frames.rates[i] - rates).max() <= 1e-12, (x, frames.rates[i], rates)
    sw = pencil(curve, MIXED).sweep(s, [0.1])
    assert np.array_equal(sw.dk[:, 0].T, frames.rates)
