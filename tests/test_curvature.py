"""Tests for curvature invariants: route equivalence, oracle agreement,
flatness soundness, orientation behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil4 import curvature as cu
from pencil4 import curve as cv
from pencil4 import families as fam
from pencil4 import oracle as orc
from pencil4 import pencil as pc
from pencil4.errors import RegularityViolationError
from test_curve import _num

SQ3 = math.sqrt(3.0)
SEED_CURVE = cv.WCurve(SQ3 / 2, 0.25, 1.0, 2.0)
K1 = math.sqrt(7.0) / 2.0
K2 = 3.0 * SQ3 / (2.0 * math.sqrt(7.0))
K3 = 4.0 / math.sqrt(7.0)


def poly_pencil():
    return pc.PencilSurface(
        SEED_CURVE, pc.MarchingScale.from_expressions("t", "t^2", (-0.3, 0.3))
    )


def random_regular_points(p, rng, n, s_range, t_range):
    pts = []
    while len(pts) < n:
        s = float(rng.uniform(*s_range))
        t = float(rng.uniform(*t_range))
        co = p.coefficients(s, t)
        if co.a**2 + co.b**2 > 1e-4:
            pts.append((s, t))
    return pts


class TestGaussian:
    def test_equal_curvature_diagonal_marching_flat(self):
        w = fam.w_curve_with_equal_curvatures(1.0, 3.0)
        p = pc.PencilSurface(w, pc.MarchingScale.from_expressions("t", "t", (-0.2, 0.3)))
        for s in np.linspace(0.0, 2.0, 5):
            for t in np.linspace(-0.15, 0.25, 5):
                assert abs(cu.gaussian(p, float(s), float(t))) < 1e-12

    def test_ruled_seed_value_at_spine(self):
        p = fam.ruled_pencil(SEED_CURVE, (-0.2, 0.5))
        want = -((K2 - K3) ** 2) / 2.0
        assert cu.gaussian(p, 1.3, 0.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(-0.140385, abs=1e-6)

    def test_both_residuals_zero_implies_flat(self):
        # marching with rho1 == 0 (affine pair) on an equal-curvature curve
        w = fam.w_curve_with_equal_curvatures(1.0, 3.0)
        p = pc.PencilSurface(
            w, pc.MarchingScale.from_expressions("0.7*t", "0.7*t", (-0.2, 0.3))
        )
        res = p.sweep(np.linspace(0, 2, 5), np.linspace(-0.15, 0.25, 9))
        assert res.flat
        for s in np.linspace(0.0, 2.0, 5):
            for t in np.linspace(-0.15, 0.25, 5):
                assert abs(cu.gaussian(p, float(s), float(t))) < 1e-8


class TestRouteEquivalence:
    def test_gaussian_two_routes(self):
        p = poly_pencil()
        rng = np.random.default_rng(17)
        for s, t in random_regular_points(p, rng, 60, (0.0, 6.0), (-0.28, 0.28)):
            via_coeffs = cu.gaussian(p, s, t)
            via_closed = cu.gaussian_closed_form(p, s, t)
            assert via_closed == pytest.approx(via_coeffs, abs=1e-10)

    def test_normal_curvature_two_routes(self):
        p = poly_pencil()
        rng = np.random.default_rng(18)
        for s, t in random_regular_points(p, rng, 60, (0.0, 6.0), (-0.28, 0.28)):
            via_coeffs = cu.normal_curvature(p, s, t)
            via_closed = cu.normal_curvature_closed_form(p, s, t)
            assert via_closed == pytest.approx(via_coeffs, abs=1e-10)

    def test_mean_two_routes(self):
        p = poly_pencil()
        rng = np.random.default_rng(19)
        for s, t in random_regular_points(p, rng, 60, (0.0, 6.0), (-0.28, 0.28)):
            h1, h2, hns = cu.mean_closed_form(p, s, t)
            rep = cu.report(p, s, t)
            assert h1 == pytest.approx(rep.H1, abs=1e-10)
            assert h2 == pytest.approx(rep.H2, abs=1e-10)
            assert hns == pytest.approx(rep.H_norm_sq, abs=1e-10)

    def test_routes_agree_on_ruled_pencil(self):
        p = fam.ruled_pencil(SEED_CURVE, (-0.2, 0.6))
        for s in np.linspace(0.0, 5.0, 7):
            for t in np.linspace(-0.15, 0.55, 7):
                assert cu.gaussian_closed_form(p, float(s), float(t)) == pytest.approx(
                    cu.gaussian(p, float(s), float(t)), abs=1e-10
                )


class TestMeanVector:
    def test_w_curve_mean_lies_along_first_normal(self):
        p = poly_pencil()
        for s, t in [(0.3, 0.1), (2.5, -0.2), (5.0, 0.25)]:
            rep = cu.report(p, s, t)
            assert rep.H2 == 0.0
            assert rep.H_norm_sq == pytest.approx(rep.H1**2, abs=1e-15)

    def test_ruled_mean_at_spine(self):
        p = fam.ruled_pencil(SEED_CURVE, (-0.2, 0.5))
        rep = cu.report(p, 0.4, 0.0)
        assert rep.H1 == pytest.approx(-K1 / (2.0 * math.sqrt(2.0)), abs=1e-12)
        assert rep.H1 == pytest.approx(-0.467707, abs=1e-6)

    def test_minimal_point_exists_on_sign_change(self):
        # H1 changes sign along t for this marching; bisect to the minimal
        # point and confirm the full mean vector vanishes there.
        p = pc.PencilSurface(
            SEED_CURVE, pc.MarchingScale.from_expressions("t", "-t^2", (-0.3, 0.3))
        )
        s = 0.9

        def h1(t):
            return cu.report(p, s, t).H1

        grid = np.linspace(0.02, 0.295, 40)
        bracket = None
        for lo, hi in zip(grid[:-1], grid[1:]):
            if h1(float(lo)) * h1(float(hi)) < 0.0:
                bracket = (float(lo), float(hi))
                break
        assert bracket is not None, "no H1 sign change found on the scan range"
        lo, hi = bracket
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if h1(lo) * h1(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        t_star = 0.5 * (lo + hi)
        rep = cu.report(p, s, t_star)
        assert abs(rep.H1) < 1e-10
        assert rep.H2 == 0.0
        assert rep.H_norm_sq < 1e-20

    def test_h_norm_sq_is_component_sum(self):
        p = poly_pencil()
        rng = np.random.default_rng(23)
        for s, t in random_regular_points(p, rng, 30, (0.0, 6.0), (-0.28, 0.28)):
            rep = cu.report(p, s, t)
            assert rep.H_norm_sq == pytest.approx(rep.H1**2 + rep.H2**2, abs=1e-15)
            assert rep.H_norm_sq >= 0.0


class TestNormalCurvature:
    def test_zero_when_rho2_vanishes(self):
        w = fam.w_curve_with_equal_curvatures(1.0, 3.0)
        p = pc.PencilSurface(w, pc.MarchingScale.from_expressions("t", "t", (-0.2, 0.3)))
        for s, t in [(0.2, 0.1), (1.5, -0.1)]:
            assert cu.normal_curvature(p, s, t) == pytest.approx(0.0, abs=1e-12)

    def test_ruled_equal_curvature_flat_normal_bundle(self):
        w = fam.w_curve_with_equal_curvatures(1.0, 3.2)
        p = fam.ruled_pencil(w, (0.0, 0.4))
        for s in np.linspace(0.0, 2.0, 5):
            for t in np.linspace(0.0, 0.35, 5):
                assert abs(cu.normal_curvature(p, float(s), float(t))) <= 1e-8

    def test_ruled_seed_value_at_spine(self):
        p = fam.ruled_pencil(SEED_CURVE, (-0.2, 0.5))
        want = -K1 * (K2 - K3) / 2.0
        assert cu.normal_curvature(p, 2.0, 0.0) == pytest.approx(want, abs=1e-12)

    def test_scaled_copy_on_stacked_forms(self):
        # X -> 2^180 X scales E, F, G by 2^360 and c by 2^180, so K_N by 2^-360;
        # W2^{3/2} ~ 2^1080 then overflows where K_N does not.  Stacked on a
        # leading axis with the unscaled forms, which keep their bits.
        f = poly_pencil().sweep(np.linspace(0.3, 5.5, 7), np.linspace(-0.25, 0.25, 4)).forms
        stacked = {}
        for name, value in vars(f).items():
            value = np.broadcast_to(value, f.E.shape)
            power = {"E": 360, "F": 360, "G": 360, "W2": 720}.get(name, 180)
            stacked[name] = np.stack([value, value * 2.0**power])
        assert (stacked["W2"][1] > 2.0**683).all()  # W2^{3/2} > 2^1024
        want = cu.invariants_from_forms(f).K_N
        got = cu.invariants_from_forms(pc.FundamentalForms(**stacked)).K_N
        assert np.array_equal(got[0], want)
        assert np.allclose(got[1] * 2.0**360, want, rtol=1e-15, atol=0.0)


class TestOracleAgreement:
    def test_many_points_many_quantities(self):
        p = poly_pencil()
        im = orc.Immersion(p.point_array, (-0.5, 7.0), (-0.3, 0.3))
        rng = np.random.default_rng(29)
        for s, t in random_regular_points(p, rng, 40, (0.0, 6.0), (-0.25, 0.25)):
            rep_o = orc.numeric_forms(im, s, t)
            rep_c = cu.report(p, s, t)
            assert rep_c.K == pytest.approx(rep_o.K, abs=max(1e-6, 1e-6 * abs(rep_o.K)))
            assert rep_c.H_norm_sq == pytest.approx(
                rep_o.h_norm_sq, abs=max(1e-6, 1e-6 * abs(rep_o.h_norm_sq))
            )
            assert abs(rep_c.K_N) == pytest.approx(
                abs(rep_o.k_n), abs=max(1e-6, 1e-6 * abs(rep_o.k_n))
            )


class TestFlatnessResiduals:
    def test_affine_marching_first_residual_zero(self):
        p = pc.PencilSurface(
            SEED_CURVE, pc.MarchingScale.from_expressions("t", "t", (-0.3, 0.3))
        )
        res = p.sweep([0.0, 1.0], np.linspace(-0.25, 0.25, 9))
        assert res.max_rho1 <= 1e-15

    def test_diagonal_marching_rho2_is_curvature_gap(self):
        # rho2 = a b_t - b a_t collapses to kappa2 - kappa3 for A = B = t
        p = pc.PencilSurface(
            SEED_CURVE, pc.MarchingScale.from_expressions("t", "t", (-0.3, 0.3))
        )
        res = p.sweep(np.linspace(0, 3, 5), np.linspace(-0.25, 0.25, 9))
        assert res.rho2 == pytest.approx(np.full_like(res.rho2, K2 - K3), abs=1e-12)
        assert not res.flat

    def test_secant_design_rho2_vanishes(self):
        c1 = 2.0 / math.sqrt(7.0)
        design = fam.flat_polar_solution("iv", c1, 0.0, SEED_CURVE, (0.8, 1.3))
        res = design.surface.sweep(np.linspace(0.0, 3.0, 5), np.linspace(0.8, 1.3, 9))
        assert res.max_rho2 <= 1e-12
        assert res.flat

    def test_soundness_residuals_imply_flat_gaussian(self):
        # wherever both residuals vanish on a grid, |K| vanishes on it too
        cases = []
        w_eq = fam.w_curve_with_equal_curvatures(1.0, 3.0)
        cases.append(
            pc.PencilSurface(
                w_eq, pc.MarchingScale.from_expressions("t", "t", (-0.2, 0.3))
            )
        )
        c1 = 2.0 / math.sqrt(7.0)
        cases.append(fam.flat_polar_solution("iv", c1, 0.0, SEED_CURVE, (0.8, 1.3)).surface)
        circle = cv.WCurve(1.0, 0.0, 1.0, 1.0)
        cases.append(fam.flat_polar_solution("i", 1.0, 0.0, circle, (1.0, 2.6)).surface)
        for p in cases:
            t_vals = np.linspace(p.marching.domain[0] + 0.01, p.marching.domain[1] - 0.01, 9)
            s_vals = np.linspace(0.0, 3.0, 5)
            res = p.sweep(s_vals, t_vals)
            assert res.flat
            for t in t_vals:
                for s in s_vals:
                    assert abs(cu.gaussian(p, float(s), float(t))) <= 1e-8


class TestIrregularPoints:
    """Both routes refuse a point where a regularity condition fails."""

    @pytest.mark.parametrize("spine, a_text, b_text, domain, s, t, condition", [
        # the singular ray a = b = 0 of a planar circle with A = 1/kappa1
        (cv.WCurve(1.0, 0.0, 1.0, 1.0), "1 + 0*t", "t", (-0.5, 0.5), 0.3, 0.0, "spine"),
        # A' = B' = 0 at t = 0.3, which the construction samples miss
        (SEED_CURVE, "(t - 0.3)^2", "(t - 0.3)^3", (0.0, 1.0), 0.7, 0.3, "marching"),
    ], ids=["singular-ray", "stalled-marching"])
    def test_every_route_names_the_condition(self, spine, a_text, b_text, domain, s, t,
                                             condition):
        p = pc.PencilSurface(spine, pc.MarchingScale.from_expressions(a_text, b_text, domain))
        for fn in (cu.report, cu.gaussian_closed_form, cu.normal_curvature_closed_form,
                   cu.mean_closed_form, cu.mean_vector_ambient):
            with pytest.raises(RegularityViolationError) as ei:
                fn(p, s, t)
            assert (ei.value.condition, ei.value.s, ei.value.t) == (condition, s, t), fn


class TestOrientationBehavior:
    def test_flip_first_normal(self):
        # flipping N1 negates c^1 coefficients: K and |H|^2 stay, K_N flips
        p = poly_pencil()
        f = p.fundamental_forms(1.1, 0.2)
        flipped = pc.FundamentalForms(
            E=f.E, G=f.G, W2=f.W2,
            c1_11=-f.c1_11, c1_22=-f.c1_22, c2_11=f.c2_11, c2_12=f.c2_12,
        )
        a = cu.invariants_from_forms(f)
        b = cu.invariants_from_forms(flipped)
        assert b.K == pytest.approx(a.K, abs=1e-15)
        assert b.H_norm_sq == pytest.approx(a.H_norm_sq, abs=1e-15)
        assert b.K_N == pytest.approx(-a.K_N, abs=1e-15)

    def test_swap_normals(self):
        p = poly_pencil()
        f = p.fundamental_forms(0.7, -0.15)
        swapped = pc.FundamentalForms(
            E=f.E, G=f.G, W2=f.W2,
            c1_11=f.c2_11, c1_22=f.c2_22, c2_11=f.c1_11, c2_12=f.c1_12,
            c1_12=f.c2_12, c2_22=f.c1_22,
        )
        a = cu.invariants_from_forms(f)
        b = cu.invariants_from_forms(swapped)
        assert b.K == pytest.approx(a.K, abs=1e-15)
        assert b.H_norm_sq == pytest.approx(a.H_norm_sq, abs=1e-15)
        assert b.K_N == pytest.approx(-a.K_N, abs=1e-15)

    def test_opposite_frame_gauge_same_surface_invariants(self):
        # The same geometric surface expressed in the flipped V4 gauge is the
        # pencil with B negated over the flipped-frame curve; K and |H|^2
        # agree pointwise, K_N flips.
        p = poly_pencil()
        co = p.coefficients(0.9, 0.2)
        A, B, dA, dB, ddA, ddB = p.marching.values(0.2)
        k1, k2, k3 = K1, K2, K3
        # original shorthand
        q1 = dA * co.b * k3 - dB * (k1 * co.a - k2 * co.b)
        q2 = dA * ddB - dB * ddA
        rho2 = co.a * co.b_t - co.b * co.a_t
        E = co.a**2 + co.b**2
        G = dA**2 + dB**2
        # flipped gauge: kappa3 -> -kappa3 and B -> -B
        b2 = k2 * A - (-k3) * (-B)
        assert b2 == pytest.approx(co.b, abs=1e-15)
        q1_f = dA * b2 * (-k3) - (-dB) * (k1 * co.a - k2 * b2)
        q2_f = dA * (-ddB) - (-dB) * ddA
        bt_f = k2 * dA - (-k3) * (-dB)
        rho2_f = co.a * bt_f - b2 * co.a_t
        K_orig = (E * q2 * q1 - G * rho2**2) / (E * G) ** 2
        K_flip = (E * q2_f * q1_f - G * rho2_f**2) / (E * G) ** 2
        KN_orig = rho2 * (G * q1 - E * q2) / (E * G) ** 2
        KN_flip = rho2_f * (G * q1_f - E * q2_f) / (E * G) ** 2
        assert K_flip == pytest.approx(K_orig, abs=1e-15)
        assert KN_flip == pytest.approx(-KN_orig, abs=1e-15)


class TestReparametrization:
    """K, K_N and |H|^2 are properties of the surface, not of its
    parametrization: t -> lam t + t0 and (W-curves are homogeneous)
    s -> s + s0 leave them unchanged at corresponding points."""

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.floats(0.7, 1.2), ratio=st.floats(1.6, 2.2), th=st.floats(0.45, 1.1),
        lam=st.floats(0.5, 2.0), flip=st.booleans(), t0=st.floats(-0.2, 0.2),
        s0=st.floats(-3.0, 3.0), s=st.floats(0.0, 6.0), u=st.floats(0.05, 0.95),
    )
    def test_invariants_survive_reparametrization(self, c, ratio, th, lam, flip, t0, s0, s, u):
        d = c * ratio
        spine = cv.WCurve(math.cos(th) / c, math.sin(th) / d, c, d)
        lam = -lam if flip else lam
        a_text, b_text = "0.8*t + 0.3*t^2", "t^2 - 0.2*sin(t)"
        p = pc.PencilSurface(spine, pc.MarchingScale.from_expressions(a_text, b_text,
                                                                      (-0.3, 0.3)))
        # the new parameter t' with lam t' + t0 = t
        inner = f"({_num(lam)}*t + {_num(t0)})"
        lo, hi = sorted(((-0.3 - t0) / lam, (0.3 - t0) / lam))
        q = pc.PencilSurface(spine, pc.MarchingScale.from_expressions(
            a_text.replace("t", inner), b_text.replace("t", inner), (lo, hi)))
        t_new = lo + u * (hi - lo)
        t = lam * t_new + t0
        want = cu.report(p, s, t)
        for got in (cu.report(q, s, t_new), cu.report(p, s + s0, t)):
            for name in ("K", "K_N", "H_norm_sq"):
                a, b = getattr(got, name), getattr(want, name)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), name
