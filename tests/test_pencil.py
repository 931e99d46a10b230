"""Tests for pencil surfaces: coefficients, frames, fundamental forms."""

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil4 import curvature as cu
from pencil4 import curve as cv
from pencil4 import expr as ex
from pencil4 import pencil as pc
from pencil4.errors import RegularityViolationError
from support import (
    fd_surface_first_derivatives,
    fd_surface_second_derivatives,
)
from test_curve import INVOLUTE_COMPONENTS, _num, make_involute

SQ3 = math.sqrt(3.0)
SEED_CURVE = cv.WCurve(SQ3 / 2, 0.25, 1.0, 2.0)
K1 = math.sqrt(7.0) / 2.0
K2 = 3.0 * SQ3 / (2.0 * math.sqrt(7.0))
K3 = 4.0 / math.sqrt(7.0)


def poly_pencil(a_text="t", b_text="t^2", t_dom=(-0.3, 0.3)):
    return pc.PencilSurface(SEED_CURVE, pc.MarchingScale.from_expressions(a_text, b_text, t_dom))


def ruled():
    return pc.PencilSurface(
        SEED_CURVE, pc.MarchingScale.from_expressions("t/sqrt(2)", "t/sqrt(2)", (-0.4, 0.6))
    )


class TestMarchingScale:
    def test_zero_marching_rejected(self):
        with pytest.raises(RegularityViolationError) as ei:
            pc.MarchingScale.from_expressions("0", "0", (0.0, 1.0))
        assert ei.value.condition == "marching"

    def test_constant_pair_rejected(self):
        with pytest.raises(RegularityViolationError):
            pc.MarchingScale.from_expressions("1", "2", (0.0, 1.0))

    def test_derivatives_are_exact(self):
        m = pc.MarchingScale.from_expressions("t^2", "sin(t)", (0.0, 1.0))
        A, B, dA, dB, ddA, ddB = m.values(0.5)
        assert dA == pytest.approx(1.0, abs=1e-15)
        assert ddA == pytest.approx(2.0, abs=1e-15)
        assert dB == pytest.approx(math.cos(0.5), abs=1e-15)
        assert ddB == pytest.approx(-math.sin(0.5), abs=1e-15)


class TestCoefficients:
    def test_spine_point(self):
        # A(0) = B(0) = 0 for polynomial marching without constant terms
        p = poly_pencil()
        co = p.coefficients(0.7, 0.0)
        assert co.a == 1.0
        assert co.b == 0.0

    def test_seed_values(self):
        # direct substitution of the generator's curvature constants:
        # a = 1 - k1/10, b = k2/10 - k3/100
        p = poly_pencil()
        co = p.coefficients(0.0, 0.1)
        assert co.a == pytest.approx(0.8677124344467705, abs=1e-12)
        assert co.b == pytest.approx(0.08307947168582748, abs=1e-12)

    def test_w_curve_has_no_s_variation(self):
        p = poly_pencil()
        for s, t in [(0.0, 0.1), (1.3, -0.2), (2.0, 0.25)]:
            co = p.coefficients(s, t)
            assert co.a_s == 0.0
            assert co.b_s == 0.0

    def test_t_partials(self):
        p = poly_pencil()
        co = p.coefficients(0.4, 0.2)
        assert co.a_t == pytest.approx(-K1, abs=1e-12)  # A' = 1
        assert co.b_t == pytest.approx(K2 - K3 * 0.4, abs=1e-12)  # B' = 2t

    def test_analytic_curve_kappa_rates_via_fd(self):
        from test_curve import INVOLUTE_COMPONENTS

        inv = cv.AnalyticCurve.from_strings(INVOLUTE_COMPONENTS, (0.5, 2.5))
        p = pc.PencilSurface(
            inv, pc.MarchingScale.from_expressions("0.1*t", "0.1*t^2", (0.0, 0.4)),
        )
        co = p.coefficients(1.0, 0.2)
        # kappa1(s) = sqrt(5/(8s)) so kappa1'(1) = -sqrt(5/8)/2, exactly up to
        # rounding now that the rates come from the jets
        want = -math.sqrt(5.0 / 8.0) / 2.0
        assert co.a_s == pytest.approx(-want * 0.02, rel=1e-12)


class TestEvalSurface:
    def test_passes_through_spine(self):
        p = pc.PencilSurface(
            SEED_CURVE, pc.MarchingScale.from_expressions("t", "t", (-0.3, 0.3))
        )
        for s in (0.0, 1.1, 2.7):
            x = p.sweep([s], [0.0]).require_regular().points[0, 0]
            assert x == pytest.approx(SEED_CURVE.point(s), abs=1e-15)

    def test_frame_combination(self):
        p = poly_pencil()
        frame = p.frame(0.0).frame[0]
        want = SEED_CURVE.point(0.0) + 0.1 * frame[1] + 0.01 * frame[3]
        got = p.sweep([0.0], [0.1]).require_regular().points[0, 0]
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("curve", [SEED_CURVE, make_involute()])
    def test_point_array_over_arrays_matches_floats(self, curve):
        # + - * / sqrt sin cos only: numpy and math agree bit for bit on those
        p = pc.PencilSurface(curve, pc.MarchingScale.from_expressions(
            "0.7*t + t*t*t", "sin(t) - 0.5*t*t", (-0.3, 0.3)))
        S = np.linspace(0.7, 2.3, 6)[:, None, None] + np.array([-2e-4, 0.0, 2e-4])[:, None]
        T = np.linspace(-0.2, 0.2, 4)[None, None, :]
        got = p.point_array(S, T)
        assert got.shape == (6, 3, 4, 4)
        for idx in np.ndindex(got.shape[:-1]):
            want = p.point_array(float(S[idx[0], idx[1], 0]), float(T[0, 0, idx[2]]))
            assert np.array_equal(got[idx], want)

    @pytest.mark.parametrize("s_shape, t_shape", [
        ((1, 5, 500), (5, 1, 500)),  # oracle stencils: rows gathered, 5 blocks of 2500 values
        ((700,), (3, 1)),            # sweep: every spine row, 3 t-rows in one block
        ((5000,), (2, 1)),           # a t-row longer than a block
        ((), ()),                    # one point
    ])
    def test_blocked_assembly_equals_one_expression(self, s_shape, t_shape):
        # _point gathers each coordinate of the spine rows (at an index array
        # of shape s_shape, or every row for a sweep) and sums it in place,
        # block by block; the bits are those of one expression over the rows
        rng = np.random.default_rng(8)
        sweep = len(s_shape) == 1
        m = s_shape[0] if sweep else 60
        gamma, V2, V4 = (rng.normal(size=(m, 4)) for _ in range(3))
        A, B = (np.asarray(rng.normal(size=t_shape)) for _ in range(2))
        rows = slice(None) if sweep else np.asarray(rng.integers(0, m, size=s_shape))
        got = pc._point(gamma, V2, V4, A, B, rows)
        want = gamma[rows] + A[..., None] * V2[rows] + B[..., None] * V4[rows]
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_spine_regularity_violation(self):
        # On the planar unit circle with A == 1 == 1/kappa1 and B == t the
        # point t = 0 has a = 0 and b = 0: the patch is singular there.
        w = cv.WCurve(1.0, 0.0, 1.0, 1.0)
        m = pc.MarchingScale.from_expressions("1 + 0*t", "t", (-0.5, 0.5))
        p = pc.PencilSurface(w, m)
        with pytest.raises(RegularityViolationError) as ei:
            p.sweep([0.3], [0.0]).require_regular()
        assert ei.value.condition == "spine"
        p.sweep([0.3], [0.2]).require_regular()  # away from the singular ray everything works


class TestTangentFrame:
    def test_diagonal_marching_xt(self):
        p = pc.PencilSurface(
            SEED_CURVE, pc.MarchingScale.from_expressions("t", "t", (-0.3, 0.3))
        )
        frame = p.frame(0.9).frame[0]
        _, x_t = (v[0, 0] for v in p.sweep([0.9], [0.0]).require_regular().tangent_frame())
        assert x_t == pytest.approx(frame[1] + frame[3], abs=1e-12)
        assert np.linalg.norm(x_t) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_orthogonality(self):
        p = poly_pencil()
        x_s, x_t = (v[0, 0] for v in p.sweep([0.9], [0.15]).require_regular().tangent_frame())
        assert abs(x_s.dot(x_t)) < 1e-10

    def test_matches_finite_differences(self):
        p = poly_pencil()
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = float(rng.uniform(0.2, 2.0))
            t = float(rng.uniform(-0.2, 0.2))
            x_s, x_t = (v[0, 0] for v in p.sweep([s], [t]).require_regular().tangent_frame())
            fd_s, fd_t = fd_surface_first_derivatives(p.point_array, s, t, h=1e-5)
            assert x_s == pytest.approx(fd_s, abs=1e-7)
            assert x_t == pytest.approx(fd_t, abs=1e-7)


class TestNormalFrame:
    def test_diagonal_marching_n1(self):
        p = pc.PencilSurface(
            SEED_CURVE, pc.MarchingScale.from_expressions("t", "t", (-0.3, 0.3))
        )
        frame = p.frame(0.4).frame[0]
        n1, _ = (v[0, 0] for v in p.sweep([0.4], [0.1]).require_regular().normal_frame())
        want = (-frame[1] + frame[3]) / math.sqrt(2.0)
        assert n1 == pytest.approx(want, abs=1e-12)

    def test_n2_is_v3_when_b_vanishes(self):
        p = poly_pencil()
        frame = p.frame(1.2).frame[0]
        # b = 0, a = 1 at the spine
        _, n2 = (v[0, 0] for v in p.sweep([1.2], [0.0]).require_regular().normal_frame())
        assert n2 == pytest.approx(frame[2], abs=1e-12)

    def test_gram_matrix(self):
        p = poly_pencil()
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = float(rng.uniform(0.0, 2.5))
            t = float(rng.uniform(-0.25, 0.25))
            sw = p.sweep([s], [t]).require_regular()
            x_s, x_t = (v[0, 0] for v in sw.tangent_frame())
            n1, n2 = (v[0, 0] for v in sw.normal_frame())
            forms = p.fundamental_forms(s, t)
            vecs = [x_s, x_t, n1, n2]
            gram = np.array([[u @ v for v in vecs] for u in vecs])
            want = np.diag([forms.E, forms.G, 1.0, 1.0])
            assert np.max(np.abs(gram - want)) < 1e-10


class TestFundamentalForms:
    def test_seed_first_form(self):
        p = poly_pencil()
        f = p.fundamental_forms(0.0, 0.1)
        assert f.E == pytest.approx(0.7598270675091371, abs=1e-10)
        assert f.F == 0.0
        assert f.G == pytest.approx(1.04, abs=1e-12)
        assert f.W2 == pytest.approx(f.E * f.G, abs=1e-12)

    def test_ruled_coefficients_at_spine(self):
        p = ruled()
        f = p.fundamental_forms(0.8, 0.0)
        assert f.c1_11 == pytest.approx(-K1 / math.sqrt(2.0), abs=1e-12)
        assert f.c1_22 == pytest.approx(0.0, abs=1e-15)
        assert f.c2_12 == pytest.approx((K2 - K3) / math.sqrt(2.0), abs=1e-12)

    def test_w_curve_c211_vanishes(self):
        p = poly_pencil()
        for s, t in [(0.3, 0.1), (1.9, -0.2)]:
            f = p.fundamental_forms(s, t)
            assert f.c2_11 == 0.0

    def test_f_numerically_zero(self):
        p = poly_pencil()
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = float(rng.uniform(0.0, 3.0))
            t = float(rng.uniform(-0.25, 0.25))
            x_s, x_t = (v[0, 0] for v in p.sweep([s], [t]).require_regular().tangent_frame())
            assert abs(x_s.dot(x_t)) < 1e-10

    def test_xss_reconstruction_matches_fd(self):
        p = poly_pencil()
        for s, t in [(0.5, 0.1), (1.7, -0.15)]:
            want = p.sweep([s], [t]).second_derivative_s()[0, 0]
            x_uu, _, _ = fd_surface_second_derivatives(p.point_array, s, t, h=1e-3)
            assert want == pytest.approx(x_uu, abs=1e-6)

    def test_structural_zero_c112(self):
        # <X_st, N1> vanishes identically; checked with differenced X_st
        # against the closed-form normal.
        p = poly_pencil()
        for s, t in [(0.4, 0.12), (2.1, -0.18)]:
            _, x_uv, _ = fd_surface_second_derivatives(p.point_array, s, t, h=3e-3)
            n1, _ = (v[0, 0] for v in p.sweep([s], [t]).require_regular().normal_frame())
            assert abs(float(x_uv @ n1)) < 1e-9

    def test_all_coefficients_match_fd_projections(self):
        from pencil4 import families as fam

        seeds = [
            poly_pencil(),
            pc.PencilSurface(SEED_CURVE,
                             fam.polar_marching(ex.parse("0.3 + 0.1*t^2", "t"), (0.05, 1.0))),
        ]
        rng = np.random.default_rng(6)
        for p in seeds:
            t_lo, t_hi = p.marching.domain
            for _ in range(100):
                s = float(rng.uniform(0.2, 2.6))
                t = float(rng.uniform(t_lo + 0.02, t_hi - 0.02))
                f = p.fundamental_forms(s, t)
                x_uu, x_uv, x_vv = fd_surface_second_derivatives(p.point_array, s, t, h=1e-3)
                n1a, n2a = (v[0, 0]
                            for v in p.sweep([s], [t]).require_regular().normal_frame())
                assert f.c1_11 == pytest.approx(float(x_uu @ n1a), abs=1e-7)
                assert f.c1_22 == pytest.approx(float(x_vv @ n1a), abs=1e-7)
                assert f.c2_11 == pytest.approx(float(x_uu @ n2a), abs=1e-7)
                assert f.c2_12 == pytest.approx(float(x_uv @ n2a), abs=1e-7)
                assert abs(float(x_uv @ n1a)) < 1e-7  # c1_12 = 0
                assert abs(float(x_vv @ n2a)) < 1e-7  # c2_22 = 0

    def test_vranceanu_frame_source_matches_geometry(self):
        # On a completed frame the connection coefficients, not the curve
        # curvatures, describe the actual frame derivatives.
        w = cv.WCurve(0.6, 0.8, 1.0, 1.0)
        p = pc.PencilSurface(
            w, pc.MarchingScale.from_expressions("0.2*t", "0.1*t^2 + 0.05*t", (-0.4, 0.4))
        )
        for s, t in [(0.5, 0.2), (1.4, -0.3)]:
            x_s, x_t = (v[0, 0] for v in p.sweep([s], [t]).require_regular().tangent_frame())
            fd_s, fd_t = fd_surface_first_derivatives(p.point_array, s, t, h=1e-5)
            assert x_s == pytest.approx(fd_s, abs=1e-7)
            assert x_t == pytest.approx(fd_t, abs=1e-7)
            # the rotating completion makes b != 0 in truth
            co_frame = p.coefficients(s, t)
            assert co_frame.b != 0.0


INVOLUTE = make_involute()


class TestSweep:
    """A grid sweep against its 1x1 sweeps, field by field, bit for bit."""

    @staticmethod
    def cell(sw, it, i_s):
        """Every field of ``sw`` (and of its per-point views) at the grid
        point (it, i_s), in the shapes a 1x1 sweep holds them."""
        T, S = slice(it, it + 1), slice(i_s, i_s + 1)
        fields = {"s": sw.s[S], "t": sw.t[T], "frames": sw.frames[S], "k": sw.k[..., S],
                  "dk": sw.dk[..., S], "marching": sw.marching[:, T],
                  "points": sw.points[T, S], "status": sw.status[T, S],
                  "rho1": sw.rho1[T], "rho2": sw.rho2[T, S]}
        assert set(fields) | {"forms"} == {f.name for f in dataclasses.fields(pc.Sweep)}
        views = {"forms": sw.forms, "coefficients": sw.coefficients()}
        for view, value in views.items():
            for f in dataclasses.fields(value):
                v = getattr(value, f.name)
                fields[f"{view}.{f.name}"] = v[T, S] if np.ndim(v) else v
        for view in ("tangent_frame", "normal_frame"):
            for i, v in enumerate(getattr(sw, view)()):
                fields[f"{view}[{i}]"] = v[T, S]
        fields["second_derivative_s"] = sw.second_derivative_s()[T, S]
        return fields

    def assert_grid_is_its_points(self, p, ss, ts):
        sw = p.sweep(ss, ts)
        assert sw.points.shape == (len(ts), len(ss), 4)
        assert sw.status.shape == sw.forms.E.shape == sw.rho2.shape == (len(ts), len(ss))
        S, T = np.meshgrid(ss, ts)
        assert np.array_equal(p.point_array(S, T), sw.points)
        K = cu.invariants_from_forms(sw.forms).K
        for it, t in enumerate(ts):
            for i_s, s in enumerate(ss):
                one = p.sweep([s], [t])
                got, want = self.cell(sw, it, i_s), self.cell(one, 0, 0)
                for name in want:
                    assert np.array_equal(got[name], want[name], equal_nan=True), (name, s, t)
                if sw.status[it, i_s] == pc.OK:
                    assert one.require_regular() is one
                    continue
                with pytest.raises(RegularityViolationError) as ei:
                    one.require_regular()
                assert (ei.value.condition, ei.value.s, ei.value.t) == (
                    pc.CONDITIONS[sw.status[it, i_s]], s, t)
                assert math.isnan(sw.forms.E[it, i_s]) and math.isnan(K[it, i_s])

    @settings(max_examples=25, deadline=None)
    @given(
        spine=st.sampled_from(["w_curve", "analytic_twin", "involute"]),
        c=st.floats(0.7, 1.2), ratio=st.floats(1.6, 2.2), th=st.floats(0.45, 1.1),
        s0=st.floats(0.6, 1.0), a1=st.floats(0.6, 1.0), a2=st.floats(-0.5, 0.5),
        b1=st.floats(0.5, 1.5), b2=st.floats(-0.3, 0.3),
    )
    def test_every_field_matches_scalar_route(self, spine, c, ratio, th, s0,
                                              a1, a2, b1, b2):
        d = c * ratio
        a, b = math.cos(th) / c, math.sin(th) / d
        s_dom = (s0, s0 + 1.5)
        if spine == "w_curve":
            curve = cv.WCurve(a, b, c, d)
        elif spine == "analytic_twin":
            curve = cv.AnalyticCurve.from_strings(
                [f"{_num(a)}*cos({_num(c)}*s)", f"{_num(a)}*sin({_num(c)}*s)",
                 f"{_num(b)}*cos({_num(d)}*s)", f"{_num(b)}*sin({_num(d)}*s)"], s_dom)
        else:  # kappas vary with s, so the kappa rates are nonzero
            curve = INVOLUTE
        marching = pc.MarchingScale.from_expressions(
            f"{_num(a1)}*t + {_num(a2)}*t^2", f"{_num(b1)}*t^2 + {_num(b2)}*sin(t)",
            (-0.25, 0.25))
        ss = np.linspace(*s_dom, 5).tolist()
        ts = np.linspace(-0.25, 0.25, 4).tolist()
        self.assert_grid_is_its_points(pc.PencilSurface(curve, marching),
                                       ss, ts)

    def test_singular_ray_is_a_status_not_an_error(self):
        w = cv.WCurve(1.0, 0.0, 1.0, 1.0)
        m = pc.MarchingScale.from_expressions("1 + 0*t", "t", (-0.5, 0.5))
        ts = [-0.2, 0.0, 0.3]
        self.assert_grid_is_its_points(pc.PencilSurface(w, m), [0.0, 0.3, 1.0], ts)
        sw = pc.PencilSurface(w, m).sweep([0.0, 0.3, 1.0], ts)
        assert sw.status.tolist() == [[0, 0, 0], [pc.SPINE] * 3, [0, 0, 0]]
        with pytest.raises(RegularityViolationError) as ei:
            sw.require_regular()
        assert (ei.value.condition, ei.value.s, ei.value.t) == ("spine", 0.0, 0.0)

    def test_stalled_marching_is_a_status_not_an_error(self):
        # A' = B' = 0 at t = 0.3, which the 64 construction samples miss
        m = pc.MarchingScale.from_expressions("(t - 0.3)^2", "(t - 0.3)^3", (0.0, 1.0))
        ts = [0.1, 0.3, 0.5]
        self.assert_grid_is_its_points(pc.PencilSurface(SEED_CURVE, m), [0.0, 2.0], ts)
        sw = pc.PencilSurface(SEED_CURVE, m).sweep([0.0, 2.0], ts)
        assert sw.status.tolist() == [[0, 0], [pc.MARCHING] * 2, [0, 0]]


class TestPointViews:
    """Every point-wise quantity is read from one sweep over a 1x1 grid."""

    @pytest.mark.parametrize("curve", [SEED_CURVE, INVOLUTE])
    def test_one_frame_batch_per_call(self, curve, monkeypatch):
        batches = []

        def counted(*args, **kwargs):
            batches.append(args)
            return cv.frenet_frames(*args, **kwargs)

        monkeypatch.setattr(pc, "frenet_frames", counted)
        p = pc.PencilSurface(curve, pc.MarchingScale.from_expressions(
            "0.8*t + 0.1*t^2", "t^2 + 0.2*sin(t)", (-0.3, 0.3)))
        calls = [p.coefficients, p.fundamental_forms]
        calls += [functools.partial(fn, p) for fn in (
            cu.report, cu.gaussian_closed_form, cu.normal_curvature_closed_form,
            cu.mean_closed_form, cu.mean_vector_ambient)]
        for call in calls:
            batches.clear()
            call(1.1, 0.2)
            assert len(batches) == 1, call


class TestKernelInvariance:
    """The sweep's invariants are geometric: a rigid motion of E^4 or a
    reversal of the spine moves the points and keeps K, |H|^2 and K_N (the
    latter up to the orientation of the motion).  The oracle's counterpart
    is ``TestBasisIndependence``; here the spine itself is moved."""

    SS = np.linspace(0.6, 2.4, 7)
    TS = np.linspace(-0.3, 0.3, 5)
    A, B = "0.8*t + 0.1*t^2", "t^2 + 0.2*sin(t)"

    def invariants(self, curve, ss, b_text):
        marching = pc.MarchingScale.from_expressions(self.A, b_text, (-0.3, 0.3))
        sw = pc.PencilSurface(curve, marching).sweep(ss, self.TS).require_regular()
        return sw.points, cu.invariants_from_forms(sw.forms)

    @staticmethod
    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))

    @settings(max_examples=20, deadline=None)
    @given(m=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16), reflect=st.booleans(),
           shift=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    def test_rigid_motion(self, m, reflect, shift):
        # Q gamma + c has frames Q V1..Q V3 and, by the det = +1 sign fix,
        # det(Q) Q V4: with B -> -B when det Q = -1 the pencil is Q X + c,
        # and K_N follows the orientation of Q
        q, _ = np.linalg.qr(np.array(m).reshape(4, 4))
        if reflect:
            q[:, 0] = -q[:, 0]
        det = round(float(np.linalg.det(q)))
        parsed = [ex.parse(text, "s") for text in INVOLUTE_COMPONENTS]
        moved = cv.AnalyticCurve(tuple(
            sum(float(q[i, j]) * parsed[j] for j in range(4)) + shift[i] for i in range(4)
        ), INVOLUTE.domain)
        x, inv = self.invariants(INVOLUTE, self.SS, self.B)
        y, inv_moved = self.invariants(moved, self.SS, self.B if det > 0 else f"-({self.B})")
        self.assert_close(y, x @ q.T + np.array(shift))
        self.assert_close(inv_moved.K, inv.K)
        self.assert_close(inv_moved.H_norm_sq, inv.H_norm_sq)
        self.assert_close(inv_moved.K_N, det * inv.K_N)

    def test_spine_reversal(self):
        # gamma(3 - s) over the same domain sweeps the same surface
        reversed_ = cv.AnalyticCurve.from_strings(
            [re.sub(r"\bs\b", "(3 - s)", text) for text in INVOLUTE_COMPONENTS],
            INVOLUTE.domain)
        x, inv = self.invariants(INVOLUTE, self.SS, self.B)
        y, inv_reversed = self.invariants(reversed_, 3.0 - self.SS, self.B)
        self.assert_close(y, x)
        for name in ("K", "K_N", "H_norm_sq"):
            self.assert_close(getattr(inv_reversed, name), getattr(inv, name))
