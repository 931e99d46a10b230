"""Tests for the finite-difference differential-geometry oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil4 import curve as cv
from pencil4 import curvature as cu
from pencil4 import oracle as orc
from pencil4 import pencil as pc
from pencil4.errors import RankDeficiencyError, StepUnderflowError
from test_pencil import _num

SQ3 = math.sqrt(3.0)
SEED_CURVE = cv.WCurve(SQ3 / 2, 0.25, 1.0, 2.0)


def points(*components):
    """A point function's (..., 4) result from four broadcastable components."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def k_n_variants(rep):
    """K_N from a report's E, F, G and c, assembled twice: with the F-term as
    printed in the source paper (c1_11 c1_22 - c2_11 c1_22) and with the
    shape-operator commutator F-term (c1_11 c2_22 - c2_11 c1_22).  The two
    differ only when F != 0."""
    c, E, F, G = rep.c, rep.E, rep.F, rep.G
    e_term = E * (c[0, 0, 1] * c[1, 1, 1] - c[1, 0, 1] * c[0, 1, 1])
    g_term = G * (c[0, 0, 0] * c[1, 0, 1] - c[1, 0, 0] * c[0, 0, 1])
    norm = rep.W2 * math.sqrt(rep.W2)
    printed = (e_term - F * (c[0, 0, 0] * c[0, 1, 1] - c[1, 0, 0] * c[0, 1, 1]) + g_term) / norm
    commutator = (e_term - F * (c[0, 0, 0] * c[1, 1, 1] - c[1, 0, 0] * c[0, 1, 1]) + g_term) / norm
    return printed, commutator


def plane_patch():
    return orc.Immersion(
        fn=lambda u, v: points(u, v, 0.0, 0.0),
        u_domain=(-1.0, 1.0),
        v_domain=(-1.0, 1.0),
    )


def clifford_torus(step=None):
    inv = 1.0 / math.sqrt(2.0)
    return orc.Immersion(
        fn=lambda u, v: inv * points(np.cos(u), np.sin(u), np.cos(v), np.sin(v)),
        u_domain=(0.0, 2 * math.pi),
        v_domain=(0.0, 2 * math.pi),
        step=step,
    )


def seed_pencil(step=None):
    p = pc.PencilSurface(
        SEED_CURVE, pc.MarchingScale.from_expressions("t", "t^2", (-0.3, 0.3))
    )
    im = orc.Immersion(p.point_array, (0.0, 2 * math.pi), (-0.3, 0.3), step=step)
    return p, im


class TestNumericForms:
    def test_flat_plane(self):
        rep = orc.numeric_forms(plane_patch(), 0.2, -0.1)
        assert rep.E == pytest.approx(1.0, abs=1e-10)
        assert rep.F == pytest.approx(0.0, abs=1e-12)
        assert rep.G == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rep.c)) < 1e-8
        assert rep.K == pytest.approx(0.0, abs=1e-8)
        assert rep.k_n == pytest.approx(0.0, abs=1e-8)
        assert rep.h_norm_sq == pytest.approx(0.0, abs=1e-8)

    def test_clifford_torus_flat(self):
        for step in (4e-3, 2e-3, 1e-3):
            im = clifford_torus(step)
            for (u, v) in [(0.5, 1.0), (2.0, 3.0), (4.0, 0.7)]:
                rep = orc.numeric_forms(im, u, v)
                assert abs(rep.K) < 1e-7
        # default step keeps |K| within the per-quantity tolerance
        rep = orc.numeric_forms(clifford_torus(), 1.0, 2.0)
        assert abs(rep.K) < 1e-6

    def test_clifford_metric(self):
        rep = orc.numeric_forms(clifford_torus(2e-3), 0.8, 2.5)
        assert rep.E == pytest.approx(0.5, abs=1e-9)
        assert rep.F == pytest.approx(0.0, abs=1e-9)
        assert rep.G == pytest.approx(0.5, abs=1e-9)
        # |H|^2 = 1 for the Clifford torus in the unit 3-sphere scaling
        assert rep.h_norm_sq == pytest.approx(1.0, rel=1e-6)

    def test_pencil_gaussian_matches_closed_form(self):
        p, im = seed_pencil()
        rng = np.random.default_rng(12)
        for _ in range(25):
            s = float(rng.uniform(0.3, 5.5))
            t = float(rng.uniform(-0.25, 0.25))
            rep = orc.numeric_forms(im, s, t)
            closed = cu.report(p, s, t)
            assert closed.K == pytest.approx(rep.K, abs=max(1e-6, 1e-6 * abs(rep.K)))
            assert closed.H_norm_sq == pytest.approx(
                rep.h_norm_sq, abs=max(1e-6, 1e-6 * abs(rep.h_norm_sq))
            )
            assert abs(closed.K_N) == pytest.approx(
                abs(rep.k_n), abs=max(1e-6, 1e-6 * abs(rep.k_n))
            )

    def test_pencil_f_structurally_zero(self):
        _, im = seed_pencil()
        for (s, t) in [(0.4, 0.1), (2.2, -0.2), (5.0, 0.05)]:
            rep = orc.numeric_forms(im, s, t)
            assert abs(rep.F) < 1e-9

    def test_mean_vector_matches_ambient_closed_form(self):
        p, im = seed_pencil()
        for (s, t) in [(0.9, 0.12), (3.0, -0.2)]:
            rep = orc.numeric_forms(im, s, t)
            want = cu.mean_vector_ambient(p, s, t)
            assert rep.mean_vector == pytest.approx(want, abs=1e-6)

    def test_step_underflow(self):
        im = orc.Immersion(plane_patch().fn, (0.0, 1e-6), (0.0, 1e-6))
        with pytest.raises(StepUnderflowError):
            orc.numeric_forms(im, 5e-7, 5e-7)

    def test_rank_deficiency(self):
        im = orc.Immersion(
            fn=lambda u, v: points(u + v, u + v, 0.0, 0.0),
            u_domain=(-1.0, 1.0),
            v_domain=(-1.0, 1.0),
        )
        with pytest.raises(RankDeficiencyError):
            orc.numeric_forms(im, 0.0, 0.0)

    def test_error_estimates_present(self):
        _, im = seed_pencil()
        rep = orc.numeric_forms(im, 1.0, 0.1)
        for key in ("E", "F", "G", "K", "K_N", "H_norm_sq"):
            assert key in rep.error_estimate
            assert rep.error_estimate[key] >= 0.0

    def test_error_estimates_are_the_distance_to_the_plain_stencils(self):
        # the plain level rebuilt from point evaluations: 3-point first and
        # second differences and the 4-point mixed difference over step h,
        # projected on normals of the 5-point tangents (any orthonormal pair
        # of the report's orientation gives the same K, K_N and |H|^2)
        p, im = seed_pencil()
        u, v = np.array([0.7, 2.3, 4.1, 5.5]), np.array([0.12, -0.2, 0.05, 0.25])
        rep = orc.numeric_forms(im, u, v)
        for i in range(u.size):
            h = float(im.step_at(u[i], v[i]))

            def X(a, b):
                return p.point_array(u[i] + a * h, v[i] + b * h)

            x_u, x_v = (X(1, 0) - X(-1, 0)) / (2 * h), (X(0, 1) - X(0, -1)) / (2 * h)
            x_uu = (X(1, 0) - 2 * X(0, 0) + X(-1, 0)) / (h * h)
            x_vv = (X(0, 1) - 2 * X(0, 0) + X(0, -1)) / (h * h)
            x_uv = (X(1, 1) - X(1, -1) - X(-1, 1) + X(-1, -1)) / (4 * h * h)
            t_u = (8 * (X(1, 0) - X(-1, 0)) - (X(2, 0) - X(-2, 0))) / (12 * h)
            t_v = (8 * (X(0, 1) - X(0, -1)) - (X(0, 2) - X(0, -2))) / (12 * h)
            n1, n2 = np.linalg.qr(np.column_stack([t_u, t_v]), mode="complete")[0][:, 2:].T
            if np.sign(np.linalg.det(np.array([t_u, t_v, n1, n2]))) != rep.orientation[i]:
                n2 = -n2
            E, F, G = x_u @ x_u, x_u @ x_v, x_v @ x_v
            (c1_11, c1_12, c1_22), (c2_11, c2_12, c2_22) = (
                [d @ n for d in (x_uu, x_uv, x_vv)] for n in (n1, n2))
            inv = cu.invariants_from_forms(pc.FundamentalForms(
                E=E, G=G, W2=E * G - F * F, c1_11=c1_11, c1_22=c1_22, c2_11=c2_11,
                c2_12=c2_12, F=F, c1_12=c1_12, c2_22=c2_22))
            for name, measured, plain in (
                ("E", rep.E, E), ("F", rep.F, F), ("G", rep.G, G), ("K", rep.K, inv.K),
                ("K_N", rep.k_n, inv.K_N), ("H_norm_sq", rep.h_norm_sq, inv.H_norm_sq),
            ):
                assert rep.error_estimate[name][i] == pytest.approx(
                    abs(measured[i] - plain), rel=1e-9, abs=1e-12), (i, name)


class TestGridConvergence:
    def test_halving_step_reduces_error_4x(self):
        # truncation-dominated regime on a smooth curved surface
        p, _ = seed_pencil()
        point = (1.3, 0.15)
        exact = cu.gaussian(p, *point)
        errors = []
        for step in (0.08, 0.04):
            im = orc.Immersion(p.point_array, (0.0, 2 * math.pi), (-0.5, 0.5), step=step)
            errors.append(abs(orc.numeric_forms(im, *point).K - exact))
        assert errors[1] <= errors[0] / 4.0


class TestBasisIndependence:
    @settings(max_examples=20, deadline=None)
    @given(m=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16), reflect=st.booleans(),
           shift=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           s=st.floats(0.2, 6.0), t=st.floats(-0.2, 0.2))
    def test_rotated_patch_same_invariants(self, m, reflect, shift, s, t):
        # A rigid motion x -> Q x + c of the ambient space (Q orthogonal, of
        # either determinant) changes the measured normal basis but not K or
        # |H|^2; the mean vector maps by Q and k_n_oriented by det Q.
        q, _ = np.linalg.qr(np.array(m).reshape(4, 4))
        if reflect:
            q[:, 0] = -q[:, 0]
        shift = np.array(shift)
        p, im = seed_pencil()
        im_moved = orc.Immersion(fn=lambda u, v: p.point_array(u, v) @ q.T + shift,
                                 u_domain=im.u_domain, v_domain=im.v_domain)
        a = orc.numeric_forms(im, s, t)
        b = orc.numeric_forms(im_moved, s, t)
        tol = 1e-6 * max(1.0, abs(a.K), abs(a.h_norm_sq), abs(a.k_n))
        assert b.K == pytest.approx(a.K, abs=tol)
        assert b.h_norm_sq == pytest.approx(a.h_norm_sq, abs=tol)
        assert b.mean_vector == pytest.approx(q @ a.mean_vector, abs=tol)
        assert b.k_n_oriented == pytest.approx(np.linalg.det(q) * a.k_n_oriented, abs=tol)

    @settings(max_examples=20, deadline=None)
    @given(s=st.floats(0.2, 6.0), t=st.floats(-0.2, 0.2))
    def test_different_basis_seeds_same_invariants(self, s, t):
        # Offering the standard basis in each of its 24 orders changes the
        # measured normals; K, |H|^2, the mean vector and k_n_oriented must
        # not move, and k_n may only flip its sign.  The oracle offers
        # e1..e4 in turn, so an order is offered by permuting the
        # immersion's coordinates, x -> P x; the mean vector is read back
        # through P^T and the orientation through det P.
        p, im = seed_pencil()
        a = orc.numeric_forms(im, s, t)
        tol = 1e-12 * max(1.0, abs(a.K), abs(a.h_norm_sq), abs(a.k_n))
        for perm in itertools.permutations(range(4)):
            P = np.eye(4)[list(perm)]
            b = orc.numeric_forms(orc.Immersion(lambda u, v: p.point_array(u, v) @ P.T,
                                                im.u_domain, im.v_domain), s, t)
            assert b.K == pytest.approx(a.K, abs=tol)
            assert b.h_norm_sq == pytest.approx(a.h_norm_sq, abs=tol)
            assert P.T @ b.mean_vector == pytest.approx(a.mean_vector, abs=tol)
            assert abs(b.k_n) == pytest.approx(abs(a.k_n), abs=tol)
            assert np.linalg.det(P) * b.k_n_oriented == pytest.approx(a.k_n_oriented, abs=tol)

    def test_oriented_normal_curvature_consistent_across_grid(self):
        # The raw k_n sign can flip between grid points when the seed basis
        # selection changes; the orientation-adjusted value matches the
        # closed form with one global sign over the whole grid.
        p, im = seed_pencil()
        closed, oriented, pts, estimates = [], [], [], []
        for s in np.linspace(0.2, 6.0, 9):
            for t in np.linspace(-0.2, 0.2, 5):
                rep = orc.numeric_forms(im, float(s), float(t))
                closed.append(cu.normal_curvature(p, float(s), float(t)))
                oriented.append(rep.k_n_oriented)
                pts.append((float(s), float(t)))
                estimates.append(rep.error_estimate["K_N"])
        report = orc.compare("K_N", closed, oriented, pts, estimates, 1e-6, match_sign=True)
        assert report.passed
        assert report.estimate in estimates

    def test_printed_and_commutator_variants_agree_when_f_zero(self):
        # F is structurally zero on a pencil, so the F-term typo of the
        # printed K_N cannot show: both assemblies give the reported k_n.
        _, im = seed_pencil()
        rep = orc.numeric_forms(im, 1.1, 0.2)
        printed, commutator = k_n_variants(rep)
        assert rep.F == pytest.approx(0.0, abs=1e-9)
        assert rep.k_n == pytest.approx(commutator, abs=1e-9)
        assert rep.k_n == pytest.approx(printed, abs=1e-9)

    def test_variants_logged_for_skewed_patch(self):
        # a sheared patch with F != 0 exposes the difference between the two
        # normal-curvature assemblies; the reported k_n is the commutator one.
        def fn(u, v):
            return points(u, v + 0.4 * u, np.cos(u + v), np.sin(u - 0.3 * v))

        im = orc.Immersion(fn, (-2.0, 2.0), (-2.0, 2.0), step=2e-3)
        rep = orc.numeric_forms(im, 0.3, 0.4)
        printed, commutator = k_n_variants(rep)
        assert abs(rep.F) > 1e-3
        assert rep.k_n == pytest.approx(commutator, abs=1e-12)
        assert rep.k_n != pytest.approx(printed, abs=1e-6)

    def test_sheared_parametrization_same_invariants(self):
        # g(u, w) = f(u, w + 0.4 u) is the same surface with F != 0 in both
        # parametrizations; the F-term of K_N and its 1/W^3 normalization
        # show here, where a pencil (F = 0, W = 1 at t = 0) hides them.
        def f(u, v):
            return points(u, v, np.cos(u + v), np.sin(u - 0.3 * v))

        plain = orc.Immersion(f, (-2.0, 2.0), (-2.0, 2.0), step=2e-3)
        sheared = orc.Immersion(lambda u, w: f(u, w + 0.4 * u), (-2.0, 2.0), (-2.0, 2.0),
                                step=2e-3)
        u, w = np.array([0.3, -0.5, 1.1]), np.array([0.4, 0.2, -0.6])
        a = orc.numeric_forms(plain, u, w + 0.4 * u)
        b = orc.numeric_forms(sheared, u, w)
        assert np.all(np.abs(b.F) > 0.5)
        assert a.K == pytest.approx(b.K, abs=1e-8)
        assert a.h_norm_sq == pytest.approx(b.h_norm_sq, abs=1e-8)
        assert a.k_n_oriented == pytest.approx(b.k_n_oriented, abs=1e-8)
        assert a.k_n_oriented[0] == pytest.approx(-0.0055086469, abs=1e-9)


def batch_immersion(kind, c, ratio, th):
    """A W-curve pencil, its analytic twin (same spine as four expressions)
    or a Clifford torus, with marching exercising ^ and sin."""
    if kind == "clifford":
        return clifford_torus()
    d = c * ratio
    a, b = math.cos(th) / c, math.sin(th) / d
    if kind == "w_curve":
        curve = cv.WCurve(a, b, c, d)
    else:
        curve = cv.AnalyticCurve.from_strings(
            [f"{_num(a)}*cos({_num(c)}*s)", f"{_num(a)}*sin({_num(c)}*s)",
             f"{_num(b)}*cos({_num(d)}*s)", f"{_num(b)}*sin({_num(d)}*s)"], (0.0, 2 * math.pi))
    p = pc.PencilSurface(curve, pc.MarchingScale.from_expressions(
        "0.8*t + 0.3*t^2", "t^2 - 0.2*sin(t)", (-0.3, 0.3)))
    return orc.Immersion(p.point_array, (0.0, 2 * math.pi), (-0.3, 0.3))


def grid_points(n):
    """u and v of the n x n grid over [0.1, 6.1] x [-0.25, 0.25], t-major."""
    u, v = np.broadcast_arrays(np.linspace(0.1, 6.1, n), np.linspace(-0.25, 0.25, n)[:, None])
    return u.ravel(), v.ravel()


class TestBatch:
    """numeric_forms over arrays: one evaluator call, one code path."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["w_curve", "analytic_twin", "clifford"]),
        c=st.floats(0.7, 1.2), ratio=st.floats(1.6, 2.2), th=st.floats(0.45, 1.1),
        uv=st.lists(st.tuples(st.floats(0.1, 6.1), st.floats(-0.25, 0.25)),
                    min_size=1, max_size=6),
    )
    def test_batch_equals_batches_of_one(self, kind, c, ratio, th, uv):
        im = batch_immersion(kind, c, ratio, th)
        u, v = (np.array(x) for x in zip(*uv))
        if kind == "clifford":
            v = v + 1.0  # inside the torus's v-domain
        batch = orc.numeric_forms(im, u, v)
        for i in range(len(u)):
            one = orc.numeric_forms(im, float(u[i]), float(v[i]))
            for name in ("E", "F", "G", "W2", "c", "K", "k_n", "mean_vector", "h_norm_sq",
                         "orientation"):
                assert np.array_equal(getattr(batch, name)[i], getattr(one, name)), name
            assert isinstance(one.K, float) and one.c.shape == (2, 2, 2)
            for key, value in one.error_estimate.items():
                assert np.array_equal(batch.error_estimate[key][i], value, equal_nan=True)

    @pytest.mark.parametrize("n", [1, 4])
    def test_one_evaluator_call_on_25_distinct_points_each(self, n):
        _, im = seed_pencil()
        calls = []

        def fn(u, v):
            calls.append(np.broadcast_arrays(u, v))
            return im.fn(u, v)

        u = np.linspace(0.5, 5.0, n)
        orc.numeric_forms(orc.Immersion(fn, im.u_domain, im.v_domain), u, 0.1)
        assert len(calls) == 1
        stencil = set(zip(calls[0][0].ravel().tolist(), calls[0][1].ravel().tolist()))
        assert len(stencil) == calls[0][0].size == 25 * n

    def test_slices_bound_the_evaluator_calls(self):
        # n > SLICE points: ceil(n / SLICE) evaluator calls of at most SLICE
        # stencils each, and the same report as n batches of one
        im = batch_immersion("analytic_twin", 0.9, 1.8, 0.7)
        calls = []

        def fn(u, v):
            calls.append(np.broadcast(u, v).shape)
            return im.fn(u, v)

        n = 2 * orc.SLICE + 3
        rng = np.random.default_rng(6)
        u, v = rng.uniform(0.1, 6.1, n), rng.uniform(-0.25, 0.25, n)
        counted = orc.Immersion(fn, im.u_domain, im.v_domain)
        batch = orc.numeric_forms(counted, u, v)
        assert calls == [(5, 5, orc.SLICE), (5, 5, orc.SLICE), (5, 5, 3)]
        for i in range(n):
            one = orc.numeric_forms(im, float(u[i]), float(v[i]))
            for name in ("E", "F", "G", "W2", "c", "K", "k_n", "mean_vector", "h_norm_sq",
                         "orientation"):
                assert np.array_equal(getattr(batch, name)[i], getattr(one, name)), name
            for key, value in one.error_estimate.items():
                assert np.array_equal(batch.error_estimate[key][i], value, equal_nan=True)

    @settings(max_examples=15, deadline=None)
    @given(kind=st.sampled_from(["w_curve", "analytic_twin"]),
           perm=st.permutations(range(24 * 24)))
    def test_permuted_points_permute_the_report(self, kind, perm):
        # points are measured in spine-column slices whatever their order;
        # the report follows the input order, bit for bit
        im = batch_immersion(kind, 0.9, 1.8, 0.7)
        u, v = grid_points(24)
        perm = np.array(perm)
        ref = orc.numeric_forms(im, u, v)
        got = orc.numeric_forms(im, u[perm], v[perm])
        for name in ("E", "F", "G", "W2", "c", "K", "k_n", "mean_vector", "h_norm_sq",
                     "orientation"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)[perm]), name
        for key, value in ref.error_estimate.items():
            assert np.array_equal(got.error_estimate[key], value[perm], equal_nan=True), key

    def test_a_40x40_grid_takes_three_evaluator_calls(self):
        im = batch_immersion("analytic_twin", 0.9, 1.8, 0.7)
        calls = []

        def fn(u, v):
            calls.append(np.broadcast(u, v).shape)
            return im.fn(u, v)

        u, v = grid_points(40)
        orc.numeric_forms(orc.Immersion(fn, im.u_domain, im.v_domain), u, v)
        assert len(calls) == math.ceil(u.size / orc.SLICE) == 3
        assert [shape[:2] for shape in calls] == [(5, 5)] * 3
        assert sum(shape[2] for shape in calls) == u.size

    def test_each_slice_assembles_its_forms_and_invariants_once(self, monkeypatch):
        # both Richardson levels ride one leading axis through one assembly
        calls = []
        for name in ("_forms", "invariants_from_forms"):
            def spy(*args, f=getattr(orc, name), name=name):
                out = f(*args)
                calls.append((name, out.E.shape if name == "_forms" else out.K.shape))
                return out
            monkeypatch.setattr(orc, name, spy)
        u, v = grid_points(40)
        orc.numeric_forms(batch_immersion("analytic_twin", 0.9, 1.8, 0.7), u, v)
        assert calls == [(name, (2, n)) for n in (orc.SLICE, orc.SLICE, u.size - 2 * orc.SLICE)
                         for name in ("_forms", "invariants_from_forms")]

    def test_traced_peak_of_a_40x40_grid(self):
        # the working set of the slices, the stencil values freed before the
        # report: no more traced memory than the t-major 256-point slices that
        # spine-column slicing replaced (1_088_571 B with numpy 2.4; this
        # code: ~1.08 MB in slices of SLICE points)
        im = batch_immersion("analytic_twin", 0.9, 1.8, 0.7)
        u, v = grid_points(40)
        orc.numeric_forms(im, u, v)
        tracemalloc.start()
        try:
            orc.numeric_forms(im, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_088_571

    def test_first_fault_across_slices_is_named(self):
        # X_v = (0, u, 0, 0) vanishes on u = 0, here only in the second slice
        im = orc.Immersion(lambda u, v: points(u, u * v, 0.0, 0.0), (-1.0, 1.0), (-1.0, 1.0))
        u = np.linspace(0.1, 0.9, orc.SLICE + 10)
        v = np.full(u.size, 0.2)
        u[[orc.SLICE + 4, orc.SLICE + 7]], v[orc.SLICE + 7] = 0.0, 0.3
        with pytest.raises(RankDeficiencyError) as ei:
            orc.numeric_forms(im, u, v)
        assert f"dependent at ({0.0!r}, {0.2!r})" in str(ei.value)
        u[5], v[5] = 0.0, 0.4  # an earlier fault, in the first slice
        with pytest.raises(RankDeficiencyError) as ei:
            orc.numeric_forms(im, u, v)
        assert f"dependent at ({0.0!r}, {0.4!r})" in str(ei.value)

    def test_step_underflow_names_first_faulting_point(self):
        im = orc.Immersion(plane_patch().fn, (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(StepUnderflowError) as ei:
            orc.numeric_forms(im, np.array([0.5, 0.0001, 0.99999]), 0.5)
        assert f"({0.0001!r}, {0.5!r})" in str(ei.value)

    def test_rank_deficiency_names_first_faulting_point(self):
        # X_v = (0, u, 0, 0) vanishes on u = 0
        im = orc.Immersion(lambda u, v: points(u, u * v, 0.0, 0.0), (-1.0, 1.0), (-1.0, 1.0))
        u = np.array([0.5, 0.0, -0.3, 0.0])
        with pytest.raises(RankDeficiencyError) as ei:
            orc.numeric_forms(im, u, 0.2)
        assert f"dependent at ({0.0!r}, {0.2!r})" in str(ei.value)
        assert orc.numeric_forms(im, u[[0, 2]], 0.2).K.shape == (2,)


class TestOrientation:
    def test_orientation_is_the_sign_of_the_determinant(self):
        # the cofactor expansion against LAPACK, on orthonormal frames of both
        # orientations and on general matrices
        rng = np.random.default_rng(21)
        q = np.linalg.qr(rng.normal(size=(200, 4, 4)))[0]
        q[::2, :, 0] *= -1.0
        for m in (q, rng.normal(size=(200, 4, 4))):
            want = np.sign(np.linalg.det(m))
            assert set(want.tolist()) == {-1.0, 1.0}
            got = orc._orientation(*(np.ascontiguousarray(m[..., k]) for k in range(4)))
            assert np.array_equal(got, want)


class TestCompare:
    def test_identical_fields_pass(self):
        values = [0.5, -1.25, 3.0]
        pts = [(0.0, 0.0), (1.0, 0.1), (2.0, 0.2)]
        rep = orc.compare("K", values, values, pts, [0.0, 0.0, 0.0], tolerance=1e-6)
        assert rep.passed
        assert rep.max_abs_dev == 0.0
        assert rep.ratio == pytest.approx(1.0)

    def test_factor_two_bug_detected(self):
        rng = np.random.default_rng(8)
        oracle_vals = rng.uniform(0.5, 2.0, size=40)
        closed_vals = 2.0 * oracle_vals
        pts = [(float(i), 0.0) for i in range(40)]
        estimates = np.arange(40) * 1e-9
        rep = orc.compare("K", closed_vals, oracle_vals, pts, estimates, tolerance=1e-6)
        assert not rep.passed
        assert rep.ratio == pytest.approx(2.0, abs=1e-12)
        limits = np.maximum(1e-6, 1e-6 * oracle_vals)
        worst = int(np.argmax(np.abs(closed_vals - oracle_vals) - limits))
        assert rep.worst_point == pts[worst]
        assert rep.estimate == estimates[worst]
        assert f"oracle truncation est {estimates[worst]:.1e}" in rep.summary()

    def test_global_sign_match(self):
        vals = np.array([0.3, -0.7, 1.1])
        pts = [(0.0, 0.0)] * 3
        rep = orc.compare("K_N", vals, -vals, pts, [0.0] * 3, tolerance=1e-9, match_sign=True)
        assert rep.passed
        assert rep.sign == -1.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_oracle_value_fails(self, bad):
        # |closed - oracle| = inf is not within tol |oracle| = inf
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        with np.errstate(all="raise"):
            rep = orc.compare("K", [0.5, 1.0, 2.0], [0.5, bad, 2.0], pts, [0.0, 1.0, 0.0])
        assert not rep.passed and rep.worst_point == pts[1] and rep.estimate == 1.0
