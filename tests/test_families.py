"""Tests for the special pencil families."""

import math

import numpy as np
import pytest

from pencil4 import curvature as cu
from pencil4 import curve as cv
from pencil4 import expr as ex
from pencil4 import families as fam
from pencil4 import oracle as orc
from pencil4 import pencil as pc
from pencil4.errors import (
    ConstraintViolationError,
    DomainError,
    EvalDomainError,
    RegularityViolationError,
)

SQ3 = math.sqrt(3.0)
SEED_CURVE = cv.WCurve(SQ3 / 2, 0.25, 1.0, 2.0)
K1 = math.sqrt(7.0) / 2.0
K2 = 3.0 * SQ3 / (2.0 * math.sqrt(7.0))
K3 = 4.0 / math.sqrt(7.0)

FLAT_STEP = 4e-3  # differencing step tuned for ~1e-10 second-derivative noise


def padded(domain, step=FLAT_STEP):
    return (domain[0] - 4 * step, domain[1] + 4 * step)


class TestRotationMarching:
    def test_constant_profile_degenerates(self):
        t = ex.variable("t")
        profile = fam.RotationProfile(
            ex.constant(SEED_CURVE.a) + 0.0 * t, ex.constant(SEED_CURVE.b) + 0.0 * t,
            SEED_CURVE,
        )
        # A == B == 0 fails the marching regularity gate at construction
        with pytest.raises(RegularityViolationError):
            fam.rotation_marching(profile, (0.0, 1.0))

    def test_vranceanu_marching_matches_explicit_formulas(self):
        a, b = 0.6, 0.8
        r = ex.parse("1 + 0.3*sin(t)", "t")
        t = ex.variable("t")
        profile = fam.RotationProfile(
            r * ex.call("cos", t), r * ex.call("sin", t), cv.WCurve(a, b, 1.0, 1.0)
        )
        marching = fam.rotation_marching(profile, (0.0, 1.0))
        k1 = 1.0  # unit-speed c = d = 1 generator has kappa1 = 1
        for tv in np.linspace(0.0, 1.0, 17):
            rv = ex.evaluate(r, float(tv))
            f = rv * math.cos(tv)
            g = rv * math.sin(tv)
            want_a = -(a * k1 * (f - a) + b * k1 * (g - b)) / (a * a + b * b)
            want_b = (b * k1 * (f - a) - a * k1 * (g - b)) / (a * a + b * b)
            got_a = ex.evaluate(marching.A, float(tv))
            got_b = ex.evaluate(marching.B, float(tv))
            assert got_a == pytest.approx(want_a, abs=1e-12)
            assert got_b == pytest.approx(want_b, abs=1e-12)

    def test_reconstruction_on_grid(self):
        t = ex.variable("t")
        f = SEED_CURVE.a + 0.1 * t + 0.02 * t * t
        g = SEED_CURVE.b + 0.05 * t * t - 0.03 * t
        profile = fam.RotationProfile(f, g, SEED_CURVE)
        pencil = fam.rotation_pencil(profile, (-0.4, 0.8))
        for s in np.linspace(0.0, 2.0 * math.pi, 32):
            for tv in np.linspace(-0.4, 0.8, 32):
                want = profile.point(float(s), float(tv))
                got = pencil.point_array(float(s), float(tv))
                assert np.max(np.abs(got - want)) < 1e-9

    def test_profile_inversion_consistency(self):
        # Substituting the solved A, B back into the (gauge-corrected)
        # linear profile system reproduces f and g pointwise.
        t = ex.variable("t")
        f = SEED_CURVE.a + 0.07 * t - 0.02 * t**3.0
        g = SEED_CURVE.b + 0.04 * t * t
        profile = fam.RotationProfile(f, g, SEED_CURVE)
        marching = fam.rotation_marching(profile, (-0.3, 0.5))
        a, b, c, d = profile.curve.a, profile.curve.b, profile.curve.c, profile.curve.d
        k1 = K1  # kappa1 of the seed curve
        sigma = fam._frame_gauge_sign(SEED_CURVE)
        for tv in np.linspace(-0.3, 0.5, 25):
            A = ex.evaluate(marching.A, float(tv))
            B = ex.evaluate(marching.B, float(tv))
            f_back = a + (-a * c * c * A + sigma * b * d * d * B) / k1
            g_back = b + (-b * d * d * A - sigma * a * c * c * B) / k1
            assert f_back == pytest.approx(ex.evaluate(f, float(tv)), abs=1e-9)
            assert g_back == pytest.approx(ex.evaluate(g, float(tv)), abs=1e-9)

    def test_random_profiles_roundtrip(self):
        rng = np.random.default_rng(21)
        t = ex.variable("t")
        for _ in range(10):
            coeff = rng.uniform(-0.08, 0.08, size=4)
            f = SEED_CURVE.a + coeff[0] * t + coeff[1] * t * t
            g = SEED_CURVE.b + coeff[2] * t + coeff[3] * t * t
            profile = fam.RotationProfile(f, g, SEED_CURVE)
            try:
                pencil = fam.rotation_pencil(profile, (0.05, 0.9))
            except RegularityViolationError:
                continue  # a draw with A' = B' = 0 somewhere is not a pencil
            for s, tv in [(0.3, 0.2), (2.0, 0.5), (4.4, 0.85)]:
                want = profile.point(s, tv)
                got = pencil.point_array(s, tv)
                assert np.max(np.abs(got - want)) < 1e-9


class TestVranceanu:
    def test_unit_radius_point(self):
        p = fam.vranceanu(ex.parse("1 + 0*t", "t"), 0.6, 0.8, (-0.5, 0.5))
        assert p.point_array(0.0, 0.0) == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_requires_unit_generator(self):
        with pytest.raises(ConstraintViolationError):
            fam.vranceanu(ex.parse("1 + 0*t", "t"), 1.0, 1.0)

    def test_trace_matches_canonical_parametrization(self):
        r = ex.parse("1.1*exp(0.2*t)", "t")
        p = fam.vranceanu(r, 1 / math.sqrt(2), 1 / math.sqrt(2), (0.0, 1.0))
        im = fam.vranceanu_immersion(r, (0.0, 2 * math.pi), (0.0, 1.0))
        for s in np.linspace(0.0, 2 * math.pi, 9):
            for t in np.linspace(0.0, 1.0, 9):
                assert p.point_array(float(s), float(t)) == pytest.approx(
                    im.fn(float(s), float(t)), abs=1e-12
                )

    def test_spiral_radius_is_flat_by_oracle(self):
        im = fam.vranceanu_immersion(ex.parse("1*exp(0.2*t)", "t"), padded((0.0, 2.0)),
                                     padded((0.0, 1.0)))
        im = orc.Immersion(im.fn, im.u_domain, im.v_domain, step=FLAT_STEP)
        worst = orc.grid_max_abs_gaussian(
            im, np.linspace(0.0, 2.0, 8), np.linspace(0.0, 1.0, 8)
        )
        assert worst <= 1e-8

    def test_pencil_route_is_flat_too(self):
        p = fam.vranceanu(ex.parse("1*exp(0.2*t)", "t"), 0.6, 0.8, (0.0, 1.0))
        for s in np.linspace(0.5, 2.0, 5):
            for t in np.linspace(0.1, 0.9, 5):
                assert abs(cu.gaussian(p, float(s), float(t))) < 1e-10

    def test_non_spiral_radius_is_not_flat(self):
        im = fam.vranceanu_immersion(
            ex.parse("1 + 0.5*cos(t)", "t"), padded((0.0, 2.0)), padded((0.0, 1.0))
        )
        im = orc.Immersion(im.fn, im.u_domain, im.v_domain, step=FLAT_STEP)
        worst = orc.grid_max_abs_gaussian(
            im, np.linspace(0.0, 2.0, 8), np.linspace(0.0, 1.0, 8)
        )
        assert worst > 1e-3


class TestLawson:
    def test_point_by_substitution(self):
        profile = fam.lawson(1.0)
        assert profile.point(0.0, 0.0) == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)
        # pencil route sweeps the same trace
        assert fam.rotation_pencil(profile, (0.2, 1.2)).point_array(0.0, 0.0) == pytest.approx(
            [1.0, 0.0, 0.0, 0.0], abs=1e-12
        )

    def test_oracle_metric_diagonal(self):
        profile = fam.lawson(1.0)
        im = orc.Immersion(profile.point, (-0.5, 2 * math.pi), (0.1, 1.3))
        for (s, t) in [(0.5, 0.4), (2.0, 0.9), (4.0, 0.6)]:
            rep = orc.numeric_forms(im, s, t)
            assert abs(rep.F) < 1e-9

    def test_profile_identity_on_grid(self):
        profile = fam.lawson(2.0)
        for s in np.linspace(0.0, 2 * math.pi, 16):
            for t in np.linspace(0.2, 1.2, 16):
                x = profile.point(float(s), float(t))
                assert x[0] ** 2 + x[1] ** 2 == pytest.approx(math.cos(t) ** 2, abs=1e-12)
                assert x[2] ** 2 + x[3] ** 2 == pytest.approx(math.sin(t) ** 2, abs=1e-12)

    def test_nondegenerate_rate_pencil_reconstructs(self):
        profile = fam.lawson(2.0)
        pencil = fam.rotation_pencil(profile, (0.3, 1.2))
        for s in np.linspace(0.0, 3.0, 7):
            for t in np.linspace(0.3, 1.2, 7):
                want = profile.point(float(s), float(t))
                got = pencil.point_array(float(s), float(t))
                assert np.max(np.abs(got - want)) < 1e-9


class TestRuledPencil:
    def test_spine(self):
        p = fam.ruled_pencil(SEED_CURVE, (-0.2, 0.5))
        for s in (0.0, 1.2, 3.3):
            assert p.point_array(s, 0.0) == pytest.approx(SEED_CURVE.point(s), abs=1e-15)

    def test_seed_curvatures_at_spine(self):
        p = fam.ruled_pencil(SEED_CURVE, (-0.2, 0.5))
        rep = cu.report(p, 0.8, 0.0)
        assert rep.K == pytest.approx(-0.1403850220838194, abs=1e-12)
        assert rep.K_N == pytest.approx(0.35048094716167094, abs=1e-12)
        assert rep.H1 == pytest.approx(-K1 / (2 * math.sqrt(2.0)), abs=1e-12)
        assert rep.H2 == 0.0

    def test_equal_curvature_generator_gives_flat_flat_normal(self):
        w = fam.w_curve_with_equal_curvatures(1.0, 3.0)
        p = fam.ruled_pencil(w, (0.0, 0.4))
        for s in np.linspace(0.0, 3.0, 6):
            for t in np.linspace(0.0, 0.35, 6):
                rep = cu.report(p, float(s), float(t))
                assert abs(rep.K) <= 1e-8
                assert abs(rep.K_N) <= 1e-8

    def test_reference_formulas_at_spine(self):
        p = fam.ruled_pencil(SEED_CURVE, (-0.2, 0.5))
        rep = cu.report(p, 1.0, 0.0)
        ref_k = fam.ruled_reference_gaussian(K1, K2, K3, 0.0)
        ref_kn = fam.ruled_reference_normal_curvature(K1, K2, K3, 0.0)
        assert ref_k / rep.K == pytest.approx(2.0, abs=1e-10)
        assert ref_kn == pytest.approx(rep.K_N, abs=1e-12)


class TestPolarMarching:
    def test_unit_radius(self):
        m = fam.polar_marching(ex.parse("1 + 0*t", "t"), (0.2, 1.2))
        for t in np.linspace(0.2, 1.2, 9):
            A, B, dA, dB, ddA, ddB = m.values(float(t))
            assert A == pytest.approx(math.cos(t), abs=1e-12)
            assert B == pytest.approx(math.sin(t), abs=1e-12)
            # rho1 = A'B'' - B'A'' = r^2 + 2 r'^2 - r r'' = 1 for r == 1
            assert dA * ddB - dB * ddA == pytest.approx(1.0, abs=1e-12)

    def test_reciprocal_sine_closes_first_residual(self):
        m = fam.polar_marching(ex.parse("1/sin(t)", "t"), (0.2, math.pi - 0.2))
        for t in np.linspace(0.2, math.pi - 0.2, 33):
            _, _, dA, dB, ddA, ddB = m.values(float(t))
            assert abs(dA * ddB - dB * ddA) < 1e-9

    def test_secant_radius_constant_first_component(self):
        c1 = 0.7
        m = fam.polar_marching(c1 * ex.call("sec", ex.variable("t")), (-0.9, 0.9))
        for t in np.linspace(-0.9, 0.9, 9):
            A, _, dA, _, _, _ = m.values(float(t))
            assert A == pytest.approx(c1, abs=1e-12)
            assert abs(dA) < 1e-12

    def test_pole_inside_range_rejected(self):
        with pytest.raises(DomainError):
            fam.polar_marching(ex.parse("1/sin(t)", "t"), (-0.5, 0.5))  # pole at t = 0

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(DomainError):
            fam.polar_marching(ex.parse("cos(t)", "t"), (1.0, 2.0))  # sign change at pi/2


class TestFlatPolarSolution:
    def test_case_iv_on_seed_curve(self):
        c1 = 2.0 / math.sqrt(7.0)  # 1/kappa1
        design = fam.flat_polar_solution("iv", c1, 0.0, SEED_CURVE, (0.8, 1.3))
        assert design.max_ode_residual_1 <= 1e-12
        assert design.max_rho1 <= 1e-12
        assert design.max_rho2 <= 1e-12
        assert design.max_abs_gaussian <= 1e-10
        assert design.flat

    def test_case_iv_oracle_flat(self):
        c1 = 2.0 / math.sqrt(7.0)
        design = fam.flat_polar_solution("iv", c1, 0.0, SEED_CURVE, (0.8, 1.3))
        im = orc.Immersion(
            design.surface.point_array, (-1.0, 7.0), padded((0.8, 1.3)), step=FLAT_STEP
        )
        worst = orc.grid_max_abs_gaussian(
            im, np.linspace(0.0, 6.0, 6), np.linspace(0.85, 1.25, 6)
        )
        assert worst <= 1e-8

    def test_case_iv_wrong_curvature_rejected(self):
        with pytest.raises(ConstraintViolationError):
            fam.flat_polar_solution("iv", 1.0, 0.0, SEED_CURVE, (0.8, 1.3))

    def test_case_i_on_planar_circle(self):
        circle = cv.WCurve(1.0, 0.0, 1.0, 1.0)
        design = fam.flat_polar_solution("i", 1.0, 0.0, circle, (1.0, 2.6))
        assert design.max_rho1 <= 1e-9
        assert design.max_rho2 <= 1e-12
        assert design.max_abs_gaussian <= 1e-8
        assert design.max_ode_residual_2 == 0.0  # all terms carry kappa2 or kappa3
        assert design.flat

    def test_case_i_requires_planar_curve(self):
        with pytest.raises(ConstraintViolationError):
            fam.flat_polar_solution("i", 1.0, 0.0, SEED_CURVE, (1.0, 2.6))

    def test_case_ii_constraint_gate(self):
        # Wrong relation: the seed curve has kappa3 != c1 kappa2 / (c2 + kappa1)
        with pytest.raises(ConstraintViolationError):
            fam.flat_polar_solution("ii", 1.0, 0.5, SEED_CURVE, (0.35, 1.2))

    def test_case_ii_satisfied(self):
        c2 = 0.5
        c1 = K3 * (c2 + K1) / K2
        design = fam.flat_polar_solution("ii", c1, c2, SEED_CURVE, (0.35, 1.2))
        assert design.max_rho1 <= 1e-9
        assert design.max_rho2 <= 1e-9
        assert design.max_ode_residual_2 <= 1e-9
        assert design.max_abs_gaussian <= 1e-8
        assert design.flat

    def test_case_ii_oracle_flat(self):
        c2 = 0.5
        c1 = K3 * (c2 + K1) / K2
        design = fam.flat_polar_solution("ii", c1, c2, SEED_CURVE, (0.35, 1.2))
        im = orc.Immersion(
            design.surface.point_array, (-1.0, 7.0), padded((0.35, 1.2)), step=FLAT_STEP
        )
        worst = orc.grid_max_abs_gaussian(
            im, np.linspace(0.0, 6.0, 5), np.linspace(0.4, 1.15, 5)
        )
        assert worst <= 1e-8

    def test_case_iii_on_circle(self):
        circle = cv.WCurve(1.0, 0.0, 1.0, 1.0)
        design = fam.flat_polar_solution("iii", 1.0, 0.0, circle, (3.55, 4.5))
        assert design.max_rho1 <= 1e-9
        assert design.max_rho2 <= 1e-12
        assert design.max_abs_gaussian <= 1e-8
        assert design.flat

    @pytest.mark.parametrize("case, t_domain", [("i", (1.0, 2.6)), ("iii", (3.8, 4.6))])
    @pytest.mark.parametrize("circle", [cv.WCurve(1.0, 0.0, 1.0, 1.0),
                                        cv.WCurve(0.6, 0.8, 1.0, 1.0)],
                             ids=["planar", "equal_rates"])
    def test_circular_cases_oracle_flat(self, case, t_domain, circle):
        # cases i and iii are cones over the circle: the oracle measures the
        # points the design sweeps, so it must read them flat as well
        design = fam.flat_polar_solution(case, 1.0, 0.5, circle, t_domain)
        assert design.flat
        im = orc.Immersion(
            design.surface.point_array, (-1.0, 7.0), padded(t_domain), step=FLAT_STEP
        )
        worst = orc.grid_max_abs_gaussian(
            im, np.linspace(0.0, 6.0, 6), np.linspace(t_domain[0] + 0.05, t_domain[1] - 0.05, 6)
        )
        assert worst <= 1e-8

    def test_pole_in_range_rejected(self):
        circle = cv.WCurve(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            fam.flat_polar_solution("i", 1.0, 0.0, circle, (2.8, 3.6))  # sin t = 0 at pi


def reference_case_message(case, c1, c2, frames):
    """The per-sample loop over the case preconditions: the message of the
    first failing check at the first failing sample, or None."""
    tol = fam.PROFILE_CONSTRAINT_TOL
    for (k1, k2, k3), rank in zip(frames.kappas.tolist(), frames.rank.tolist()):
        if case == "iv":
            if abs(k1 - 1.0 / c1) > tol:
                return f"case iv: kappa1 != 1/c1 (|deviation| = {abs(k1 - 1.0 / c1):.3e})"
            continue
        if rank < 4:
            return "case ii: generator frame degenerates"
        if abs(c2 + k1) < 1e-12:
            return "case ii: c2 + kappa1 vanishes"
        want = c1 * k2 / (c2 + k1)
        if abs(k3 - want) > tol:
            return ("case ii: kappa3 != c1 kappa2 / (c2 + kappa1) "
                    f"(|deviation| = {abs(k3 - want):.3e})")
    return None


class TestCasePreconditions:
    def test_array_checks_match_per_sample_loop(self, monkeypatch):
        rng = np.random.default_rng(12)
        for _ in range(300):
            case = rng.choice(["ii", "iv"])
            c1, c2 = rng.choice([0.5, 2.0]), rng.choice([-1.0, 0.25])
            n = int(rng.integers(1, 6))
            kappas = rng.choice([0.5, 1.0, 2.0], size=(n, 3))
            # about half the samples satisfy the case's relation
            keep = rng.random(n) < 0.5
            with np.errstate(divide="ignore"):
                kappas[keep, 2] = c1 * kappas[keep, 1] / (c2 + kappas[keep, 0])
            kappas[keep & (case == "iv"), 0] = 1.0 / c1
            frames = cv.FrenetFrames(frame=np.zeros((n, 4, 4)), kappas=kappas,
                                     connection=kappas, rank=rng.choice([3, 4, 4], size=n))
            monkeypatch.setattr(fam, "frenet_frames", lambda curve, s: frames)
            want = reference_case_message(case, c1, c2, frames)
            if want is None:
                fam._check_case_preconditions(case, c1, c2, SEED_CURVE, np.zeros(n))
            else:
                with pytest.raises(ConstraintViolationError) as ei:
                    fam._check_case_preconditions(case, c1, c2, SEED_CURVE, np.zeros(n))
                assert str(ei.value) == want


def reference_radius_check(r, t_domain):
    """The per-sample loop over the radius check: raises DomainError at the
    first sample that faults, blows up or is not positive."""
    for t in np.linspace(t_domain[0], t_domain[1], 64):
        try:
            value = ex.evaluate(r, float(t))
        except EvalDomainError as err:
            raise DomainError(
                f"radius function singular inside t-range at t = {float(t)!r}: {err}"
            ) from err
        if not math.isfinite(value) or abs(value) > 1e8:
            raise DomainError(f"radius function blows up near t = {float(t)!r}")
        if value <= 0.0:
            raise DomainError(f"radius function is not positive at t = {float(t)!r}")


def random_radius(rng, ts):
    """A radius over the samples ``ts`` that may change sign, blow up past
    1e8, have a pole at or between samples, or be fine."""
    a, b = (f"{x:.6f}" for x in rng.uniform(0.1, 2.0, size=2))
    pole = repr(float(rng.choice(ts))) if rng.random() < 0.5 else f"{rng.uniform(-1, 4):.6f}"
    template = rng.choice([
        "{a} + {b}*sin(3*t)",                # positive or a sign change
        "{a} - {b}*t",                       # a sign change, or none on the range
        "{a}/(t - {pole})",                  # a pole, at a sample or between
        "{a}/(t - {pole})^2",                # a positive pole
        "{a}*10^9*(t - {pole})^2 + {b}",     # beyond 1e8 away from the pole
        "{b} - {a}*10^9*(t - {pole})^2",     # below -1e8: blows up, not positive
        "ln(t - {pole}) + {a}",              # a domain fault left of the pole
        "{a} + 0*t",                         # fine
    ])
    return ex.parse(template.format(a=a, b=b, pole=pole), "t")


class TestRadiusCheck:
    def test_one_array_evaluation_matches_per_sample_loop(self):
        rng = np.random.default_rng(17)
        outcomes = set()
        for _ in range(400):
            t0 = float(rng.uniform(-1.0, 2.0))
            t_domain = (t0, t0 + float(rng.uniform(0.1, 2.0)))
            ts = np.linspace(t_domain[0], t_domain[1], 64)
            r = random_radius(rng, ts)
            try:
                reference_radius_check(r, t_domain)
                want = None
            except DomainError as err:
                want = str(err)
            try:
                fam._check_radius(r, t_domain)
                got = None
            except DomainError as err:
                got = str(err)
            faults = False
            for t in ts:
                try:
                    ex.evaluate(r, float(t))
                except EvalDomainError:
                    faults = True
            if faults:  # the loop may reach another failure first
                assert want is not None, ex.to_string(r)
                assert got is not None and got.startswith(
                    "radius function singular inside t-range: "), got
            else:
                assert got == want, ex.to_string(r)
            outcomes.add("fault" if faults else (want or "ok").split(" t = ")[0])
        assert outcomes == {"ok", "fault", "radius function blows up near",
                            "radius function is not positive at"}


class TestFlatOdeResiduals:
    def test_known_solution(self):
        eps1, _ = fam.flat_ode_residuals(
            ex.parse("1/(sin(t) - 2*cos(t))", "t"), SEED_CURVE, np.linspace(1.3, 2.8, 64), [0.0]
        )
        assert np.max(np.abs(eps1)) <= 1e-12

    def test_unit_radius_fails_ode(self):
        eps1, _ = fam.flat_ode_residuals(ex.parse("1 + 0*t", "t"), SEED_CURVE, [0.3, 1.0], [0.0])
        assert eps1 == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_planar_completion_second_residual_vanishes(self):
        circle = cv.WCurve(1.0, 0.0, 1.0, 1.0)
        _, eps2 = fam.flat_ode_residuals(
            ex.parse("1 + 0.2*sin(t)", "t"), circle, np.linspace(0.2, 1.4, 9),
            np.linspace(0.0, 3.0, 5),
        )
        assert np.max(np.abs(eps2)) == 0.0


class TestEqualCurvatureConstruction:
    def test_basic(self):
        w = fam.w_curve_with_equal_curvatures(1.0, 3.0)
        _, k2, k3 = cv.frenet_apparatus(w, 0.7).kappas[0]
        assert abs(k2 - k3) <= 1e-12

    @pytest.mark.parametrize("c, d", [(1.0, 3.0), (1.0, 3.5), (0.5, 2.0), (2.0, 0.3)])
    def test_closed_form_root(self, c, d):
        w = fam.w_curve_with_equal_curvatures(c, d)
        assert (w.c, w.d) == (c, d)
        speed = np.linalg.norm(w.derivative_arrays(np.linspace(0.0, 6.0, 7), 1)[0], axis=-1)
        assert np.max(np.abs(speed - 1.0)) <= 1e-12
        _, k2, k3 = cv.frenet_apparatus(w, 0.4).kappas[0]
        assert abs(k2 - k3) <= 1e-12

    def test_infeasible_rates(self):
        with pytest.raises(ConstraintViolationError):
            fam.w_curve_with_equal_curvatures(1.0, 1.5)  # |c^2-d^2| < 2cd

    @pytest.mark.parametrize("c, d", [(1.0, 2.4), (0.3, 0.4), (1.0, 1.0), (-1.0, 3.0),
                                      (1.0, 0.0)])
    def test_infeasible_pairs_still_raise(self, c, d):
        # |c^2 - d^2| < 2 c d, equal rates, or a rate that is not positive
        with pytest.raises(ConstraintViolationError):
            fam.w_curve_with_equal_curvatures(c, d)

    def test_five_rate_pairs(self):
        rng = np.random.default_rng(31)
        found = 0
        while found < 5:
            c = float(rng.uniform(0.6, 1.4))
            ratio = float(rng.uniform(2.8, 4.5))
            d = c * ratio
            try:
                w = fam.w_curve_with_equal_curvatures(c, d)
            except ConstraintViolationError:
                continue
            _, k2, k3 = cv.frenet_apparatus(w, 0.0).kappas[0]
            assert abs(k2 - k3) <= 1e-12
            found += 1
