"""Tests for curves and Frenet frames in E^4."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil4 import curve as cv
from pencil4 import expr
from pencil4.errors import (
    ConstraintViolationError,
    DegenerateFrameError,
    UnsupportedCompletionError,
)
from support import fd_frenet

SQ3 = math.sqrt(3.0)
SEED_CURVE = cv.WCurve(SQ3 / 2, 0.25, 1.0, 2.0)

# Closed-form curvature values for the seed generator, derivable by direct
# substitution of the curve's derivatives:
#   kappa1 = sqrt(a^2 c^4 + b^2 d^4) = sqrt(7)/2
#   kappa2 = |a b c d (c^2 - d^2)| / kappa1 = 3 sqrt(3) / (2 sqrt(7))
#   kappa3 = c d / kappa1 = 4 / sqrt(7)
SEED_KAPPAS = (
    math.sqrt(7.0) / 2.0,
    3.0 * SQ3 / (2.0 * math.sqrt(7.0)),
    4.0 / math.sqrt(7.0),
)

# Unit-speed analytic curve with nonconstant curvatures (closed-form
# antiderivative of (cos(p sqrt(s)), sin(p sqrt(s)), cos(q sqrt(s)),
# sin(q sqrt(s))) / sqrt(2) with p=1, q=2).
INVOLUTE_COMPONENTS = [
    "(2*sqrt(s)*sin(sqrt(s)) + 2*cos(sqrt(s))) / sqrt(2)",
    "(-2*sqrt(s)*cos(sqrt(s)) + 2*sin(sqrt(s))) / sqrt(2)",
    "(sqrt(s)*sin(2*sqrt(s)) + 0.5*cos(2*sqrt(s))) / sqrt(2)",
    "(-sqrt(s)*cos(2*sqrt(s)) + 0.5*sin(2*sqrt(s))) / sqrt(2)",
]


def make_involute():
    return cv.AnalyticCurve.from_strings(INVOLUTE_COMPONENTS, (0.5, 2.5))


class TestCurveConstruction:
    def test_w_curve_unit_speed_enforced(self):
        with pytest.raises(ConstraintViolationError):
            cv.WCurve(1.0, 1.0, 1.0, 1.0)
        cv.WCurve(SQ3 / 2, 0.25, 1.0, 2.0)  # a^2c^2 + b^2d^2 = 3/4 + 1/4

    def test_analytic_unit_speed_enforced(self):
        with pytest.raises(ConstraintViolationError):
            cv.AnalyticCurve.from_strings(["2*s", "0", "0", "0"], (0.0, 1.0))
        cv.AnalyticCurve.from_strings(["s", "0", "0", "0"], (0.0, 1.0))

    def test_involute_curve_is_accepted(self):
        make_involute()


class TestDerivatives:
    def test_w_curve_first_derivative_at_zero(self):
        (d1,) = SEED_CURVE.derivative_arrays(0.0, 1)
        assert d1 == pytest.approx([0.0, SQ3 / 2, 0.0, 0.5], abs=1e-15)
        assert np.linalg.norm(d1) == pytest.approx(1.0, abs=1e-12)

    def test_w_curve_second_derivative_at_zero(self):
        d1, d2 = SEED_CURVE.derivative_arrays(0.0, 2)
        assert d2 == pytest.approx([-SQ3 / 2, 0.0, -1.0, 0.0], abs=1e-15)

    def test_straight_line_second_derivative(self):
        line = cv.AnalyticCurve.from_strings(["s", "0", "0", "0"], (0.0, 2.0))
        d1, d2 = line.derivative_arrays(0.7, 2)
        assert d2 == pytest.approx([0.0] * 4, abs=1e-15)

    def test_analytic_points_and_derivatives_equal_per_tree_values(self):
        # one shared jet evaluation of the component trees, bit for bit
        curve = make_involute()
        s = np.linspace(0.6, 2.4, 15)
        per_tree = np.stack([expr.evaluate(e, s, order=4) for e in curve.components], axis=-1)
        assert np.array_equal(curve.point(s), per_tree[0])
        for got, want in zip(curve.derivative_arrays(s, 4), per_tree[1:], strict=True):
            assert np.array_equal(got, want)

    def test_matches_finite_differences(self):
        for s in (0.4, 1.3):
            got = SEED_CURVE.derivative_arrays(s, 4)
            from support import fd_derivative

            for k in range(1, 5):
                want = fd_derivative(SEED_CURVE.point, s, order=k, h=0.02)
                assert got[k - 1] == pytest.approx(want, abs=5e-7)


class TestFrenetApparatus:
    """``frenet_apparatus``: a ``FrenetFrames`` with one entry."""

    def test_seed_curve_kappas(self):
        for s in (0.0, 0.9, 2.2):
            one = cv.frenet_apparatus(SEED_CURVE, s)
            assert one.frame.shape == (1, 4, 4)
            assert one.kappas[0].tolist() == pytest.approx(SEED_KAPPAS, abs=1e-12)
            assert one.rank.tolist() == [4]

    def test_matches_finite_difference_oracle(self):
        frame_fd, kappas_fd = fd_frenet(SEED_CURVE.point, 0.8, h=0.02)
        one = cv.frenet_apparatus(SEED_CURVE, 0.8)
        assert one.kappas[0].tolist() == pytest.approx(kappas_fd, abs=1e-6)
        assert one.frame[0] == pytest.approx(frame_fd, abs=1e-6)

    def test_orthonormality(self):
        frame = cv.frenet_frames(SEED_CURVE, np.linspace(0.0, 6.0, 7)).frame
        gram = frame @ frame.swapaxes(1, 2)
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_determinant_is_plus_one(self):
        frame = cv.frenet_frames(SEED_CURVE, np.linspace(0.0, 6.0, 7)).frame
        assert np.linalg.det(frame) == pytest.approx(np.ones(7), abs=1e-10)

    def test_planar_circle_degenerates_at_rank_2(self):
        circle = cv.AnalyticCurve.from_strings(["cos(s)", "sin(s)", "0", "0"], (0.0, 6.0))
        with pytest.raises(DegenerateFrameError) as ei:
            cv.frenet_apparatus(circle, 1.0)
        assert ei.value.rank == 2
        assert ei.value.kappas[0] == pytest.approx(1.0, abs=1e-12)

    def test_straight_line_degenerates_at_rank_1(self):
        line = cv.AnalyticCurve.from_strings(["s", "0", "0", "0"], (0.0, 2.0))
        with pytest.raises(DegenerateFrameError) as ei:
            cv.frenet_apparatus(line, 0.5)
        assert ei.value.rank == 1

    def test_frenet_residuals_small(self):
        h = 1e-5
        for s in (0.3, 1.7):
            here, plus, minus = (cv.frenet_apparatus(SEED_CURVE, x) for x in (s, s + h, s - h))
            dframe = (plus.frame[0] - minus.frame[0]) / (2 * h)
            k1, k2, k3 = here.kappas[0]
            V1, V2, V3, V4 = here.frame[0]
            residuals = [
                np.linalg.norm(dframe[0] - k1 * V2),
                np.linalg.norm(dframe[1] + k1 * V1 - k2 * V3),
                np.linalg.norm(dframe[2] + k2 * V2 - k3 * V4),
                np.linalg.norm(dframe[3] + k3 * V3),
            ]
            assert max(residuals) < 1e-6

    def test_analytic_curve_apparatus(self):
        inv = make_involute()
        one = cv.frenet_apparatus(inv, 1.0)
        gram = one.frame[0] @ one.frame[0].T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-9
        # closed form: kappa1(s) = sqrt((p^2+q^2)/(8s)) with p=1, q=2
        assert one.kappas[0, 0] == pytest.approx(math.sqrt(5.0 / 8.0), rel=1e-9)

    def test_kappa1_closed_form_for_random_w_curves(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c, d = rng.uniform(0.5, 2.5, size=2)
            if abs(c - d) < 0.2:
                d = c + 0.3
            theta = rng.uniform(0.2, math.pi / 2 - 0.2)
            a, b = math.cos(theta) / c, math.sin(theta) / d
            w = cv.WCurve(a, b, c, d)
            want = math.sqrt(a * a * c**4 + b * b * d**4)
            assert cv.frenet_apparatus(w, 0.37).kappas[0, 0] == pytest.approx(want, abs=1e-10)

    def test_kappas_stationary_along_w_curve(self):
        kappas = cv.frenet_frames(SEED_CURVE, np.linspace(0.0, 5.0, 9)).kappas
        assert np.all(np.ptp(kappas, axis=0) < 1e-10)


def _num(v: float) -> str:
    """A float as an expression literal that parses back to the same double."""
    text = np.format_float_positional(v, trim="0")
    return f"({text})" if v < 0 else text


def batch_curve(kind: str, c: float, ratio: float, th: float):
    """A W-curve, its analytic twin, the involute (kappas vary with s), a
    completed degenerate rotation (c = d or b = 0) or a helix lying in a
    3-space (kappa3 = 0)."""
    d = c * ratio
    a, b = math.cos(th) / c, math.sin(th) / d
    if kind == "w_curve":
        return cv.WCurve(a, b, c, d)
    if kind == "analytic_twin":
        return cv.AnalyticCurve.from_strings(
            [f"{_num(a)}*cos({_num(c)}*s)", f"{_num(a)}*sin({_num(c)}*s)",
             f"{_num(b)}*cos({_num(d)}*s)", f"{_num(b)}*sin({_num(d)}*s)"], (0.0, 7.0))
    if kind == "involute":
        return make_involute()
    if kind == "equal_rates":
        return cv.WCurve(math.cos(th) / c, math.sin(th) / c, c, c)
    if kind == "planar":
        return cv.WCurve(1.0 / c, 0.0, c, d)
    # helix (r cos s, r sin s, h s, 0) with r^2 + h^2 = 1
    r, h = math.cos(th), math.sin(th)
    return cv.AnalyticCurve.from_strings(
        [f"{_num(r)}*cos(s)", f"{_num(r)}*sin(s)", f"{_num(h)}*s", "0"], (0.0, 7.0))


class TestFrenetFrames:
    """frenet_frames over an array against frenet_apparatus per s."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["w_curve", "analytic_twin", "involute", "equal_rates",
                              "planar", "helix_in_3_space"]),
        c=st.floats(0.7, 1.2), ratio=st.floats(1.6, 2.2), th=st.floats(0.45, 1.1),
        s=st.lists(st.floats(0.6, 2.4), min_size=1, max_size=7),
    )
    def test_batch_equals_calls_of_one(self, kind, c, ratio, th, s):
        curve = batch_curve(kind, c, ratio, th)
        frames = cv.frenet_frames(curve, np.array(s))
        assert frames.frame.shape == (len(s), 4, 4)
        assert frames.kappas.shape == frames.connection.shape == (len(s), 3)
        for i, x in enumerate(s):
            one = cv.frenet_apparatus(curve, x)
            assert np.array_equal(frames.frame[i], one.frame[0])
            assert np.array_equal(frames.kappas[i], one.kappas[0])
            assert np.array_equal(frames.connection[i], one.connection[0])
            assert frames.rank[i] == one.rank[0]
        want_rank = {"equal_rates": 2, "planar": 2, "helix_in_3_space": 3}.get(kind, 4)
        assert np.all(frames.rank == want_rank)

    def test_orientation_is_fixed_per_row(self):
        class Mirrored:
            """The seed curve's derivatives with the fourth one negated beyond
            s = 1, which reverses the Gram-Schmidt orientation there."""

            def derivative_arrays(self, s, order):
                d = SEED_CURVE.derivative_arrays(s, order)
                d[3] = np.where((s > 1.0)[:, None], -d[3], d[3])
                return d

        s = np.array([0.5, 1.5, 0.7, 2.5])
        frames = cv.frenet_frames(Mirrored(), s)
        assert np.all(np.linalg.det(frames.frame) > 0.0)
        for i, x in enumerate(s):
            one = cv.frenet_apparatus(Mirrored(), x)
            assert np.array_equal(frames.frame[i], one.frame[0])
            assert np.array_equal(frames.kappas[i], one.kappas[0])
        assert np.sign(frames.kappas[:, 2]).tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_helix_frame_is_completed_in_its_3_space(self):
        one = cv.frenet_apparatus(batch_curve("helix_in_3_space", 1.0, 2.0, 0.6), 0.9)
        assert one.rank.tolist() == [3]  # kappa3 is flagged zero, kappa1 and kappa2 are not
        assert abs(one.kappas[0, 2]) < cv.KAPPA_TOL < one.kappas[0, :2].min()
        assert np.linalg.det(one.frame[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(one.frame[0, 3]) == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-12)

    def test_degenerate_frame_names_the_first_faulting_s(self):
        # a circle (kappa2 = 0) and a line (kappa1 = 0) fault at every s: the
        # first entry of the batch is named, not the smallest s
        circle = cv.AnalyticCurve.from_strings(["cos(s)", "sin(s)", "0", "0"], (0.0, 6.0))
        with pytest.raises(DegenerateFrameError) as ei:
            cv.frenet_frames(circle, np.array([1.5, 0.25, 3.0]))
        assert ei.value.rank == 2 and f"at s = {1.5!r}" in str(ei.value)
        line = cv.AnalyticCurve.from_strings(["s", "0", "0", "0"], (0.0, 2.0))
        with pytest.raises(DegenerateFrameError) as ei:
            cv.frenet_frames(line, np.array([0.75, 0.5]))
        assert ei.value.rank == 1 and f"at s = {0.75!r}" in str(ei.value)

    def test_first_fault_in_a_mixed_batch(self):
        class Straightening:
            """The seed curve's derivatives with gamma'' zeroed beyond s = 1."""

            def derivative_arrays(self, s, order):
                d = SEED_CURVE.derivative_arrays(s, order)
                d[1] = np.where((s > 1.0)[:, None], 0.0, d[1])
                return d

        curve = Straightening()
        assert np.all(cv.frenet_frames(curve, np.array([0.2, 0.9])).rank == 4)
        with pytest.raises(DegenerateFrameError) as ei:
            cv.frenet_frames(curve, np.array([0.2, 1.7, 0.9, 1.2]))
        assert ei.value.rank == 1 and str(ei.value).endswith(f"at s = {1.7!r}")


class TestRowDot:
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided", "stacked"])
    def test_rows_dot_as_contiguous_copies(self, layout):
        # a BLAS dot of a strided row sums in another order; _dot must give
        # the scalar x @ y of each row whatever the layout of its inputs
        rng = np.random.default_rng(20)
        a, b = (rng.normal(size=(2, 400, 4)) * 10.0 ** rng.integers(-6, 7, (2, 400, 4))
                for _ in range(2))
        view = {
            "contiguous": lambda x: x,
            "transposed": lambda x: x.T.copy().T,
            "strided": lambda x: np.repeat(x, 2, axis=-1)[..., ::2],
            "stacked": lambda x: np.moveaxis(np.moveaxis(x, -1, 0).copy(), 0, -1),
        }[layout]
        got = cv._dot(view(a), view(b))
        want = [[[x.copy() @ y.copy()] for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        assert np.array_equal(got, np.array(want))


class TestOrthonormalCompletion:
    def test_rows_complete_alone_as_in_a_batch(self):
        # the plane of e1, e2 needs e3 and e4, a generic plane e1 and e2 only:
        # the batch stops once every row is complete, and each row gets the
        # vectors it gets in a batch of one
        generic = np.linalg.qr(np.random.default_rng(23).normal(size=(4, 2)))[0].T
        rows = [np.stack([generic[k], np.eye(4)[k]]) for k in range(2)]
        out, found = cv.orthonormal_completion(rows, 2)
        assert found.tolist() == [2, 2]
        assert np.array_equal(out[:, 1], np.eye(4)[2:])
        for i in range(2):
            one, one_found = cv.orthonormal_completion([r[i:i + 1] for r in rows], 2)
            assert np.array_equal(out[:, i], one[:, 0]) and one_found.tolist() == [2]
            basis = np.concatenate([[r[i] for r in rows], out[:, i]])
            assert np.max(np.abs(basis @ basis.T - np.eye(4))) < 1e-12


class TestCompleteFrame:
    """The explicit completion of degenerate double-rotation generators,
    which ``frenet_frames`` routes them to."""

    def test_explicit_completion_vectors(self):
        w = cv.WCurve(1 / math.sqrt(2), 1 / math.sqrt(2), 1.0, 1.0)
        one = cv.frenet_apparatus(w, 0.0)
        frame = one.frame[0]
        assert frame[2] == pytest.approx([0.0, 1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)],
                                         abs=1e-12)
        assert frame[3] == pytest.approx([1 / math.sqrt(2), 0.0, -1 / math.sqrt(2), 0.0],
                                         abs=1e-12)
        gram = frame @ frame.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12
        assert one.kappas[0, 1:].tolist() == [0.0, 0.0]
        assert one.rank.tolist() == [2]

    def test_orthonormal_at_any_s(self):
        w = cv.WCurve(0.6, 0.8, 1.0, 1.0)
        frame = cv.frenet_frames(w, np.linspace(0.0, 6.0, 13)).frame
        gram = frame @ frame.swapaxes(1, 2)
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    @pytest.mark.parametrize("c, d, message", [
        (2.0, 2.0, "no completion convention for a generator collapsed onto the second plane"),
        (1.0, 2.0, "no completion convention for this curve (need c = d or b = 0)"),
    ], ids=["equal_rates", "unequal_rates"])
    def test_collapsed_generator_has_no_completion(self, c, d, message):
        # a = 0: the curve is the circle of radius b in the second plane
        w = cv.WCurve(0.0, 1.0 / d, c, d)
        assert w.is_degenerate_rotation
        with pytest.raises(UnsupportedCompletionError) as ei:
            cv.frenet_frames(w, np.array([0.0, 1.0]))
        assert str(ei.value) == message

    def test_frenet_apparatus_routes_degenerate_curves_here(self):
        w = cv.WCurve(0.6, 0.8, 1.0, 1.0)
        one = cv.frenet_apparatus(w, 0.3)
        assert one.rank.tolist() == [2]
        assert one.connection[0].tolist() == pytest.approx([1.0, 0.0, -1.0])

    @staticmethod
    def frame_ode_residual(w, s=0.9, h=1e-6):
        """Largest residual of the frame ODE with the recorded connection
        coefficients, against central differences of the frame."""
        here, plus, minus = cv.frenet_frames(w, np.array([s, s + h, s - h])).frame
        dframe = (plus - minus) / (2 * h)
        w1, w2, w3 = cv.frenet_apparatus(w, s).connection[0]
        V1, V2, V3, V4 = here
        return max(
            np.linalg.norm(dframe[0] - w1 * V2),
            np.linalg.norm(dframe[1] + w1 * V1 - w2 * V3),
            np.linalg.norm(dframe[2] + w2 * V2 - w3 * V4),
            np.linalg.norm(dframe[3] + w3 * V3),
        )

    def test_completion_frame_ode_coefficients(self):
        # The completion rotates: numerical frame derivatives must satisfy
        # the frame ODE with the recorded connection coefficients.
        assert self.frame_ode_residual(cv.WCurve(0.6, 0.8, 1.0, 1.0)) < 1e-8

    def test_parallel_completion_frame_ode_coefficients(self):
        assert self.frame_ode_residual(cv.WCurve(0.6, 0.8, 1.0, 1.0, parallel=True)) < 1e-8

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.6, 0.8)], ids=["planar", "equal_rates"])
    def test_parallel_completion_keeps_the_s0_normal_plane(self, a, b):
        s = np.linspace(0.0, 6.0, 13)
        parallel = cv.frenet_frames(cv.WCurve(a, b, 1.0, 1.0, parallel=True), s)
        rotating = cv.frenet_frames(cv.WCurve(a, b, 1.0, 1.0), s)
        assert np.array_equal(parallel.frame[:, :2], rotating.frame[:, :2])
        assert np.array_equal(parallel.frame[:, 2:],
                              np.broadcast_to(rotating.frame[:1, 2:], (13, 2, 4)))
        assert np.array_equal(parallel.kappas, rotating.kappas)
        assert np.array_equal(parallel.connection, parallel.kappas)  # (kappa1, 0, 0)
        gram = parallel.frame @ parallel.frame.swapaxes(1, 2)
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12
        # the orientation of the rotating completion, which is det = -1
        assert np.linalg.det(parallel.frame) == pytest.approx(np.linalg.det(rotating.frame),
                                                              abs=1e-12)

    def test_planar_circle_completion(self):
        w = cv.WCurve(0.5, 0.0, 2.0, 2.0)  # radius 1/2, rate 2
        one = cv.frenet_apparatus(w, 0.4)
        assert one.kappas[0, 0] == pytest.approx(2.0, abs=1e-12)
        gram = one.frame[0] @ one.frame[0].T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12
