"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
the captured output).  Tolerances are pinned here, not configurable.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from pencil4 import cli
from pencil4 import curvature as cu
from pencil4 import curve as cv
from pencil4 import expr as ex
from pencil4 import families as fam
from pencil4 import oracle as orc
from pencil4 import pencil as pc
from pencil4.errors import ParseError
from support import fd_frenet, richardson_first_derivative

SQ3 = math.sqrt(3.0)
SEED_CURVE = cv.WCurve(SQ3 / 2, 0.25, 1.0, 2.0)
K1 = math.sqrt(7.0) / 2.0
K2 = 3.0 * SQ3 / (2.0 * math.sqrt(7.0))
K3 = 4.0 / math.sqrt(7.0)

FLAT_STEP = 4e-3


def _report(ok: bool, label: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {label}{suffix}")


def _random_w_curve(rng) -> cv.WCurve:
    c = float(rng.uniform(0.6, 2.2))
    d = float(rng.uniform(0.6, 2.2))
    if abs(c - d) < 0.25:
        d = c + 0.35
    theta = float(rng.uniform(0.2, math.pi / 2 - 0.2))
    return cv.WCurve(math.cos(theta) / c, math.sin(theta) / d, c, d)


def _seed_surfaces():
    """The ten acceptance seed surfaces with sampling ranges."""
    rng = np.random.default_rng(20250401)
    seeds = []

    # three random double-rotation pencils with polynomial marching
    for _ in range(3):
        w = _random_w_curve(rng)
        coeffs = rng.uniform(-0.15, 0.15, size=4)
        a_text = f"{coeffs[0]:.6f}*t + {coeffs[1]:.6f}*t^2 + 0.1*t"
        b_text = f"{coeffs[2]:.6f}*t + {coeffs[3]:.6f}*t^2 - 0.1*t"
        p = pc.PencilSurface(w, pc.MarchingScale.from_expressions(a_text, b_text, (-0.3, 0.3)))
        seeds.append(("polynomial", p, (0.0, 5.0), (-0.25, 0.25)))

    # two polar pencils
    p = pc.PencilSurface(
        SEED_CURVE, fam.polar_marching(ex.parse("0.3 + 0.1*t^2", "t"), (0.05, 1.0))
    )
    seeds.append(("polar", p, (0.0, 5.0), (0.1, 0.95)))
    w2 = _random_w_curve(rng)
    p = pc.PencilSurface(w2, fam.polar_marching(ex.parse("0.25 + 0.1*sin(t)", "t"),
                                                (0.2, 1.4)))
    seeds.append(("polar", p, (0.0, 5.0), (0.25, 1.35)))

    # two ruled pencils
    seeds.append(("ruled", fam.ruled_pencil(SEED_CURVE, (0.0, 0.5)), (0.0, 5.0), (0.03, 0.45)))
    w3 = _random_w_curve(rng)
    k1_w3 = cv.frenet_apparatus(w3, 0.0).kappas[0, 0]
    t_hi = min(0.4, 0.55 * math.sqrt(2.0) / k1_w3)
    seeds.append(("ruled", fam.ruled_pencil(w3, (0.0, t_hi)), (0.0, 5.0), (0.03, t_hi - 0.02)))

    # two Vranceanu pencils (completed degenerate frames)
    p = fam.vranceanu(ex.parse("1*exp(0.2*t)", "t"), 0.6, 0.8, (0.0, 1.0))
    seeds.append(("vranceanu", p, (0.0, 5.0), (0.05, 0.95)))
    p = fam.vranceanu(ex.parse("1.2 + 0.4*sin(t)", "t"), 1 / math.sqrt(2), 1 / math.sqrt(2),
                      (0.0, 1.2))
    seeds.append(("vranceanu", p, (0.0, 5.0), (0.05, 1.15)))

    # one flat polar design
    design = fam.flat_polar_solution("iv", 2.0 / math.sqrt(7.0), 0.0, SEED_CURVE, (0.8, 1.3))
    seeds.append(("flat_polar", design.surface, (0.0, 5.0), (0.85, 1.25)))
    return seeds


def _regular_points(p, rng, n, s_range, t_range, min_e=1e-3):
    pts = []
    while len(pts) < n:
        s = float(rng.uniform(*s_range))
        t = float(rng.uniform(*t_range))
        co = p.coefficients(s, t)
        if co.a**2 + co.b**2 > min_e:
            pts.append((s, t))
    return pts


def test_criterion_1_closed_form_oracle_agreement():
    """K, |H|^2 and |K_N| match the oracle on 10 seed surfaces x 100 points
    within max(1e-6, 1e-6 |value|), in under 10 seconds."""
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    seeds = _seed_surfaces()
    assert len(seeds) == 10
    for name, p, s_range, t_range in seeds:
        im = orc.Immersion(
            p.point_array,
            (s_range[0] - 1.0, s_range[1] + 1.0),
            (t_range[0] - 0.02, t_range[1] + 0.02),
        )
        for s, t in _regular_points(p, rng, 100, s_range, t_range):
            rep_c = cu.report(p, s, t)
            rep_o = orc.numeric_forms(im, s, t)
            for closed, oracle in (
                (rep_c.K, rep_o.K),
                (rep_c.H_norm_sq, rep_o.h_norm_sq),
                (abs(rep_c.K_N), abs(rep_o.k_n)),
            ):
                dev = abs(closed - oracle)
                limit = max(1e-6, 1e-6 * abs(oracle))
                worst = max(worst, dev / limit)
                assert dev <= limit, (name, s, t, closed, oracle)
    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    _report(ok, "criterion 1: closed-form/oracle agreement on 10 seed surfaces",
            f"worst dev/limit {worst:.3f}, elapsed {elapsed:.2f} s")
    assert ok, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_2_route_equivalence():
    """Direct closed-form K equals the coefficient-route K within 1e-10."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for name, p, s_range, t_range in _seed_surfaces():
        for s, t in _regular_points(p, rng, 50, s_range, t_range):
            via_coeffs = cu.gaussian(p, s, t)
            via_closed = cu.gaussian_closed_form(p, s, t)
            worst = max(worst, abs(via_coeffs - via_closed))
            assert via_closed == pytest.approx(via_coeffs, abs=1e-10), (name, s, t)
    _report(True, "criterion 2: Gaussian-curvature route equivalence",
            f"max |route gap| {worst:.2e} <= 1e-10")


def test_criterion_3_flatness_condition_families():
    """Five marching families closing both flatness residuals analytically
    have grid max |K| <= 1e-8."""
    circle = cv.WCurve(1.0, 0.0, 1.0, 1.0)
    cases = []
    w_eq1 = fam.w_curve_with_equal_curvatures(1.0, 3.0)
    cases.append((
        "diagonal marching, equal-curvature generator",
        pc.PencilSurface(w_eq1, pc.MarchingScale.from_expressions("t", "t", (-0.2, 0.3))),
        np.linspace(-0.15, 0.25, 9),
    ))
    w_eq2 = fam.w_curve_with_equal_curvatures(1.0, 3.5)
    cases.append((
        "scaled diagonal marching, equal-curvature generator",
        pc.PencilSurface(w_eq2, pc.MarchingScale.from_expressions("0.7*t", "0.7*t", (-0.2, 0.3))),
        np.linspace(-0.15, 0.25, 9),
    ))
    c2 = 0.5
    c1 = K3 * (c2 + K1) / K2
    cases.append((
        "flat polar case ii",
        fam.flat_polar_solution("ii", c1, c2, SEED_CURVE, (0.35, 1.2)).surface,
        np.linspace(0.4, 1.15, 9),
    ))
    cases.append((
        "flat polar case iv",
        fam.flat_polar_solution("iv", 2.0 / math.sqrt(7.0), 0.0, SEED_CURVE, (0.8, 1.3)).surface,
        np.linspace(0.82, 1.28, 9),
    ))
    cases.append((
        "flat polar case i (planar generator)",
        fam.flat_polar_solution("i", 1.0, 0.0, circle, (1.0, 2.6)).surface,
        np.linspace(1.05, 2.55, 9),
    ))
    assert len(cases) == 5
    worst = 0.0
    s_vals = np.linspace(0.0, 4.0, 7)
    for name, p, t_vals in cases:
        res = p.sweep(s_vals, t_vals)
        assert res.flat, name
        for t in t_vals:
            for s in s_vals:
                k = abs(cu.gaussian(p, float(s), float(t)))
                worst = max(worst, k)
                assert k <= 1e-8, (name, s, t, k)
    _report(True, "criterion 3: analytically-flat marching families",
            f"5 families, grid max |K| {worst:.2e} <= 1e-8")


def test_criterion_4_flat_vranceanu_by_oracle():
    """Spiral-radius Vranceanu surfaces are oracle-flat (max |K| <= 1e-8);
    a non-spiral control is visibly curved (max |K| > 1e-3)."""
    rng = random.Random(13)
    worst = 0.0
    for _ in range(5):
        lam = rng.uniform(0.5, 1.6)
        mu = rng.uniform(-0.5, 0.5)
        if abs(mu) < 0.05:
            mu = 0.1
        im = fam.vranceanu_immersion(
            ex.parse(f"{lam:.6f}*exp({mu:.6f}*t)", "t"), (-0.6, 2.6), (-0.1, 1.1)
        )
        im = orc.Immersion(im.fn, im.u_domain, im.v_domain, step=FLAT_STEP)
        got = orc.grid_max_abs_gaussian(
            im, np.linspace(0.0, 2.0, 8), np.linspace(0.0, 1.0, 8)
        )
        worst = max(worst, got)
        assert got <= 1e-8, (lam, mu, got)
    control = fam.vranceanu_immersion(ex.parse("1 + 0.5*cos(t)", "t"), (-0.6, 2.6),
                                      (-0.1, 1.1))
    control = orc.Immersion(control.fn, control.u_domain, control.v_domain, step=FLAT_STEP)
    control_k = orc.grid_max_abs_gaussian(
        control, np.linspace(0.0, 2.0, 8), np.linspace(0.0, 1.0, 8)
    )
    assert control_k > 1e-3
    _report(True, "criterion 4: flat spiral Vranceanu surfaces (oracle route)",
            f"5 spirals max |K| {worst:.2e} <= 1e-8; control max |K| {control_k:.2e} > 1e-3")


def test_criterion_5_equal_curvature_ruled_pencils():
    """Equal-curvature generators found by root-finding (residual <= 1e-12)
    give ruled pencils with max |K| and max |K_N| <= 1e-8."""
    rng = np.random.default_rng(17)
    worst_k = worst_kn = 0.0
    built = 0
    while built < 5:
        c = float(rng.uniform(0.6, 1.3))
        d = c * float(rng.uniform(2.9, 4.4))
        try:
            w = fam.w_curve_with_equal_curvatures(c, d)
        except Exception:
            continue
        k1, k2, k3 = cv.frenet_apparatus(w, 0.0).kappas[0]
        assert abs(k2 - k3) <= 1e-12
        t_hi = min(0.4, 0.55 * math.sqrt(2.0) / k1)
        p = fam.ruled_pencil(w, (0.0, t_hi))
        for s in np.linspace(0.0, 3.0, 6):
            for t in np.linspace(0.0, t_hi * 0.9, 6):
                rep = cu.report(p, float(s), float(t))
                worst_k = max(worst_k, abs(rep.K))
                worst_kn = max(worst_kn, abs(rep.K_N))
                assert abs(rep.K) <= 1e-8
                assert abs(rep.K_N) <= 1e-8
        built += 1
    _report(True, "criterion 5: flat ruled pencils over equal-curvature generators",
            f"max |K| {worst_k:.2e}, max |K_N| {worst_kn:.2e} <= 1e-8")


def test_criterion_6_flat_polar_cases():
    """All four flat polar designs close both proof-ODE residuals (<= 1e-9)
    and are grid-flat (|K| <= 1e-8); case iv desk numbers pinned."""
    circle = cv.WCurve(1.0, 0.0, 1.0, 1.0)
    c2_ii = 0.5
    c1_ii = K3 * (c2_ii + K1) / K2
    runs = [
        ("i", 1.0, 0.0, circle, (1.0, 2.6)),
        ("ii", c1_ii, c2_ii, SEED_CURVE, (0.35, 1.2)),
        ("iii", 1.0, 0.0, circle, (3.55, 4.5)),
        ("iv", 2.0 / math.sqrt(7.0), 0.0, SEED_CURVE, (0.8, 1.3)),
    ]
    details = []
    for case, c1, c2, curve, t_range in runs:
        design = fam.flat_polar_solution(case, c1, c2, curve, t_range)
        assert design.max_ode_residual_1 <= 1e-9, case
        assert design.max_ode_residual_2 <= 1e-9, case
        assert design.max_abs_gaussian <= 1e-8, case
        assert design.flat, case
        details.append(f"{case}: ode ({design.max_ode_residual_1:.1e}, "
                       f"{design.max_ode_residual_2:.1e})")
        if case == "iv":
            # desk numbers: c1 = 2/sqrt(7) matches kappa1 = sqrt(7)/2, and
            # the radius ODE closes to full precision
            assert c1 == pytest.approx(2.0 / math.sqrt(7.0))
            assert abs(cv.frenet_apparatus(curve, 0.0).kappas[0, 0] - 1.0 / c1) <= 1e-12
            assert design.max_ode_residual_1 <= 1e-12
    _report(True, "criterion 6: four flat polar designs verified", "; ".join(details))


def _ruled_verify_config(tmp_path):
    cfg = {
        "curve": {"kind": "w_curve", "a": SQ3 / 2, "b": 0.25, "c": 1.0, "d": 2.0},
        "marching": {"kind": "ruled"},
        "domain": {"s": [0.0, 6.0], "t": [0.0, 0.5], "ns": 50, "nt": 50},
    }
    path = tmp_path / "ruled.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_criterion_7_reference_formula_adjudication(tmp_path, capsys):
    """The verify command on the ruled pencil (50x50 grid, t in [0, 0.5])
    passes at 1e-6 and reports the shortcut Gaussian formula failing with
    ratio ~2 at t = 0 while the shortcut normal curvature passes; the
    report is deterministic."""
    path = _ruled_verify_config(tmp_path)
    code = cli.main(["verify", "--config", path])
    out1 = capsys.readouterr().out
    assert code == 0, out1
    assert "overall: PASS" in out1
    code = cli.main(["verify", "--config", path])
    out2 = capsys.readouterr().out
    assert out1 == out2  # deterministic report

    # shortcut Gaussian fails with measured ratio ~ 2
    k_line = next(line for line in out1.splitlines() if "reference K  " in line)
    assert "FAIL" in k_line
    ratio = float(k_line.split("ratio")[1].strip(" )"))
    assert ratio == pytest.approx(2.0, abs=1e-9)
    # computed value at t = 0 equals the hand value -(k2-k3)^2/2 ~ -0.140385
    assert -((K2 - K3) ** 2) / 2.0 == pytest.approx(-0.140385, abs=1e-6)
    assert "-0.14038502" in k_line

    # shortcut normal curvature passes at t = 0 with value ~ +0.3505
    kn_line = next(line for line in out1.splitlines() if "reference K_N" in line)
    assert "-> pass" in kn_line
    assert "0.35048094" in kn_line
    assert -K1 * (K2 - K3) / 2.0 == pytest.approx(0.3505, abs=5e-4)
    _report(True, "criterion 7: shortcut-formula adjudication on the ruled pencil",
            f"ratio {ratio:.6f} ~ 2; K_N reference passes at t = 0")


def test_criterion_8_frenet_suite():
    """Orthonormality <= 1e-10 and frame-ODE residuals <= 1e-6 on 256
    samples for 20 random generators; seed-curve curvatures match the
    independent finite-difference oracle within 1e-6."""
    rng = np.random.default_rng(23)
    h = 1e-5
    worst_orth = worst_res = 0.0
    for _ in range(20):
        w = _random_w_curve(rng)
        frame = cv.frenet_frames(w, np.linspace(0.0, 2.0 * math.pi, 256)).frame
        orth = float(np.max(np.abs(frame @ frame.swapaxes(1, 2) - np.eye(4))))
        worst_orth = max(worst_orth, orth)
        assert orth <= 1e-10
        s = np.linspace(0.3, 5.9, 16)  # ODE residuals on a subsample
        here, plus, minus = (cv.frenet_frames(w, x) for x in (s, s + h, s - h))
        for i in range(len(s)):
            dframe = (plus.frame[i] - minus.frame[i]) / (2 * h)
            k1, k2, k3 = here.kappas[i]
            V1, V2, V3, V4 = here.frame[i]
            residuals = [
                np.linalg.norm(dframe[0] - k1 * V2),
                np.linalg.norm(dframe[1] + k1 * V1 - k2 * V3),
                np.linalg.norm(dframe[2] + k2 * V2 - k3 * V4),
                np.linalg.norm(dframe[3] + k3 * V3),
            ]
            worst_res = max(worst_res, max(residuals))
            assert max(residuals) <= 1e-6
    _, kappas_fd = fd_frenet(SEED_CURVE.point, 0.8, h=0.02)
    kappas = cv.frenet_apparatus(SEED_CURVE, 0.8).kappas[0]
    assert kappas == pytest.approx(kappas_fd, abs=1e-6)
    assert kappas == pytest.approx([1.322876, 0.981981, 1.511858], abs=1e-6)
    _report(True, "criterion 8: frame suite for 20 random generators",
            f"worst orthonormality {worst_orth:.2e}, worst ODE residual {worst_res:.2e}")


def test_criterion_9_expression_module():
    """1000 random derivative checks against Richardson finite differences
    at 1e-5 relative; 20 malformed inputs rejected with byte offsets."""
    from test_expr import random_expression

    rng = random.Random(20240817)
    checked = 0
    applicable = 0
    while checked < 1000:
        e = random_expression(rng, rng.randint(1, 5))
        x = rng.uniform(-2.0, 2.0)
        try:
            value, d = ex.evaluate(e, x, order=1)
            fd = richardson_first_derivative(lambda y: ex.evaluate(e, y), x, h=1e-5)
        except Exception:
            continue
        checked += 1
        if not (math.isfinite(value) and math.isfinite(d) and math.isfinite(fd)):
            continue
        if max(abs(value), abs(d)) > 1e6:
            continue
        applicable += 1
        assert abs(d - fd) <= 1e-5 * max(1.0, abs(value)), (ex.to_string(e), x)
    assert applicable >= 900  # the filter may drop only a small fraction

    malformed = [
        "", "   ", "1 +", "* t", "(t", "t)", "sin t", "sin(t", "1..2", "1.",
        "t t", "2 3", "t ^", "()", "t @ 2", "sin()", "cos(t))", "1 / ", "^2",
        "t + (pi * ",
    ]
    assert len(malformed) == 20
    for bad in malformed:
        with pytest.raises(ParseError) as ei:
            ex.parse(bad, "t")
        assert isinstance(ei.value.position, int) and ei.value.position >= 0
    _report(True, "criterion 9: expression module",
            f"{applicable}/1000 derivative checks at 1e-5; 20 malformed inputs rejected")


@pytest.mark.parametrize("command", ["frenet", "eval", "curvature", "verify", "flat-design"])
def test_criterion_10_determinism(tmp_path, capsys, command):
    """Two runs of any CLI command with the same config produce
    byte-identical output."""
    if command == "flat-design":
        cfg = {
            "curve": {"kind": "w_curve", "a": SQ3 / 2, "b": 0.25, "c": 1.0, "d": 2.0},
            "marching": {"kind": "flat_polar", "case": "iv",
                          "c1": 2.0 / math.sqrt(7.0), "c2": 0.0},
            "domain": {"s": [0.0, 6.0], "t": [0.8, 1.3], "ns": 6, "nt": 7},
        }
    else:
        cfg = {
            "curve": {"kind": "w_curve", "a": SQ3 / 2, "b": 0.25, "c": 1.0, "d": 2.0},
            "marching": {"kind": "ruled"},
            "domain": {"s": [0.0, 6.0], "t": [0.0, 0.5], "ns": 6, "nt": 5},
        }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out1 = tmp_path / "run1.out"
    out2 = tmp_path / "run2.out"
    assert cli.main([command, "--config", str(path), "--out", str(out1)]) == 0
    text1 = capsys.readouterr().out
    assert cli.main([command, "--config", str(path), "--out", str(out2)]) == 0
    text2 = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert text1 == text2
    _report(True, f"criterion 10: deterministic output for {command}")


def test_criterion_10_export_determinism(tmp_path, capsys):
    cfg = {
        "curve": {"kind": "w_curve", "a": SQ3 / 2, "b": 0.25, "c": 1.0, "d": 2.0},
        "marching": {"kind": "expressions", "A": "t", "B": "t^2"},
        "domain": {"s": [0.0, 3.0], "t": [0.0, 0.2], "ns": 4, "nt": 4},
        "output": {"format": "obj"},
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    for base in ("m1", "m2"):
        assert cli.main(["export", "--config", str(path), "--out", str(tmp_path / base)]) == 0
        capsys.readouterr()
    assert (tmp_path / "m1.obj").read_bytes() == (tmp_path / "m2.obj").read_bytes()
    assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
    _report(True, "criterion 10: deterministic output for export")
