"""Tests for the command-line front end."""

import json
import math

import numpy as np
import pytest

from pencil4 import cli

SQ3 = math.sqrt(3.0)


def write_config(tmp_path, cfg, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def seed_scene(marching=None, domain=None, output=None):
    cfg = {
        "curve": {"kind": "w_curve", "a": SQ3 / 2, "b": 0.25, "c": 1.0, "d": 2.0},
        "marching": marching or {"kind": "expressions", "A": "t", "B": "t^2"},
        "domain": domain or {"s": [0.0, 6.0], "t": [-0.25, 0.25], "ns": 5, "nt": 4},
    }
    if output:
        cfg["output"] = output
    return cfg


def analytic_scene():
    """The seed double rotation written as four expressions in s."""
    cfg = seed_scene()
    cfg["curve"] = {
        "kind": "analytic",
        "components": ["0.8660254037844386*cos(s)", "0.8660254037844386*sin(s)",
                       "0.25*cos(2*s)", "0.25*sin(2*s)"],
        "domain": [0.0, 6.0],
    }
    return cfg


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["frenet", "--config", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_CONFIG
        assert "config error" in err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, ["frenet", "--config", str(path)])
        assert code == cli.EXIT_CONFIG

    def test_schema_violations(self, tmp_path, capsys):
        bad_cases = [
            {},  # missing everything
            {"curve": {"kind": "w_curve", "a": 1, "b": 0, "c": 1, "d": 1}},  # no marching
            seed_scene(domain={"s": [0, 1], "t": [0, 1], "ns": 1, "nt": 4}),
            seed_scene(marching={"kind": "expressions", "A": "t +", "B": "t"}),
            seed_scene(marching={"kind": "unknown"}),
        ]
        for cfg in bad_cases:
            code, _, _ = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
            assert code == cli.EXIT_CONFIG

    def test_non_unit_speed_curve_is_config_error(self, tmp_path, capsys):
        cfg = seed_scene()
        cfg["curve"]["a"] = 1.0
        code, _, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert "unit speed" in err

    def test_nan_number_rejected(self, tmp_path, capsys):
        cfg = seed_scene()
        cfg["curve"]["a"] = float("nan")  # json.dumps writes NaN
        code, out, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert "NaN is not a finite double" in err
        assert out == ""

    def test_overflowing_number_rejected(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(seed_scene()).replace("-0.25", "-1e999"), encoding="utf-8")
        code, out, err = run(capsys, ["eval", "--config", str(path)])
        assert code == cli.EXIT_CONFIG
        assert "-1e999 is not a finite double" in err
        assert out == ""

    def test_infinity_rejected(self, tmp_path, capsys):
        cfg = seed_scene(domain={"s": [0, float("inf")], "t": [-0.25, 0.25], "ns": 5, "nt": 4})
        code, _, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert "Infinity is not a finite double" in err

    def test_huge_integer_rejected(self, tmp_path, capsys):
        cfg = seed_scene()
        cfg["curve"]["a"] = 10**400
        code, _, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert "is not a finite double" in err

    def test_too_deep_expression_is_config_error(self, tmp_path, capsys):
        cfg = seed_scene(marching={"kind": "expressions", "A": "t" + "+t" * 2000, "B": "t"})
        code, _, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert "marching.A" in err and "deeper than" in err and "offset" in err

    def test_zero_marching_is_regularity_exit(self, tmp_path, capsys):
        cfg = seed_scene(marching={"kind": "expressions", "A": "0", "B": "0"})
        code, _, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_REGULARITY
        assert "regularity" in err


class TestFrenet:
    def test_header_and_constants(self, tmp_path, capsys):
        cfg = seed_scene()
        code, out, _ = run(capsys, ["frenet", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("s,v1_1")
        assert lines[0].endswith("kappa1,kappa2,kappa3")
        assert len(lines) == 1 + 5
        first = lines[1].split(",")
        assert float(first[-3]) == pytest.approx(math.sqrt(7) / 2, abs=1e-12)
        assert float(first[-2]) == pytest.approx(3 * SQ3 / (2 * math.sqrt(7)), abs=1e-12)
        assert float(first[-1]) == pytest.approx(4 / math.sqrt(7), abs=1e-12)

    def test_degenerate_analytic_curve_exit_code(self, tmp_path, capsys):
        cfg = seed_scene()
        cfg["curve"] = {
            "kind": "analytic",
            "components": ["cos(s)", "sin(s)", "0", "0"],
            "domain": [0.0, 6.0],
        }
        code, _, err = run(capsys, ["frenet", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_DEGENERATE


def singular_ray_scene():
    """Planar circle with A == 1, B == t: the spine condition fails on the
    whole t = 0 row."""
    return {
        "curve": {"kind": "w_curve", "a": 1.0, "b": 0.0, "c": 1.0, "d": 1.0},
        "marching": {"kind": "expressions", "A": "1 + 0*t", "B": "t"},
        "domain": {"s": [0.0, 1.0], "t": [-0.1, 0.1], "ns": 2, "nt": 3},
    }


class TestEval:
    def test_grid_shape_and_spine(self, tmp_path, capsys):
        cfg = seed_scene(marching={"kind": "expressions", "A": "t", "B": "t"},
                         domain={"s": [0.0, 3.0], "t": [0.0, 0.2], "ns": 3, "nt": 2})
        code, out, _ = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 3 * 2
        # first row is (s=0, t=0): the spine point gamma(0)
        row = lines[1].split(",")
        assert float(row[2]) == pytest.approx(SQ3 / 2, abs=1e-15)
        assert row[-1] == "ok"
        # t-major ordering: first block has t = 0
        for line in lines[1:4]:
            assert float(line.split(",")[1]) == 0.0

    def test_violation_markers(self, tmp_path, capsys):
        cfg = singular_ray_scene()
        code, out, _ = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        lines = out.strip().split("\n")
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses.count("regularity:spine") == 2  # the t = 0 row
        assert statuses.count("ok") == 4

    def test_grid_override(self, tmp_path, capsys):
        cfg = seed_scene()
        code, out, _ = run(
            capsys, ["eval", "--config", write_config(tmp_path, cfg), "--grid", "7x3"]
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 7 * 3


class TestCurvature:
    def test_values_match_library(self, tmp_path, capsys):
        from pencil4 import curvature as cu
        from pencil4 import curve as cv
        from pencil4 import pencil as pc

        cfg = seed_scene(domain={"s": [0.0, 2.0], "t": [0.05, 0.2], "ns": 3, "nt": 3})
        code, out, _ = run(capsys, ["curvature", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        p = pc.PencilSurface(
            cv.WCurve(SQ3 / 2, 0.25, 1.0, 2.0),
            pc.MarchingScale.from_expressions("t", "t^2", (0.05, 0.2)),
        )
        lines = out.strip().split("\n")[1:]
        for line in lines:
            parts = line.split(",")
            s, t = float(parts[0]), float(parts[1])
            rep = cu.report(p, s, t)
            assert float(parts[4]) == pytest.approx(rep.K, rel=1e-12)
            assert float(parts[5]) == pytest.approx(rep.K_N, rel=1e-12)
            assert float(parts[6]) == pytest.approx(rep.H_norm_sq, rel=1e-12)

    def test_marching_evaluated_once_per_t(self, tmp_path, monkeypatch):
        from pencil4 import pencil as pc

        for cfg in (seed_scene(), analytic_scene()):
            scene = cli.load_scene(write_config(tmp_path, cfg), "7x5")
            calls = []
            values = pc.MarchingScale.values
            monkeypatch.setattr(pc.MarchingScale, "values",
                                lambda self, t: calls.append(t) or values(self, t))
            cli.run_curvature(scene)
            monkeypatch.undo()
            assert len(calls) == 5


class TestRegularityMarkers:
    """Every grid command marks the singular row of the same scene alike."""

    def test_status_and_nan_columns_agree(self, tmp_path, capsys):
        path = write_config(tmp_path, singular_ray_scene())
        outputs = {}
        for command in ("eval", "curvature"):
            out = tmp_path / f"{command}.csv"
            assert cli.main([command, "--config", path, "--out", str(out)]) == 0
            outputs[command] = out.read_text().strip().split("\n")[1:]
        assert cli.main(["export", "--config", path, "--out", str(tmp_path / "mesh")]) == 0
        outputs["export"] = (tmp_path / "mesh.csv").read_text().strip().split("\n")[1:]
        code, out, _ = run(capsys, ["verify", "--config", path])

        rows = {name: [line.split(",") for line in lines] for name, lines in outputs.items()}
        status = [row[-1] for row in rows["eval"]]
        assert status == ["ok"] * 2 + ["regularity:spine"] * 2 + ["ok"] * 2
        for name in ("curvature", "export"):
            assert [row[-1] for row in rows[name]] == status
        for row, st in zip(rows["curvature"], status):
            assert all((v == "nan") == (st != "ok") for v in row[2:-1])
        for row, st in zip(rows["export"], status):
            assert (row[-2] == "nan") == (st != "ok")
            assert "nan" not in row[2:6]  # the point itself is always defined
        for name in ("curvature", "export"):
            assert [row[:2] for row in rows[name]] == [row[:2] for row in rows["eval"]]
        assert code == 0
        assert f"skipped {status.count('regularity:spine')}" in out


class TestVerify:
    def test_ruled_seed_scene_passes_with_adjudication(self, tmp_path, capsys):
        cfg = seed_scene(
            marching={"kind": "ruled"},
            domain={"s": [0.0, 6.0], "t": [0.0, 0.5], "ns": 8, "nt": 6},
        )
        out_csv = tmp_path / "verify.csv"
        code, out, _ = run(
            capsys,
            ["verify", "--config", write_config(tmp_path, cfg), "--out", str(out_csv)],
        )
        assert code == 0, out
        assert "overall: PASS" in out
        assert "reference K  " in out
        assert "FAIL (ratio 2.0" in out  # shortcut Gaussian misses by ~2x
        assert "reference K_N" in out and "-> pass" in out
        assert out_csv.exists()

    def test_exit_nonzero_on_tolerance_failure(self, tmp_path, capsys):
        cfg = seed_scene(
            marching={"kind": "ruled"},
            domain={"s": [0.0, 6.0], "t": [0.0, 0.5], "ns": 4, "nt": 4},
        )
        code, out, _ = run(
            capsys,
            ["verify", "--config", write_config(tmp_path, cfg), "--tol", "1e-14"],
        )
        assert code == cli.EXIT_VERIFY_FAILED
        assert "overall: FAIL" in out


class TestFlatDesign:
    def test_case_iv_verdict(self, tmp_path, capsys):
        cfg = {
            "curve": {"kind": "w_curve", "a": SQ3 / 2, "b": 0.25, "c": 1.0, "d": 2.0},
            "marching": {"kind": "flat_polar", "case": "iv",
                          "c1": 2.0 / math.sqrt(7.0), "c2": 0.0},
            "domain": {"s": [0.0, 6.0], "t": [0.8, 1.3], "ns": 7, "nt": 9},
        }
        code, out, _ = run(capsys, ["flat-design", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        assert "verdict: FLAT" in out
        assert "A(t)" in out and "B(t)" in out

    def test_case_iv_wrong_constant_exit(self, tmp_path, capsys):
        cfg = {
            "curve": {"kind": "w_curve", "a": SQ3 / 2, "b": 0.25, "c": 1.0, "d": 2.0},
            "marching": {"kind": "flat_polar", "case": "iv", "c1": 1.0, "c2": 0.0},
            "domain": {"s": [0.0, 6.0], "t": [0.8, 1.3], "ns": 7, "nt": 9},
        }
        code, _, err = run(capsys, ["flat-design", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONSTRAINT

    def test_vranceanu_flat_and_control(self, tmp_path, capsys):
        flat_cfg = {
            "marching": {"kind": "vranceanu", "r": "1*exp(0.2*t)", "a": 0.6, "b": 0.8},
            "domain": {"s": [0.0, 2.0], "t": [0.0, 1.0], "ns": 5, "nt": 5},
        }
        code, out, _ = run(
            capsys, ["flat-design", "--config", write_config(tmp_path, flat_cfg)]
        )
        assert code == 0
        assert "verdict: FLAT" in out

        control_cfg = {
            "marching": {"kind": "vranceanu", "r": "1 + 0.5*cos(t)", "a": 0.6, "b": 0.8},
            "domain": {"s": [0.0, 2.0], "t": [0.0, 1.0], "ns": 5, "nt": 5},
        }
        code, out, _ = run(
            capsys, ["flat-design", "--config", write_config(tmp_path, control_cfg)]
        )
        assert code == 0
        assert "verdict: NOT FLAT" in out

    def test_wrong_marching_kind(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, ["flat-design", "--config", write_config(tmp_path, seed_scene())]
        )
        assert code == cli.EXIT_CONFIG


class TestExport:
    def test_obj_and_csv(self, tmp_path, capsys):
        cfg = seed_scene(
            domain={"s": [0.0, 2.0], "t": [0.0, 0.2], "ns": 3, "nt": 3},
            output={"format": "obj"},
        )
        base = tmp_path / "mesh"
        code, out, _ = run(
            capsys, ["export", "--config", write_config(tmp_path, cfg), "--out", str(base)]
        )
        assert code == 0
        obj = (tmp_path / "mesh.obj").read_text().strip().split("\n")
        vs = [line for line in obj if line.startswith("v ")]
        fs = [line for line in obj if line.startswith("f ")]
        assert len(vs) == 9
        assert len(fs) == 4  # 2x2 quads, row-major
        assert fs[0] == "f 1 2 5 4"
        csv_lines = (tmp_path / "mesh.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "s,t,x1,x2,x3,x4,K,status"
        assert len(csv_lines) == 1 + 9

    def test_requires_out(self, tmp_path, capsys):
        cfg = seed_scene(output={"format": "obj"})
        code, _, _ = run(capsys, ["export", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG

    def test_stereographic_requires_sphere(self, tmp_path, capsys):
        cfg = seed_scene(
            domain={"s": [0.0, 2.0], "t": [0.0, 0.2], "ns": 3, "nt": 3},
            output={"format": "obj", "projection": {"kind": "stereographic"}},
        )
        base = tmp_path / "mesh"
        code, _, err = run(
            capsys, ["export", "--config", write_config(tmp_path, cfg), "--out", str(base)]
        )
        assert code == cli.EXIT_RANGE
        assert "unit 3-sphere" in err

    def test_stereographic_on_clifford_style_pencil(self, tmp_path, capsys):
        # Vranceanu with r == 1 lies on the unit sphere.
        cfg = {
            "marching": {"kind": "vranceanu", "r": "1 + 0*t",
                          "a": 1 / math.sqrt(2), "b": 1 / math.sqrt(2)},
            "domain": {"s": [0.0, 2.0], "t": [0.0, 0.4], "ns": 3, "nt": 3},
            "output": {"format": "obj", "projection": {"kind": "stereographic"}},
        }
        base = tmp_path / "sphere"
        code, out, _ = run(
            capsys, ["export", "--config", write_config(tmp_path, cfg), "--out", str(base)]
        )
        assert code == 0
        assert (tmp_path / "sphere.obj").exists()

    def test_orthographic_projection(self, tmp_path, capsys):
        cfg = seed_scene(
            domain={"s": [0.0, 2.0], "t": [0.0, 0.2], "ns": 3, "nt": 3},
            output={
                "format": "obj",
                "projection": {
                    "kind": "orthographic",
                    "basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                },
            },
        )
        base = tmp_path / "ortho"
        code, _, _ = run(
            capsys, ["export", "--config", write_config(tmp_path, cfg), "--out", str(base)]
        )
        assert code == 0

    def test_bad_projection_flag_is_config_error(self, tmp_path, capsys):
        cfg = seed_scene(output={"format": "obj"})
        code, _, err = run(
            capsys,
            ["export", "--config", write_config(tmp_path, cfg), "--out",
             str(tmp_path / "mesh"), "--projection", "drop:x"],
        )
        assert code == cli.EXIT_CONFIG
        assert "drop:x" in err

    def test_projection_flag_override(self, tmp_path, capsys):
        cfg = seed_scene(
            domain={"s": [0.0, 2.0], "t": [0.0, 0.2], "ns": 3, "nt": 3},
            output={"format": "obj"},
        )
        base = tmp_path / "dropped"
        code, _, _ = run(
            capsys,
            ["export", "--config", write_config(tmp_path, cfg), "--out", str(base),
             "--projection", "drop:1"],
        )
        assert code == 0


class TestDeterminism:
    @pytest.mark.parametrize("command", ["frenet", "eval", "curvature"])
    def test_byte_identical_reruns(self, tmp_path, capsys, command):
        cfg = seed_scene(domain={"s": [0.0, 4.0], "t": [-0.2, 0.2], "ns": 6, "nt": 5})
        path = write_config(tmp_path, cfg)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main([command, "--config", path, "--out", str(out1)]) == 0
        assert cli.main([command, "--config", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_csv_deterministic(self, tmp_path, capsys):
        cfg = seed_scene(
            marching={"kind": "ruled"},
            domain={"s": [0.0, 3.0], "t": [0.0, 0.4], "ns": 4, "nt": 3},
        )
        path = write_config(tmp_path, cfg)
        out1 = tmp_path / "v1.csv"
        out2 = tmp_path / "v2.csv"
        assert cli.main(["verify", "--config", path, "--out", str(out1)]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "--config", path, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
