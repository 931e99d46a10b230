"""Tests for the command-line front end."""

import contextlib
import importlib.util
import io
import json
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import exact
from pencil4 import cli
from pencil4 import curvature as cu
from pencil4 import curve as cv
from pencil4 import errors
from pencil4 import pencil as pc
from pencil4 import text as tx
from test_curve import INVOLUTE_COMPONENTS
from test_expr import nested_sin

SQ3 = math.sqrt(3.0)
MAX_DOUBLE = sys.float_info.max


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

    @pytest.mark.parametrize("command, cfg, extra, message", [
        ("eval", {**seed_scene(), "output": []}, [], "output must be an object"),
        ("eval", seed_scene(output={"format": "ply"}), [],
         "output.format must be 'csv' or 'obj'"),
        ("export", seed_scene(output={"projection": "stereo"}), [],
         "output.projection must be an object"),
        ("export", seed_scene(output={"format": "obj",
                                      "projection": {"kind": "drop_axis", "axis": 5}}), [],
         "projection.axis must be 1..4"),
        ("export", seed_scene(output={"format": "obj", "projection": {"kind": "fisheye"}}), [],
         "unknown projection kind 'fisheye'"),
        ("eval", seed_scene(), ["--grid", "12by12"],
         "--grid must look like 50x50, got '12by12'"),
        ("eval", [seed_scene()], [], "config root must be an object"),
        ("eval", {**analytic_scene(), "curve": {**analytic_scene()["curve"],
                                                "components": ["cos(s)", "sin(s)", "0"]}}, [],
         "curve.components must be a list of 4 expressions"),
        ("curvature", {"curve": {"kind": "w_curve", "a": 1.0, "b": 0.0, "c": 1.0, "d": 1.0},
                       "marching": {"kind": "flat_polar", "case": 1, "c1": 1.0, "c2": 0.0},
                       "domain": {"s": [0.0, 6.0], "t": [1.0, 2.6], "ns": 4, "nt": 4}}, [],
         "marching.case must be one of i, ii, iii, iv"),
        ("curvature", {"curve": {"kind": "w_curve", "a": 1.0, "b": 0.0, "c": 1.0, "d": 1.0},
                       "marching": {"kind": "flat_polar", "case": "v", "c1": 1.0, "c2": 0.0},
                       "domain": {"s": [0.0, 6.0], "t": [1.0, 2.6], "ns": 4, "nt": 4}}, [],
         "unknown flat design case 'v'"),
    ], ids=["output", "format", "projection", "axis", "projection_kind", "grid_flag", "root",
            "components", "case_type", "case_name"])
    def test_config_fault_is_one_line(self, tmp_path, capsys, command, cfg, extra, message):
        if command == "export":
            extra = [*extra, "--out", str(tmp_path / "mesh")]
        code, out, err = run(capsys, [command, "--config", write_config(tmp_path, cfg), *extra])
        assert (code, out, err) == (cli.EXIT_CONFIG, "", f"config error: {message}\n")
        assert list(tmp_path.glob("mesh*")) == []

    @pytest.mark.parametrize("section, value", [
        ("domain", 5), ("domain", "st"), ("domain", None), ("curve", "kind"), ("marching", 5),
    ], ids=["domain_int", "domain_str", "domain_null", "curve_str", "marching_int"])
    def test_section_that_is_not_an_object_is_config_error(self, tmp_path, capsys, section,
                                                            value):
        cfg = seed_scene()
        cfg[section] = value
        code, out, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert err == f"config error: {section} must be an object\n"
        assert out == ""

    def test_non_unit_speed_curve_is_config_error(self, tmp_path, capsys):
        cfg = seed_scene()
        cfg["curve"]["a"] = 1.0
        code, _, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert "unit speed" in err

    @pytest.mark.parametrize("update", [{"a": 1e155}, {"b": -1e200}, {"a": 1e155, "c": 0.0}],
                             ids=["a", "b", "a_against_zero_rate"])
    def test_overflowing_speed_is_config_error(self, tmp_path, capsys, update):
        # a^2 overflows: float ** raised OverflowError; * gives inf (or NaN
        # against a zero rate), which fails the unit-speed check
        cfg = seed_scene()
        cfg["curve"].update(update)
        code, out, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: curve: not unit speed") and err.count("\n") == 1
        assert out == ""

    def test_overflowing_analytic_speed_is_constraint_violation(self, tmp_path, capsys):
        # |gamma'|^2 overflows in the unit-speed check: the speed is not 1
        cfg = analytic_scene()
        cfg["curve"]["components"][0] += " + 10^300*s"
        got = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert got == (cli.EXIT_CONSTRAINT, "", "constraint violation: analytic curve is not "
                                                "unit speed (max | ||gamma'|| - 1 | = inf)\n")

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

    @pytest.mark.parametrize("command", ["frenet", "eval", "curvature", "verify", "export"])
    @pytest.mark.parametrize("s_range, code, message", [
        # the width overflows, so linspace would give NaN and inf values of s
        ([-1e308, 1e308], cli.EXIT_CONFIG, "config error: domain.s is wider than"),
        # the width is finite, but d s = 2 s overflows inside cos and sin
        ([1e307, 1.5e308], cli.EXIT_EVAL_DOMAIN,
         "expression error: spine frame is not finite at s = 1.15e+308"),
    ], ids=["width", "frame"])
    def test_huge_domain_is_one_error_line(self, tmp_path, capsys, command, s_range, code,
                                           message):
        cfg = seed_scene(domain={"s": s_range, "t": [-0.25, 0.25], "ns": 5, "nt": 4})
        argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x")]
        got, out, err = run(capsys, argv if command in ("verify", "export") else argv[:3])
        assert (got, out) == (code, "")
        assert err.startswith(message) and err.count("\n") == 1
        assert not list(tmp_path.glob("x*"))

    def test_range_to_the_largest_double_is_sampled_without_warning(self, tmp_path, capsys):
        # linspace's product i * step overflows at the last sample only, which
        # numpy sets to the endpoint: every s is finite and the frames too
        cfg = seed_scene(domain={"s": [-MAX_DOUBLE, 0.25], "t": [0.0, 0.3], "ns": 4, "nt": 2})
        cfg["curve"] = {"kind": "w_curve", "a": 0.6, "b": 0.8, "c": 1.0, "d": 1.0}
        code, out, err = run(capsys, ["frenet", "--config", write_config(tmp_path, cfg)])
        assert (code, err) == (cli.EXIT_OK, "")
        table = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        assert np.isfinite(table).all()
        assert table[[0, -1], 0].tolist() == [-MAX_DOUBLE, 0.25]

    @pytest.mark.parametrize("command, marching, domain, code, message", [
        # the t samples as above; then the forms overflow
        ("eval", {"kind": "ruled"}, {"s": [0.0, 6.0], "t": [-MAX_DOUBLE, 0.25]},
         cli.EXIT_EVAL_DOMAIN, "expression error: fundamental forms are not finite at "
         "(s, t) = (0.0, -1.7976931348623157e+308)\n"),
        # the oracle's stencil at the last s reaches past the largest double
        ("verify", {"kind": "ruled"}, {"s": [1.79e308, MAX_DOUBLE], "t": [0.0, 0.3]},
         cli.EXIT_RANGE, "range error: stencil of half-width 3.5953862697246315e+304 does "
         "not fit at (1.7976931348623157e+308, 0.0)\n"),
        # flat-design's step 4e-3 does not change s = 1.79e308
        ("flat-design", {"kind": "vranceanu", "r": "exp(0.2*t)", "a": 0.6, "b": 0.8},
         {"s": [1.79e308, MAX_DOUBLE], "t": [0.0, 1.0]},
         cli.EXIT_RANGE, "range error: stencil of half-width 0.008 does not fit at "
         "(1.79e+308, 0.0)\n"),
    ], ids=["samples", "stencil-reach", "stencil-step"])
    def test_range_at_the_largest_double_is_one_error_line(self, tmp_path, capsys, command,
                                                          marching, domain, code, message):
        cfg = seed_scene(marching, {**domain, "ns": 5, "nt": 4})
        cfg["curve"] = {"kind": "w_curve", "a": 0.6, "b": 0.8, "c": 1.0, "d": 1.0}
        got = run(capsys, [command, "--config", write_config(tmp_path, cfg)])
        assert got == (code, "", message)

    def test_deeply_nested_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, ["eval", "--config", str(path)])
        assert code == cli.EXIT_CONFIG and out == ""
        assert err == "config error: config JSON is nested too deeply to parse\n"

    def test_too_deep_expression_is_config_error(self, tmp_path, capsys):
        cfg = seed_scene(marching={"kind": "expressions", "A": "t" + "+t" * 2000, "B": "t"})
        code, _, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert "marching.A" in err and "deeper than" in err and "offset" in err

    def test_non_ascii_digit_is_config_error(self, tmp_path, capsys):
        cfg = seed_scene(marching={"kind": "expressions", "A": "t + ²", "B": "t"})
        code, out, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert err == "config error: marching.A: unexpected character '²' (at offset 4)\n"
        assert out == ""

    def test_grid_above_cap_in_config_is_config_error(self, tmp_path, capsys):
        cfg = seed_scene(domain={"s": [0.0, 6.0], "t": [-0.25, 0.25],
                                 "ns": 10**12, "nt": 10**12})
        code, out, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert f"at most {cli.MAX_GRID}" in err and out == ""

    def test_grid_flag_above_cap_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, seed_scene())
        for grid in (f"{cli.MAX_GRID + 1}x2", f"2x{10**12}"):
            code, out, err = run(capsys, ["eval", "--config", path, "--grid", grid])
            assert code == cli.EXIT_CONFIG
            assert f"between 2 and {cli.MAX_GRID}" in err and out == ""
        assert cli.load_scene(path, f"{cli.MAX_GRID}x2").ns == cli.MAX_GRID

    def test_deeply_nested_component_is_differentiated(self, tmp_path, capsys):
        # 40 nested sines, scaled to keep the curve unit speed: a fourth
        # derivative tree would have ~3e7 nodes, the jets visit 41
        cfg = analytic_scene()
        cfg["curve"]["components"][2] = "0.25*cos(2*s) + 0.0000000001*" + nested_sin(40)
        path = write_config(tmp_path, cfg)
        code, out, err = run(capsys, ["frenet", "--config", path])
        assert code == cli.EXIT_OK and err == "" and len(out.splitlines()) == 6
        curve = cli.load_scene(path).surface.curve
        s = np.array([0.4, 2.2, 5.1])
        fourth = curve.derivative_arrays(s, 4)[3][:, 2]
        with mp.workdps(30):
            component = exact.expression_function(curve.components[2])
            for x, got in zip(s.tolist(), fourth.tolist()):
                assert got == pytest.approx(float(mp.diff(component, mp.mpf(x), 4)), rel=1e-13)

    def test_loading_and_one_sweep_make_one_frame_batch(self, tmp_path, monkeypatch):
        # the sweep takes its frames and their exact kappa rates from one
        # batch over its ns values of s
        batches, frenet_frames = [], cv.frenet_frames

        def counted(curve, s, *args, **kwargs):
            batches.append(len(s))
            return frenet_frames(curve, s, *args, **kwargs)

        for module in (cv, pc):
            monkeypatch.setattr(module, "frenet_frames", counted)
        scene = cli.load_scene(write_config(tmp_path, analytic_scene()))
        scene.surface.sweep(*cli._grid(scene))
        assert batches == [scene.ns]

    @pytest.mark.parametrize("command", ["frenet", "eval"])
    @pytest.mark.parametrize("where, offset", [("spine", 3), ("marching", 4)])
    def test_infinite_derivative_is_expression_error(self, tmp_path, capsys, command, where,
                                                     offset):
        # sqrt is finite at 0 and its derivative is not, in a spine component
        # (the involute's first sqrt(s)) or in marching.A
        if where == "spine":
            cfg = analytic_scene()
            cfg["curve"] = {"kind": "analytic", "components": INVOLUTE_COMPONENTS,
                            "domain": [0.0, 2.5]}
        else:
            cfg = seed_scene(marching={"kind": "expressions", "A": "t + sqrt(t)", "B": "t^2"},
                             domain={"s": [0.0, 6.0], "t": [0.0, 0.5], "ns": 5, "nt": 4})
        code, out, err = run(capsys, [command, "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_EVAL_DOMAIN and out == ""
        assert err == ("expression error: sqrt has no finite derivative at element [0] "
                       f"(variable = 0.0) (source offset {offset})\n")

    def test_infinite_trig_argument_is_expression_error(self, tmp_path, capsys):
        # 10^308*10 overflows to inf; sin and cos of it are domain faults
        cfg = seed_scene(marching={"kind": "expressions", "A": "t + sin(10^308*10*t)",
                                   "B": "t^2"})
        code, out, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_EVAL_DOMAIN
        assert "of an infinite value" in err and out == ""

    @pytest.mark.parametrize("command", ["eval", "curvature", "export", "verify", "flat-design"])
    def test_overflowed_marching_value_is_expression_error(self, tmp_path, capsys, command):
        # 10^308*10*t overflows in a product, which no node checks; the sweep
        # refuses the NaN marching values before any row is written
        nan = "(10^308*10*t - 10^308*10*t)"
        cfg = seed_scene(marching={"kind": "expressions", "A": f"t + {nan}", "B": "t^2"})
        if command == "flat-design":
            cfg = {"marching": {"kind": "vranceanu", "r": f"1 + {nan}", "a": 0.6, "b": 0.8},
                   "domain": cfg["domain"]}
        argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_EVAL_DOMAIN and out == ""
        assert err == "expression error: marching scale is not finite at t = -0.25\n"
        assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the command
    @pytest.mark.parametrize("command", ["eval", "curvature", "verify", "export"])
    def test_overflowing_forms_are_expression_error(self, tmp_path, capsys, command):
        # the points are finite, but a = 1 - t k1 ~ 1e308 overflows E = a^2 + b^2
        cfg = seed_scene(marching={"kind": "ruled"},
                         domain={"s": [0.0, 6.0], "t": [1e307, 1.5e308], "ns": 5, "nt": 4})
        argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (cli.EXIT_EVAL_DOMAIN, "")
        assert err == ("expression error: fundamental forms are not finite at "
                       "(s, t) = (0.0, 1e+307)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the command
    @pytest.mark.parametrize("command", ["eval", "curvature", "verify", "export"])
    def test_overflowing_points_are_one_error_line(self, tmp_path, capsys, command):
        # A = B = 1e308 t: the marching speed overflows in the load-time stall
        # check and the points in their assembly, both quietly; the sweep's
        # check of the forms is the one line printed
        cfg = seed_scene(marching={"kind": "expressions", "A": "10^308*t", "B": "10^308*t"},
                         domain={"s": [0.0, 6.0], "t": [1.0, 1.7], "ns": 5, "nt": 4})
        argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (cli.EXIT_EVAL_DOMAIN, "")
        assert err == ("expression error: fundamental forms are not finite at "
                       "(s, t) = (0.0, 1.0)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]

    def test_benchmark_scenes_load(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "bench_scenes", Path(__file__).resolve().parents[1] / "bench" / "scenes.py")
        scenes = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, scenes)  # for its dataclasses
        spec.loader.exec_module(scenes)
        for workload in scenes.WORKLOADS:
            for seed in range(3):
                paths = scenes.write_workload(scenes.build(workload, seed),
                                              tmp_path / f"{workload}-{seed}")
                for path in paths.values():
                    cli.load_scene(path)

    def test_tracer_installs_and_uninstalls(self, tmp_path, monkeypatch, capsys):
        # the benchmark's tracer wraps functions by name and raises if one
        # is missing, so a rename fails here rather than in a traced run
        import pencil4

        spec = importlib.util.spec_from_file_location(
            "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)
        spec.loader.exec_module(tracing)
        originals = (pencil4.curve.frenet_apparatus, pencil4.pencil.PencilSurface.point_array,
                     pencil4.oracle.numeric_forms, pencil4.cli.run_verify)
        tracer = tracing.Tracer(record=False)
        try:
            tracer.install(pencil4)
            assert pencil4.oracle.numeric_forms is not originals[2]
            cfg = seed_scene(domain={"s": [0.0, 6.0], "t": [-0.25, 0.25], "ns": 3, "nt": 2})
            assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
            assert tracer.counts["oracle.reports"] == 1
        finally:
            tracer.uninstall()
        assert (pencil4.curve.frenet_apparatus, pencil4.pencil.PencilSurface.point_array,
                pencil4.oracle.numeric_forms, pencil4.cli.run_verify) == originals

    def test_benchmark_checks_pass_on_tiny_grid_scenes(self, tmp_path, monkeypatch, capsys):
        # the benchmark's own correctness checks (exit codes, verdict lines,
        # goldens and oracle agreement), run here on the tiny seed-0 scenes
        # of both workloads, so a change that breaks them (the ruled
        # adjudication and the flatness residuals of the verify workload
        # included) fails this suite rather than a benchmark run
        bench = Path(__file__).resolve().parents[1] / "bench"
        modules = {}
        for name in ("scenes", "checks"):
            spec = importlib.util.spec_from_file_location(f"bench_{name}", bench / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, spec.name, modules[name])
            spec.loader.exec_module(modules[name])
        scenes, checks = modules["scenes"], modules["checks"]
        ran = []
        for name in ("grid", "verify"):
            golden = json.loads((bench / "golden" / f"{name}-seed0-tiny.json").read_text("utf-8"))
            workload = scenes.build(name, 0, "tiny")
            paths = scenes.write_workload(workload, tmp_path / name)
            for op in workload.ops:
                if op.command == "eval":
                    continue
                argv = [op.command, "--config", str(paths[op.scene])]
                out_files = []
                if op.command == "export":
                    base = tmp_path / f"{op.scene}-export"
                    argv += ["--out", str(base)]
                    out_files = [base.with_suffix(".obj"), base.with_suffix(".csv")]
                elif op.command == "verify":
                    out_files = [tmp_path / f"{op.scene}-verify.csv"]
                    argv += ["--out", str(out_files[0])]
                code, out, _ = run(capsys, argv)
                files = {f.suffix: f.read_text(encoding="utf-8")
                         for f in out_files if f.exists()}
                output = checks.Output(code, out, files)
                dom = workload.scenes[op.scene]["domain"]
                problems = (checks.check_structure(op, output, dom["ns"], dom["nt"])
                            + checks.check_oracle(op.command, output,
                                                  cli.load_scene(paths[op.scene]), cli.orc, 8)
                            + checks.check_golden(op.command, output, golden["ops"][op.key]))
                assert problems == [], (name, op.key, problems)
                ran.append((name, op.command))
        assert sorted(ran) == sorted([("grid", "curvature"), ("grid", "export")] * 2
                                     + [("verify", "verify")] * 3
                                     + [("verify", "flat-design")])

    @pytest.mark.parametrize("scale", ["tiny", "full"])
    @pytest.mark.parametrize("workload", ["grid", "verify"])
    def test_benchmark_run_is_correct(self, tmp_path, workload, scale):
        # one timed pass of the benchmark itself, on a copy of bench/ with the
        # sources linked in: its output digests, goldens and checks must pass.
        # Both scales print through the text kernel; full grid takes ~2 s
        root = Path(__file__).resolve().parents[1]
        shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
        shutil.copytree(root / "bench", tmp_path / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        (tmp_path / "src").symlink_to(root / "src", target_is_directory=True)
        proc = subprocess.run(
            [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", workload,
             "--scale", scale, "--seconds", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert (result["correct"], result["failed"]) == (True, 0), proc.stderr

    def test_one_parser_for_subcommands_in_one_process(self, tmp_path, capsys):
        path = write_config(tmp_path, seed_scene(marching={"kind": "ruled"}))
        cli._parser()
        built = cli._parser.cache_info().misses
        code, out, _ = run(capsys, ["verify", "--config", path, "--tol", "1e-300"])
        assert code == cli.EXIT_VERIFY_FAILED and "overall: FAIL" in out
        code, out, _ = run(capsys, ["eval", "--config", path])
        assert code == 0 and out.startswith("s,t,x1,x2,x3,x4,status\n")
        code, out, _ = run(capsys, ["verify", "--config", path])  # --tol back to its default
        assert code == 0 and "overall: PASS" in out
        assert cli._parser.cache_info().misses == built
        with pytest.raises(SystemExit) as usage:
            cli.main(["eval"])
        assert usage.value.code == cli.EXIT_CONFIG
        assert "the following arguments are required: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--step", "inf"), ("--step", "0"), ("--step", "nan"), ("--step", "1e-300"),
        ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"),
    ])
    def test_bad_tolerance_or_step_is_config_error(self, tmp_path, capsys, flag, value):
        path = write_config(tmp_path, seed_scene())
        code, out, err = run(capsys, ["verify", "--config", path, flag, value])
        assert code == cli.EXIT_CONFIG and out == ""
        assert err.startswith(f"config error: {flag} must be a positive finite number")
        assert err.count("\n") == 1

    def test_usage_error_is_one_config_error_line(self, tmp_path, capsys):
        # argparse reads "-1e-3" as an option, so --step has no value
        path = write_config(tmp_path, seed_scene())
        with pytest.raises(SystemExit) as usage:
            cli.main(["verify", "--config", path, "--step", "-1e-3"])
        captured = capsys.readouterr()
        assert (usage.value.code, captured.out) == (cli.EXIT_CONFIG, "")
        assert captured.err == "config error: argument --step: expected one argument\n"

    @pytest.mark.parametrize("command, option", [
        ("frenet", ["--tol", "1e-3"]), ("eval", ["--tol", "1e-3"]),
        ("curvature", ["--step", "1e-3"]), ("eval", ["--projection", "stereo"]),
        ("verify", ["--projection", "stereo"]), ("flat-design", ["--tol", "1e-3"]),
        ("export", ["--step", "1e-3"]),
    ])
    def test_option_of_another_subcommand_is_usage_error(self, tmp_path, capsys, command,
                                                          option):
        path = write_config(tmp_path, seed_scene())
        with pytest.raises(SystemExit) as usage:
            cli.main([command, "--config", path, *option])
        assert usage.value.code == cli.EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "verify", "export"])
    def test_unwritable_out_is_output_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path, seed_scene(output={"format": "obj"}))
        target = tmp_path / "missing" / "x.csv"
        code, _, err = run(capsys, [command, "--config", path, "--out", str(target)])
        assert code == cli.EXIT_OUTPUT
        assert err.startswith("output error: ") and str(tmp_path / "missing") in err
        assert err.count("\n") == 1
        assert "9  output file could not be written" in cli._EXIT_CODES

    def test_zero_marching_is_regularity_exit(self, tmp_path, capsys):
        cfg = seed_scene(marching={"kind": "expressions", "A": "0", "B": "0"})
        code, _, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_REGULARITY
        assert "regularity" in err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out_file"])
    def test_failing_command_writes_nothing(self, tmp_path, capsys, to_file):
        # the regularity check fails before the first row: no stdout, no file
        cfg = seed_scene(marching={"kind": "expressions", "A": "0", "B": "0"})
        target = tmp_path / "eval.csv"
        code, out, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg),
                                      *["--out", str(target)] * to_file])
        assert code == cli.EXIT_REGULARITY and err.startswith("regularity violation: ")
        assert out == "" and not target.exists()

    def test_stalled_marching_scale_names_its_t(self, tmp_path, capsys):
        cfg = seed_scene(marching={"kind": "expressions", "A": "t^2", "B": "t^3"},
                         domain={"s": [0.0, 6.0], "t": [0.0, 1.0], "ns": 5, "nt": 4})
        code, out, err = run(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
        assert (code, out) == (cli.EXIT_REGULARITY, "")
        assert err == "regularity violation: A'(t)^2 + B'(t)^2 > 0 failed at t = 0.0\n"

    @pytest.mark.parametrize("command, cfg, code, message", [
        ("eval", seed_scene(domain={"s": [0.0], "t": [-0.25, 0.25], "ns": 5, "nt": 4}),
         cli.EXIT_CONFIG, "config error: domain.s must be a [lo, hi] pair"),
        ("eval", {**seed_scene(marching={"kind": "vranceanu", "a": 0.8, "b": 0.6, "r": "1"}),
                  "curve": {"kind": "w_curve", "a": 0.6, "b": 0.8, "c": 1.0, "d": 1.0}},
         cli.EXIT_CONFIG, "config error: marching.vranceanu requires curve w_curve"),
        ("export", seed_scene(output={"format": "obj", "projection": {
            "kind": "stereographic", "pole": [0, 0, 0, 2]}}),
         cli.EXIT_CONFIG, "config error: stereographic pole must be a unit 4-vector"),
        ("verify", {**seed_scene(marching={
            "kind": "expressions", "A": "1 + 0.1*sin(3.141592653589793*t)",
            "B": "0.1*sin(3.141592653589793*t)"},
            domain={"s": [0.0, 6.0], "t": [0.0, 1.0], "ns": 2, "nt": 2}),
            "curve": {"kind": "w_curve", "a": 0.6, "b": 0.8, "c": 1.0, "d": 1.0}},
         cli.EXIT_REGULARITY, "regularity violation: a^2 + b^2 > 0 failed"),
    ], ids=["one_number_range", "vranceanu_curve_mismatch", "non_unit_pole",
            "no_regular_point"])
    def test_error_path_writes_one_line_and_no_file(self, tmp_path, capsys, command, cfg,
                                                    code, message):
        path = write_config(tmp_path, cfg)
        got, out, err = run(capsys, [command, "--config", path, "--out", str(tmp_path / "out")])
        assert (got, out) == (code, "")
        assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")
        assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]

    def test_unexpected_exception_is_one_line_exit_1(self, tmp_path, capsys, monkeypatch):
        def broken(scene):
            raise RuntimeError("boom\n  in a second line")

        monkeypatch.setattr(cli, "run_eval", broken)
        code, out, err = run(capsys, ["eval", "--config", write_config(tmp_path, seed_scene())])
        assert code == cli.EXIT_UNEXPECTED
        assert err == "internal error: RuntimeError: boom in a second line\n"
        assert out == ""
        assert "1  unexpected internal error" in cli._EXIT_CODES


LABELS = {cli.EXIT_CONFIG: "config error", cli.EXIT_REGULARITY: "regularity violation",
          cli.EXIT_DEGENERATE: "degenerate frame", cli.EXIT_EVAL_DOMAIN: "expression error",
          cli.EXIT_CONSTRAINT: "constraint violation", cli.EXIT_RANGE: "range error",
          cli.EXIT_OUTPUT: "output error"}
LIBRARY_ERRORS = [c for c in vars(errors).values()
                  if isinstance(c, type) and issubclass(c, errors.Pencil4Error)
                  and c is not errors.Pencil4Error]


@pytest.mark.parametrize("cls", LIBRARY_ERRORS, ids=lambda c: c.__name__)
def test_every_library_error_has_a_documented_exit(tmp_path, capsys, monkeypatch, cls):
    args = {errors.ParseError: ("bad", 3), errors.UnknownIdentifierError: ("x", 0),
            errors.DegenerateFrameError: (2,), errors.RegularityViolationError: ("spine",)}
    error = cls(*args.get(cls, ("boom",)))

    def fail(*_):
        raise error

    monkeypatch.setattr(cli, "load_scene", fail)
    code, out, err = run(capsys, ["eval", "--config", str(tmp_path / "scene.json")])
    assert code in LABELS and f"\n  {code}  " in cli._EXIT_CODES
    assert (out, err) == ("", f"{LABELS[code]}: {error}\n")
    assert err.count(LABELS[code]) == 1


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

    @pytest.mark.parametrize("command", ["frenet", "eval"])
    @pytest.mark.parametrize("c, d, message", [
        (2.0, 2.0, "no completion convention for a generator collapsed onto the second plane"),
        (1.0, 2.0, "no completion convention for this curve (need c = d or b = 0)"),
    ], ids=["equal_rates", "unequal_rates"])
    def test_collapsed_generator_exit_code(self, tmp_path, capsys, command, c, d, message):
        # a = 0: a degenerate rotation that has no completion convention
        cfg = seed_scene()
        cfg["curve"] = {"kind": "w_curve", "a": 0.0, "b": 1.0 / d, "c": c, "d": d}
        target = tmp_path / "out.csv"
        code, out, err = run(capsys, [command, "--config", write_config(tmp_path, cfg),
                                      "--out", str(target)])
        assert code == cli.EXIT_DEGENERATE
        assert err == f"degenerate frame: {message}\n"
        assert out == "" and not target.exists()


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

    def test_polar_marching_sweeps_every_point(self, tmp_path, capsys):
        """``marching.kind = "polar"`` is A = r cos t, B = r sin t: it prints
        the rows of those expressions, every point regular."""
        domain = {"s": [0.0, 6.0], "t": [0.5, 1.5], "ns": 7, "nt": 5}
        polar = write_config(tmp_path, seed_scene({"kind": "polar", "r": "1 + t"}, domain))
        expressions = {"kind": "expressions", "A": "(1 + t)*cos(t)", "B": "(1 + t)*sin(t)"}
        written = write_config(tmp_path, seed_scene(expressions, domain), "w.json")
        for command in ("eval", "curvature"):
            code, out, err = run(capsys, [command, "--config", polar])
            assert (code, err) == (0, "")
            rows = out.splitlines()[1:]
            assert len(rows) == 7 * 5 and all(row.endswith(",ok") for row in rows)
            assert run(capsys, [command, "--config", written]) == (0, out, "")

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

    def test_normal_curvature_where_its_denominator_overflows(self, tmp_path, capsys):
        # W2 = EG ~ 3.4e210 at t = 1001: W2^{3/2} overflows where K_N does not
        r = "exp(0.12*t)*(2+sin(t))"
        cfg = {"marching": {"kind": "vranceanu", "a": 0.6, "b": 0.8, "r": r},
               "domain": {"s": [0.0, 1.0], "t": [0.0, 1001.0], "ns": 2, "nt": 3}}
        code, out, err = run(capsys, ["curvature", "--config", write_config(tmp_path, cfg)])
        assert code == 0 and err == ""

        def point(s, t):
            radius = mp.exp(mp.mpf(0.12) * t) * (2 + mp.sin(t))
            return [radius * mp.cos(t) * mp.cos(s), radius * mp.cos(t) * mp.sin(s),
                    radius * mp.sin(t) * mp.cos(s), radius * mp.sin(t) * mp.sin(s)]

        rows = [row.split(",") for row in out.splitlines()[1:]]
        rows = [row for row in rows if row[1] == "1001"]
        assert len(rows) == 2
        for row in rows:
            want = exact.invariants(point, float(row[0]), 1001.0).K_N  # up to its sign
            assert row[-1] == "ok" and want != 0.0
            assert abs(abs(float(row[5])) - abs(want)) <= 1e-10 * abs(want)

    def test_mean_curvature_where_twice_w2_overflows(self, tmp_path, capsys):
        # E ~ 1e308 at t = 1e154 on the ruled pencil: 2 W2 overflows where
        # |H|^2, about 0.0111 / t^2 there, does not
        cfg = seed_scene({"kind": "ruled"}, {"s": [0.0, 6.0], "t": [1e100, 1e154],
                                             "ns": 2, "nt": 2})
        code, out, err = run(capsys, ["curvature", "--config", write_config(tmp_path, cfg)])
        assert (code, err) == (cli.EXIT_OK, "")
        rows = [[float(x) for x in row.split(",")[:-1]] for row in out.splitlines()[1:]]
        (_, t0, *_, h0), (_, t1, *_, h1) = rows[0], rows[2]  # s = 0
        assert h1 * t1 * t1 == pytest.approx(h0 * t0 * t0, rel=1e-12)

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
            # one array call over every t of the grid
            assert len(calls) == 1
            assert np.array_equal(calls[0], np.linspace(-0.25, 0.25, 5))


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

    def test_oracle_truncation_estimate_printed(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["verify", "--config", write_config(tmp_path, seed_scene())])
        assert code == 0
        for quantity in ("K", "K_N", "H_norm_sq"):
            line = next(x for x in out.splitlines() if x.startswith(quantity + ":"))
            est = float(line.split("oracle truncation est ")[1].split(")")[0])
            assert 0.0 <= est < 1e-6

    def test_one_oracle_call_over_regular_points(self, tmp_path, monkeypatch):
        from pencil4 import oracle as orc

        scene = cli.load_scene(write_config(tmp_path, singular_ray_scene()), "6x5")
        calls = []
        numeric_forms = orc.numeric_forms
        monkeypatch.setattr(orc, "numeric_forms",
                            lambda im, u, v: calls.append((u, v)) or numeric_forms(im, u, v))
        cli.run_verify(scene, 1e-6, None)
        # one call over the regular points in t-major order; the t = 0 row
        # is irregular everywhere and is not sent to the oracle
        ss, ts = np.linspace(0.0, 1.0, 6), np.linspace(-0.1, 0.1, 5)[[0, 1, 3, 4]]
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], np.tile(ss, 4))
        assert np.array_equal(calls[0][1], np.repeat(ts, 6))

    def test_stencil_margin_follows_the_step_policy(self, tmp_path, capsys):
        # the default step 1e-4 max(1, |s|, |t|) reaches 1e-2 at s = 100, so
        # the stencil needs more room in t than at s near 0
        cfg = seed_scene(domain={"s": [90.0, 100.0], "t": [-0.25, 0.25], "ns": 5, "nt": 4})
        code, out, err = run(capsys, ["verify", "--config", write_config(tmp_path, cfg)])
        assert code == cli.EXIT_OK and err == ""
        assert out.endswith("overall: PASS\n")

    def test_tolerance_near_the_largest_double_passes(self, tmp_path, capsys):
        # tol * |oracle value| overflows: the limit is infinite
        path = write_config(tmp_path, seed_scene())
        code, out, err = run(capsys, ["verify", "--config", path, "--tol", "1e308"])
        assert (code, err) == (cli.EXIT_OK, "") and out.endswith("overall: PASS\n")

    def test_step_past_the_largest_double_is_range_error(self, tmp_path, capsys):
        # 2 h overflows: the stencil does not fit in the doubles
        path = write_config(tmp_path, seed_scene())
        got = run(capsys, ["verify", "--config", path, "--step", "1e308"])
        assert got == (cli.EXIT_RANGE, "", "range error: stencil of half-width inf does not "
                                           "fit at (0.0, -0.25)\n")

    def test_non_finite_oracle_value_is_range_error(self, tmp_path, capsys):
        # B = exp(t)^200 overflows the oracle's differences at this step: the
        # rows at t = 0.25 would hold K_N = +-inf marked ok
        cfg = seed_scene(marching={"kind": "expressions", "A": "t", "B": "exp(t)^200"},
                         domain={"s": [0.0, 6.0], "t": [-0.25, 0.25], "ns": 3, "nt": 3})
        out = tmp_path / "verify.csv"
        got = run(capsys, ["verify", "--config", write_config(tmp_path, cfg), "--step=0.5",
                           "--out", str(out)])
        assert got == (cli.EXIT_RANGE, "", "range error: oracle K_N is not finite at "
                                           "(s, t) = (0.0, 0.25) with step 0.5\n")
        assert not out.exists()

    def test_verify_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median's NaN check imports numpy.ma: +1.2 MB of resident memory
        path = write_config(tmp_path, seed_scene())
        src = Path(cli.__file__).resolve().parents[1]
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); from pencil4 import cli; "
                f"assert cli.main(['verify', '--config', {path!r}]) == 0; "
                "sys.exit('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr

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


class TestCaseIScene:
    """The planar flat design is one surface for every command: the frames
    it is swept with, the invariants reported on it and the oracle's
    measurement of its points all describe the same flat cone."""

    CFG = {
        "curve": {"kind": "w_curve", "a": 1.0, "b": 0.0, "c": 1.0, "d": 1.0},
        "marching": {"kind": "flat_polar", "case": "i", "c1": 1.0, "c2": 0.0},
        "domain": {"s": [0.0, 6.0], "t": [1.0, 2.6], "ns": 12, "nt": 12},
    }

    def test_flat_design_curvature_and_verify_agree(self, tmp_path, capsys):
        config = write_config(tmp_path, self.CFG)
        code, out, _ = run(capsys, ["flat-design", "--config", config])
        assert code == 0 and "verdict: FLAT" in out
        code, out, _ = run(capsys, ["curvature", "--config", config])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 144 and all(row[-1] == "ok" for row in rows)
        assert max(abs(float(row[4])) for row in rows) <= 1e-8
        code, out, _ = run(capsys, ["verify", "--config", config])
        assert code == 0 and "overall: PASS" in out

    def test_frenet_prints_the_swept_frames(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["frenet", "--config", write_config(tmp_path, self.CFG)])
        assert code == 0
        table = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        v3_v4 = table[:, 9:17]
        assert np.array_equal(v3_v4, np.broadcast_to(v3_v4[0], v3_v4.shape))
        assert not np.array_equal(table[:, 1:9], np.broadcast_to(table[0, 1:9], (12, 8)))


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
        # from the config, and from --projection over a drop_axis config
        for projection, flag in (({"kind": "stereographic"}, []),
                                 ({"kind": "drop_axis", "axis": 4}, ["--projection", "stereo"])):
            cfg = seed_scene(
                domain={"s": [0.0, 2.0], "t": [0.0, 0.2], "ns": 3, "nt": 3},
                output={"format": "obj", "projection": projection},
            )
            base = tmp_path / "mesh"
            code, _, err = run(
                capsys, ["export", "--config", write_config(tmp_path, cfg), "--out", str(base),
                         *flag]
            )
            assert code == cli.EXIT_RANGE
            assert "unit 3-sphere" in err
            # the projection fails before either file is opened
            assert not base.with_suffix(".obj").exists() and not base.with_suffix(".csv").exists()

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

    def test_stereographic_pole_on_a_surface_point_is_range_error(self, tmp_path, capsys):
        cfg = {
            "marching": {"kind": "vranceanu", "r": "1 + 0*t",
                          "a": 1 / math.sqrt(2), "b": 1 / math.sqrt(2)},
            "domain": {"s": [0.0, 2.0], "t": [0.0, 0.4], "ns": 3, "nt": 3},
            "output": {"format": "obj"},
        }
        scene = cli.load_scene(write_config(tmp_path, cfg))
        pole = scene.surface.sweep(*cli._grid(scene)).points[1, 2]
        cfg["output"]["projection"] = {"kind": "stereographic",
                                       "pole": (pole / np.linalg.norm(pole)).tolist()}
        base = tmp_path / "mesh"
        code, out, err = run(
            capsys, ["export", "--config", write_config(tmp_path, cfg), "--out", str(base)]
        )
        assert (code, out) == (cli.EXIT_RANGE, "")
        assert err == "range error: a surface point coincides with the projection pole\n"
        assert list(tmp_path.glob("mesh*")) == []

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

    @pytest.mark.parametrize("basis", [
        [[1e300, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[1e300, 1e300, 0, 0], [1e300, -1e300, 0, 0], [0, 0, 1, 0]],
    ], ids=["inf", "nan"])
    def test_overflowing_orthographic_basis_is_config_error(self, tmp_path, capsys, basis):
        # the Gram matrix overflows (to inf - inf = NaN in the second case):
        # one error line, no numpy warning
        cfg = seed_scene(domain={"s": [0.0, 2.0], "t": [0.0, 0.2], "ns": 3, "nt": 3},
                         output={"format": "obj",
                                 "projection": {"kind": "orthographic", "basis": basis}})
        base = tmp_path / "mesh"
        code, out, err = run(
            capsys, ["export", "--config", write_config(tmp_path, cfg), "--out", str(base)]
        )
        assert code == cli.EXIT_CONFIG
        assert err == "config error: orthographic basis must be orthonormal (within 1e-10)\n"
        assert out == "" and not list(tmp_path.glob("mesh.*"))

    @pytest.mark.parametrize("projection, message", [
        ({"kind": "orthographic", "basis": "abc"},
         "orthographic projection needs basis of three 4-vectors"),
        ({"kind": "orthographic", "basis": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0]]},
         "orthographic projection needs basis of three 4-vectors"),
        ({"kind": "orthographic", "basis": [[1, 0, 0, 0], [0, 1, "x", 0], [0, 0, 1, 0]]},
         "projection.basis[1][2] must be a number"),
        ({"kind": "orthographic", "basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, True, 0]]},
         "projection.basis[2][2] must be a number"),
        ({"kind": "stereographic", "pole": ["a", 0, 0, 1]}, "projection.pole[0] must be a number"),
        ({"kind": "stereographic", "pole": [0, 0, 0, True]},
         "projection.pole[3] must be a number"),
        ({"kind": "drop_axis", "axis": True}, "projection.axis must be a number"),
        ({"kind": "drop_axis", "axis": "4"}, "projection.axis must be a number"),
    ], ids=["basis_string", "basis_ragged", "basis_entry_string", "basis_entry_bool",
            "pole_entry_string", "pole_entry_bool", "axis_bool", "axis_string"])
    def test_non_numeric_projection_entry_is_config_error(self, tmp_path, capsys, projection,
                                                          message):
        cfg = seed_scene(domain={"s": [0.0, 2.0], "t": [0.0, 0.2], "ns": 3, "nt": 3},
                         output={"format": "obj", "projection": projection})
        base = tmp_path / "mesh"
        code, out, err = run(
            capsys, ["export", "--config", write_config(tmp_path, cfg), "--out", str(base)]
        )
        assert code == cli.EXIT_CONFIG
        assert err == f"config error: {message}\n"
        assert out == "" and not list(tmp_path.glob("mesh.*"))

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


    @pytest.mark.parametrize("spec", [
        {"kind": "orthographic", "basis": [[0.6, 0.0, 0.8, 0.0], [0.0, 1.0, 0.0, 0.0],
                                           [-0.8, 0.0, 0.6, 0.0]]},
        {"kind": "stereographic", "pole": [0.5, -0.5, 0.5, 0.5]},
    ], ids=["orthographic", "stereographic"])
    def test_projection_ignores_the_layout_of_the_points(self, spec):
        # sweep points are a view of component-major planes; BLAS sums the
        # strided rows of such a view in another order, so they are projected
        # as the contiguous rows the same points would be
        rng = np.random.default_rng(22)
        x = rng.normal(size=(2000, 4))
        x /= np.linalg.norm(x, axis=1)[:, None]
        assert np.array_equal(cli.project_points(np.asfortranarray(x), spec),
                              cli.project_points(x, spec))


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

    @pytest.mark.parametrize("command", ["frenet", "eval", "curvature"])
    def test_stdout_and_out_file_carry_the_same_bytes(self, tmp_path, capsys, command):
        """Stdout is the text decoded once, a file its bytes: both paths
        carry the same bytes over several blocks and irregular rows, and no
        file holds a carriage return."""
        path = write_config(tmp_path, singular_ray_scene())
        grid = ["--grid", "700x5"]  # three blocks of whole rows
        code, out, _ = run(capsys, [command, "--config", path, *grid])
        assert code == 0 and ("regularity:spine" in out) == (command != "frenet")
        csv = tmp_path / "out.csv"
        assert cli.main([command, "--config", path, *grid, "--out", str(csv)]) == 0
        assert out.encode() == csv.read_bytes()
        base = tmp_path / "mesh"
        assert cli.main(["export", "--config", path, "--out", str(base)]) == 0
        assert cli.main(["verify", "--config", path, "--out", str(csv)]) == 0
        capsys.readouterr()
        for written in (csv, base.with_suffix(".csv")):
            assert b"\r" not in written.read_bytes() and written.read_bytes().endswith(b"ok\n")

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


# The reference for block-wise formatting: one ``%.17g`` template per grid
# point, t-major, every value formatted where it occurs.
def reference_csv(header, fields, status=None, markers=cli._MARKERS):
    table = np.stack(np.broadcast_arrays(*fields), axis=-1).reshape(-1, len(fields))
    template = ",".join(["%.17g"] * len(fields))
    if status is None:
        rows = [template % tuple(v) for v in table.tolist()]
    else:
        rows = [template % tuple(v) + "," + markers[code]
                for v, code in zip(table.tolist(), status.ravel().tolist())]
    return "\n".join([",".join(header), *rows]) + "\n"


def reference_blocks(fields, status=None, markers=cli._MARKERS, lines=None, direct=()):
    """``text.blocks`` as one block: each line template filled per row by
    ``str.format`` with ``%.17g`` strings."""
    table = np.stack(np.broadcast_arrays(*fields), axis=-1).reshape(-1, len(fields))
    codes = [0] * len(table) if status is None else status.ravel().tolist()
    texts = [["%.17g" % v for v in row] for row in table.tolist()]
    yield ["".join(line.format(*row, status=markers[code]) for row, code in zip(texts, codes))
           .encode() for line in lines or [tx.csv_line(len(fields), status is not None)]]


def reference_obj(scene):
    """The OBJ text of a scene as one vertex template per point and one
    f-string per quad."""
    sweep = scene.surface.sweep(*cli._grid(scene))
    projected = cli.project_points(sweep.points.reshape(-1, 4), scene.projection)
    lines = ["v %.17g %.17g %.17g" % tuple(p) for p in projected.tolist()]
    ok = sweep.status == pc.OK
    quads = ok[:-1, :-1] & ok[:-1, 1:] & ok[1:, 1:] & ok[1:, :-1]
    for it, i_s in zip(*np.nonzero(quads)):
        a = int(it) * scene.ns + int(i_s)
        lines.append(f"f {a + 1} {a + 2} {a + scene.ns + 2} {a + scene.ns + 1}")
    return "\n".join(lines) + "\n"


# a few bit patterns, repeated: signed zeros, NaNs of both signs, infinities
# and exact ties, which %.17g rounds half to even
_POOL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, -0.1, 1 / 3, 5e-324,
         1.7976931348623157e308, 2.0 ** -1074 * 3, 1234567890123456.25, 1234567890123456.75,
         0.5, 2.5]


class TestBlockFormatting:
    """Block-wise, de-duplicated formatting is byte-identical to one
    ``%.17g`` template per row."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), ns=st.integers(1, 9), nt=st.integers(1, 7),
           block=st.integers(1, 20), n_fields=st.integers(0, 4), with_status=st.booleans(),
           chunk=st.integers(1, 40))
    def test_matches_per_row_template(self, data, ns, nt, block, n_fields, with_status, chunk):
        def draw_field(shape):
            values = data.draw(st.lists(st.sampled_from(_POOL) | st.floats(), min_size=1,
                                        max_size=ns * nt))
            return np.resize(np.array(values, dtype=float), shape)

        # columns that vary along s only, t only, or both, like the CLI's
        fields = [draw_field((ns,)), draw_field((nt, 1))]
        fields += [draw_field(data.draw(st.sampled_from([(ns,), (nt, 1), (nt, ns)])))
                   for _ in range(n_fields)]
        if n_fields and data.draw(st.booleans()):  # a bit copy of a drawn field
            fields.append(fields[data.draw(st.integers(2, len(fields) - 1))].copy())
        # fields formatted value by value rather than once per distinct value
        direct = data.draw(st.sets(st.integers(0, len(fields) - 1)))
        status = data.draw(st.lists(st.integers(0, 2), min_size=ns * nt, max_size=ns * nt))
        status = np.array(status, dtype=np.int8).reshape(nt, ns) if with_status else None
        header = [f"c{i}" for i in range(len(fields))]
        expected = reference_csv(header, fields, status).encode()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tx, "BLOCK_POINTS", block)  # blocks narrower and wider than ns
            assert b"".join(cli._csv(header, fields, status, direct=direct)) == expected
            mp.setattr(tx, "CHUNK", chunk)  # small chunks split the kernel's calls
            assert b"".join(cli._csv(header, fields, status, direct=direct)) == expected

    def test_module_block_size_on_uneven_grids(self):
        rng = np.random.default_rng(7)
        for ns, nt in ((tx.BLOCK_POINTS + 44, 3), (120, 5)):  # ns beyond a block; nt odd
            fields = [np.linspace(0.0, 1.0, ns), np.linspace(-1.0, 1.0, nt)[:, None],
                      rng.choice(_POOL, (nt, ns)), np.repeat(rng.normal(size=(nt, 1)), ns, 1)]
            status = rng.integers(0, 3, (nt, ns)).astype(np.int8)
            assert b"".join(cli._csv(list("stuv"), fields, status)) \
                == reference_csv(list("stuv"), fields, status).encode()

    @pytest.mark.parametrize("grid", ["7x5", "300x3"])
    def test_singular_ray_outputs_match_per_row_template(self, tmp_path, capsys, monkeypatch,
                                                         grid):
        cfg = singular_ray_scene()
        cfg["output"] = {"format": "obj"}
        path = write_config(tmp_path, cfg)

        def outputs(tag):
            got = {}
            for command in ("eval", "curvature", "verify"):
                out = tmp_path / f"{tag}-{command}.csv"
                assert cli.main([command, "--config", path, "--out", str(out), "--grid", grid]) == 0
                got[command] = out.read_text(encoding="utf-8")
            base = tmp_path / f"{tag}-mesh"
            assert cli.main(["export", "--config", path, "--out", str(base), "--grid", grid]) == 0
            got["export.csv"] = base.with_suffix(".csv").read_text(encoding="utf-8")
            got["export.obj"] = base.with_suffix(".obj").read_text(encoding="utf-8")
            capsys.readouterr()
            return got

        blocks = outputs("blocks")
        monkeypatch.setattr(tx, "blocks", reference_blocks)
        assert blocks == outputs("rows")
        assert blocks["export.obj"] == reference_obj(cli.load_scene(path, grid))
        assert sum(line.endswith(",regularity:spine") for line in blocks["eval"].split("\n")) \
            == int(grid.split("x")[0])

    @pytest.mark.parametrize("s0", [0, 1000])
    def test_export_matches_per_row_template(self, tmp_path, monkeypatch, s0):
        """A drop-axis projection's vertices are bit copies of x1..x3 and take
        their cells; an orthographic one's are formatted value by value. The
        arc from s0 = 1000 gives ``s`` cells a four-digit integer part."""
        monkeypatch.setattr(tx, "BLOCK_POINTS", 20)
        cells, formatted = tx.cells, {}
        ortho = {"kind": "orthographic",
                 "basis": [[0.6, 0.8, 0, 0], [0, 0, 0.6, 0.8], [-0.8, 0.6, 0, 0]]}
        for name, projection in [("drop", {"kind": "drop_axis", "axis": 4}), ("ortho", ortho)]:
            cfg = seed_scene(domain={"s": [s0, s0 + 6], "t": [-0.25, 0.25], "ns": 9, "nt": 7},
                             output={"format": "obj", "projection": projection})
            path = write_config(tmp_path, cfg, f"{name}.json")
            scene = cli.load_scene(path)
            sweep = scene.surface.sweep(*cli._grid(scene))
            base = tmp_path / name
            monkeypatch.setattr(tx, "cells",
                                lambda v: formatted.setdefault(name, []).append(v.size)
                                or cells(v))
            assert cli.main(["export", "--config", path, "--out", str(base)]) == 0
            assert base.with_suffix(".obj").read_text(encoding="utf-8") == reference_obj(scene)
            fields = (sweep.s, sweep.t[:, None], *np.moveaxis(sweep.points, -1, 0),
                      cu.invariants_from_forms(sweep.forms).K)
            assert base.with_suffix(".csv").read_text(encoding="utf-8") == reference_csv(
                ["s", "t", "x1", "x2", "x3", "x4", "K", "status"], fields, sweep.status)
        assert sum(formatted["ortho"]) - sum(formatted["drop"]) == 3 * 9 * 7

    @pytest.mark.parametrize("grid", ["7x5", "300x3"])
    def test_frenet_matches_per_row_template(self, tmp_path, capsys, monkeypatch, grid):
        paths = [write_config(tmp_path, seed_scene(), "w.json"),
                 write_config(tmp_path, analytic_scene(), "analytic.json")]

        def outputs():
            got = []
            for path in paths:
                code, out, _ = run(capsys, ["frenet", "--config", path, "--grid", grid])
                assert code == 0
                got.append(out)
            return got

        blocks = outputs()
        monkeypatch.setattr(tx, "blocks", reference_blocks)
        assert blocks == outputs()

    @pytest.mark.parametrize("grid", ["7x5", "300x3"])
    def test_per_axis_columns_formatted_once_per_command(self, tmp_path, monkeypatch, grid):
        """One table per command holds each distinct bit pattern of ``s``,
        ``t`` and the fields not named ``direct``; per block, the ``direct``
        fields are formatted value by value, and a bit copy of an earlier
        field not at all."""
        cfg = singular_ray_scene()
        cfg["output"] = {"format": "obj"}
        path = write_config(tmp_path, cfg)
        ns, nt = map(int, grid.split("x"))
        cells, blocks = tx.cells, tx.blocks
        formatted, expected, copied = [], [], []

        def counting_cells(values):
            formatted.append(values.size)
            return cells(values)

        def expecting_blocks(fields, *args, direct=(), **kwargs):
            bits = {j: np.asarray(f).view(np.int64) for j, f in enumerate(fields)
                    if np.shape(f) == (nt, ns)}
            copies = {j for j in bits if any(np.array_equal(bits[i], bits[j])
                                             for i in bits if i < j)}
            own = [j for j in bits if j not in copies]
            tabled = [np.asarray(f).view(np.int64).ravel() for f in fields[:2]]
            tabled += [bits[j].ravel() for j in own if j not in direct]
            expected.append(len(np.unique(np.concatenate(tabled)))
                            + sum(bits[j].size for j in own if j in direct))
            copied.append(sorted(copies))
            return blocks(fields, *args, direct=direct, **kwargs)

        monkeypatch.setattr(tx, "cells", counting_cells)
        monkeypatch.setattr(tx, "blocks", expecting_blocks)
        for command in ("eval", "curvature", "export"):
            formatted.clear()
            expected.clear()
            copied.clear()
            out = str(tmp_path / command)
            assert cli.main([command, "--config", path, "--out", str(out), "--grid", grid]) == 0
            assert sum(formatted) == expected[0]
            if command == "export":  # the drop-axis projection copies x1, x2, x3
                assert set(copied[0]) >= {7, 8, 9}

    def test_one_table_per_call_and_direct_fields_per_block(self, monkeypatch):
        """One ``text.blocks`` call sorts and formats ``s``, ``t`` and the
        repeating fields once, before its first block; each block formats
        only its rows of the ``direct`` fields."""
        ns, nt = 50, 60
        rng = np.random.default_rng(3)
        repeating = rng.choice([0.5, -0.0, 0.0, 1 / 3], (nt, ns))
        fields = [np.linspace(0.0, 1.0, ns), np.linspace(0.0, 2.0, nt)[:, None],
                  rng.normal(size=(nt, ns)), repeating, repeating.copy()]
        cells, argsort, calls = tx.cells, np.argsort, []
        monkeypatch.setattr(tx, "cells", lambda v: calls.append(("cells", v.size)) or cells(v))
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(("argsort",)) or
                            argsort(*a, **k))
        monkeypatch.setattr(tx, "BLOCK_POINTS", 1000)  # blocks of 20 rows
        blocks = tx.blocks(fields, direct=(2,))
        next(blocks)
        table = len(np.unique(np.concatenate([f.view(np.int64).ravel() for f in fields[:2]]
                                             + [repeating.view(np.int64).ravel()])))
        assert calls == [("argsort",), ("cells", table), ("cells", 20 * ns)]
        assert len(list(blocks)) == 2
        assert calls[3:] == [("cells", 20 * ns)] * 2
        # nothing to tabulate: one field, formatted value by value
        assert b"".join(cli._csv(["x"], fields[2:3], direct=(0,))) \
            == reference_csv(["x"], fields[2:3]).encode()


class TestTracedMemory:
    """Traced peaks of the 120x120 seed scene, the text written to a file.
    Eval peaks in its sweep, at 3.174 MB, and so does export, which drops
    its sweep before its first 2048-point block and frees each written block
    before the next (3.387 MB while its writer still held the previous one).
    Curvature peaks in its formatting table, at 3.570 MB: 4.175 MB while
    ``np.unique`` kept its copies of the table's bit patterns alive.  To
    stdout, captured in an ``io.StringIO`` as the benchmark captures it,
    eval peaks at 3.590 MB and curvature at 4.491 MB: the decoded block
    texts are joined for the one write."""

    @staticmethod
    def scene(tmp_path):
        cfg = seed_scene(domain={"s": [0.0, 6.0], "t": [-0.25, 0.25], "ns": 120, "nt": 120},
                         output={"format": "obj"})
        return cli.load_scene(write_config(tmp_path, cfg))

    @staticmethod
    def peak(job):
        job()  # imports and first-call caches are not part of the peak
        tracemalloc.start()
        try:
            job()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("command, bound", [("eval", 3_400_000), ("export", 3_400_000),
                                                ("curvature", 3_700_000)])
    def test_peak(self, tmp_path, command, bound):
        scene = self.scene(tmp_path)
        if command in ("eval", "curvature"):
            def job():
                cli._emit(getattr(cli, f"run_{command}")(scene), tmp_path / f"{command}.csv")
        else:
            def job():
                cli.run_export(scene, tmp_path / "mesh", scene.projection)
        assert self.peak(job) <= bound

    @pytest.mark.parametrize("command, bound", [("eval", 3_700_000), ("curvature", 4_600_000)])
    def test_stdout_peak(self, tmp_path, command, bound):
        scene = self.scene(tmp_path)

        def job():
            with contextlib.redirect_stdout(io.StringIO()):
                cli._emit(getattr(cli, f"run_{command}")(scene), None)
        assert self.peak(job) <= bound
