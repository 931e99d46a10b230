"""The failure contract of the command line, as a property: a scene with
one to three leaves replaced by hostile values (numbers at the edges of the
double range, expressions with domain faults, values of the wrong JSON type)
never ends in exit 1 or a traceback.  A failure is one stderr line and no
stdout, ``verify``'s exit 6 keeps its report, a success prints nothing on
stderr, and no row marked ``ok`` holds NaN or infinity."""

import copy
import importlib.util
import io
import json
import re
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencil4 import cli
from test_cli import MAX_DOUBLE, seed_scene
from test_docs import blocks

COMMANDS = ("frenet", "eval", "curvature", "verify", "flat-design", "export")
OPTIONS = {"verify": ("--tol", "--step"), "flat-design": ("--step",)}
HOSTILE = (MAX_DOUBLE, -MAX_DOUBLE, 1e300, 1e154, 5e-324, -0.0, 10**400,
           "1/t", "ln(t)", "t^1.5", "exp(t)^200", "(-1)^t", "10^300*t",
           None, True, "x", [], {}, [1.0])


def _bench_scenes():
    path = Path(__file__).resolve().parents[1] / "bench" / "scenes.py"
    spec = importlib.util.spec_from_file_location("bench_scenes", path)
    scenes = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = scenes  # for its dataclasses
    try:
        spec.loader.exec_module(scenes)
    finally:
        del sys.modules[spec.name]
    return [cfg for workload in scenes.WORKLOADS for seed in range(3)
            for cfg in scenes.build(workload, seed, "tiny").scenes.values()]


SCENES = [json.loads(block) for block in blocks("json")] + _bench_scenes()


def _leaves(node, path=()):
    """The path of every number, string, boolean and null in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key)


@st.composite
def hostile_runs(draw):
    """A mutated scene, the subcommand to run on it and hostile values of
    its numeric options."""
    cfg = copy.deepcopy(draw(st.sampled_from(SCENES)))
    paths = st.sampled_from(list(_leaves(cfg)))
    for path in draw(st.lists(paths, min_size=1, max_size=3, unique=True)):
        value = draw(st.sampled_from(HOSTILE))
        if isinstance(value, str) and path[0] == "curve":  # curve expressions are in s
            value = re.sub(r"\bt\b", "s", value)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    command = draw(st.sampled_from(COMMANDS))
    numbers = st.sampled_from([str(v) for v in HOSTILE if type(v) in (int, float)])
    flags = [f"{flag}={draw(numbers)}" for flag in OPTIONS.get(command, ())
             if draw(st.booleans())]
    return cfg, command, flags


def _ok_rows_are_finite(text: str) -> bool:
    rows = [line.split(",")[:-1] for line in text.splitlines() if line.endswith(",ok")]
    return all(np.isfinite(np.array(row, dtype=float)).all() for row in rows)


_RULED_PAST_MAX = {"curve": {"kind": "w_curve", "a": 0.6, "b": 0.8, "c": 1.0, "d": 1.0},
                   "marching": {"kind": "ruled"},
                   "domain": {"s": [1.79e308, MAX_DOUBLE], "t": [0.0, 0.3], "ns": 5, "nt": 4}}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hostile_runs())
# linspace's i * step overflows at the last t
@example((seed_scene({"kind": "ruled"}, {"s": [0.0, 6.0], "t": [-MAX_DOUBLE, 0.25],
                                         "ns": 5, "nt": 4}), "eval", []))
# the oracle's stencil reaches past the largest double
@example((_RULED_PAST_MAX, "verify", []))
# 2 W2 overflows in the mean curvature
@example((seed_scene({"kind": "ruled"}, {"s": [0.0, 6.0], "t": [0.0, 1e154], "ns": 5, "nt": 4}),
          "curvature", []))
def test_hostile_scene_keeps_the_failure_contract(run):
    cfg, command, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = [command, "--config", str(path), *flags,
                *["--out", str(Path(tmp) / "x")] * (command == "export")]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        written = "".join(p.read_text(encoding="utf-8") for p in Path(tmp).glob("x*.csv"))
    assert code != cli.EXIT_UNEXPECTED, err
    assert f"\n  {code}  " in cli._EXIT_CODES
    if code == cli.EXIT_OK:
        assert err == ""
    elif code == cli.EXIT_VERIFY_FAILED:
        assert err == "" and out.endswith("overall: FAIL\n")
    else:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1, err
    assert _ok_rows_are_finite(out) and _ok_rows_are_finite(written)
