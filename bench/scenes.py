"""Seeded scene generator for the pencil4 benchmark.

Every workload is a list of operations; an operation is one ``pencil4``
subcommand run on one generated scene file.  The seed picks the unit-speed
spine parameters and the marching coefficients; grid sizes are fixed per
workload and scale.  Scenes are valid by construction: rates and ranges keep
both regularity conditions away from zero.

The program only ever sees the JSON files written by ``write_workload``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("grid", "verify")
SCALES = ("full", "tiny")

# (ns, nt) per workload and scale
_GRID = {"full": (120, 120), "tiny": (6, 6)}
_VERIFY = {"full": (40, 40), "tiny": (4, 4)}
_VRANCEANU = {"full": (16, 16), "tiny": (3, 3)}


@dataclass
class Op:
    """One subcommand on one scene, with what a correct run must show."""

    key: str                # unique within the workload; names golden entries
    command: str            # eval | curvature | export | verify | flat-design
    scene: str              # scene name (file stem)
    points: int             # grid points the operation delivers
    verdict: str | None = None  # expected verify / flat-design verdict line


@dataclass
class Workload:
    name: str
    scenes: dict[str, dict] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)

    def add(self, name: str, cfg: dict, commands: list[str],
            verdicts: dict[str, str] | None = None) -> None:
        self.scenes[name] = cfg
        ns, nt = cfg["domain"]["ns"], cfg["domain"]["nt"]
        for command in commands:
            verdict = (verdicts or {}).get(command)
            self.ops.append(Op(f"{name}/{command}", command, name, ns * nt, verdict))


# ---------------------------------------------------------------------------
# Spines and marching functions
# ---------------------------------------------------------------------------


def _num(v: float) -> str:
    """A float as an expression literal that parses back to the same double
    (positional: the expression language has no exponent notation)."""
    text = np.format_float_positional(float(v))
    return f"({text})" if v < 0 else text


def w_curve(rng: random.Random) -> dict:
    """Nondegenerate unit-speed double rotation: a = cos(th)/c, b = sin(th)/d,
    so a^2 c^2 + b^2 d^2 = 1, with kappa1 <= d < 2.7."""
    c = rng.uniform(0.7, 1.2)
    d = c * rng.uniform(1.6, 2.2)
    th = rng.uniform(0.45, 1.1)
    return {"kind": "w_curve", "a": math.cos(th) / c, "b": math.sin(th) / d, "c": c, "d": d}


def analytic_curve(rng: random.Random) -> dict:
    """The analytic twin of a generated W-curve: the same double rotation
    written as four expressions in s, so its frame comes from symbolic
    derivatives and Gram-Schmidt instead of the closed form."""
    w = w_curve(rng)
    a, b, c, d = (_num(w[k]) for k in "abcd")
    s0 = rng.uniform(0.0, 1.0)
    return {
        "kind": "analytic",
        "components": [f"{a}*cos({c}*s)", f"{a}*sin({c}*s)",
                       f"{b}*cos({d}*s)", f"{b}*sin({d}*s)"],
        "domain": [s0, s0 + rng.uniform(3.0, 6.0)],
    }


def expressions_marching(rng: random.Random) -> dict:
    """A = a1 t + a2 t^2, B = b1 t^2 + b2 sin t on |t| <= 0.25: A' >= 0.35,
    and |A| <= 0.28 keeps 1 - kappa1 A > 0.2 for every generated spine."""
    a1, a2 = rng.uniform(0.6, 1.0), rng.uniform(-0.5, 0.5)
    b1, b2 = rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3)
    return {
        "kind": "expressions",
        "A": f"{_num(a1)}*t + {_num(a2)}*t^2",
        "B": f"{_num(b1)}*t^2 + {_num(b2)}*sin(t)",
    }


def vranceanu(rng: random.Random) -> dict:
    """Flat Vranceanu surface: spiral radius r0 exp(k t)."""
    a = rng.uniform(0.5, 0.8)
    r = f"{_num(rng.uniform(0.8, 1.3))}*exp({_num(rng.uniform(0.1, 0.4))}*t)"
    return {"kind": "vranceanu", "r": r, "a": a, "b": math.sqrt(1.0 - a * a)}


def _scene(curve: dict | None, marching: dict, s_range, t_range, size) -> dict:
    cfg = {
        "marching": marching,
        "domain": {"s": list(s_range), "t": list(t_range), "ns": size[0], "nt": size[1]},
    }
    if curve is not None:
        cfg["curve"] = curve
    return cfg


def _s_range(curve: dict, rng: random.Random) -> list[float]:
    if curve["kind"] == "analytic":
        return list(curve["domain"])
    s0 = rng.uniform(0.0, 1.0)
    return [s0, s0 + rng.uniform(3.0, 6.0)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def build(workload: str, seed: int, scale: str = "full") -> Workload:
    """The operations and scene configs of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"pencil4-bench/{workload}/{seed}")
    w = Workload(workload)
    if workload == "grid":
        size = _GRID[scale]
        for name, curve in (("w_curve", w_curve(rng)), ("analytic", analytic_curve(rng))):
            cfg = _scene(curve, expressions_marching(rng), _s_range(curve, rng),
                         [-0.25, 0.25], size)
            cfg["output"] = {"format": "obj"}
            w.add(name, cfg, ["eval", "curvature", "export"])
    elif workload == "verify":
        size = _VERIFY[scale]
        for name, curve, marching, t_range in (
            ("w_curve", w_curve(rng), expressions_marching(rng), [-0.25, 0.25]),
            ("analytic", analytic_curve(rng), expressions_marching(rng), [-0.25, 0.25]),
            ("ruled", w_curve(rng), {"kind": "ruled"}, [0.0, 0.3]),
        ):
            w.add(name, _scene(curve, marching, _s_range(curve, rng), t_range, size),
                  ["verify"], {"verify": "overall: PASS"})
        w.add("vranceanu", _scene(None, vranceanu(rng), [0.0, 2.0], [0.0, 1.0],
                                  _VRANCEANU[scale]),
              ["flat-design"], {"flat-design": "verdict: FLAT"})
    return w


def write_workload(w: Workload, directory: Path) -> dict[str, Path]:
    """Write every scene of ``w`` as JSON under ``directory``; returns the
    scene name -> path map."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in w.scenes.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        paths[name] = path
    return paths
