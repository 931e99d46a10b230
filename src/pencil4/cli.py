"""Command-line front end: config parsing, grid sweeps, verification
reports and mesh/field export.

One JSON document describes a scene (curve + marching + domain + output);
subcommands sweep it:

    pencil4 frenet      --config scene.json [--out csv]
    pencil4 eval        --config scene.json [--out csv]
    pencil4 curvature   --config scene.json [--out csv]
    pencil4 verify      --config scene.json [--out csv] [--tol X] [--step H]
    pencil4 flat-design --config scene.json [--step H]
    pencil4 export      --config scene.json --out base [--projection SPEC]

CSV output is deterministic: fixed 17-significant-digit formatting, rows
t-major then s, no timestamps.  Grid points violating a regularity
condition become rows with a status marker instead of aborting the sweep
(verify excludes them from comparison).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import curvature as cu
from . import expr as ex
from . import families as fam
from . import oracle as orc
from . import pencil as pc
from .curve import AnalyticCurve, CurveSpec, WCurve, frenet_apparatus
from .errors import (
    ConfigError,
    ConstraintViolationError,
    DegenerateFrameError,
    DomainError,
    EvalDomainError,
    ParseError,
    Pencil4Error,
    RankDeficiencyError,
    RegularityViolationError,
    SingularProfileSystemError,
    StepUnderflowError,
    UnsupportedCompletionError,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_REGULARITY = 3
EXIT_DEGENERATE = 4
EXIT_EVAL_DOMAIN = 5
EXIT_VERIFY_FAILED = 6
EXIT_CONSTRAINT = 7
EXIT_RANGE = 8

_EXIT_CODES = """exit codes:
  0  success (verify: every compared quantity within tolerance)
  1  unexpected internal error
  2  configuration unreadable or schema-invalid
  3  surface regularity violation
  4  degenerate frame without a completion convention
  5  expression evaluation domain fault
  6  verification tolerance failure
  7  constructor precondition violated (unit speed, case constraints)
  8  parameter range hits a pole / singular system / oracle step failure
"""

VERIFY_DEFAULT_TOL = 1e-6
ADJUDICATION_TOL = 1e-6


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scene:
    curve: CurveSpec
    surface: pc.PencilSurface
    marching_kind: str
    s_range: tuple[float, float]
    t_range: tuple[float, float]
    ns: int
    nt: int
    output_format: str
    projection: dict
    flat_design: fam.FlatPolarDesign | None = None
    vranceanu_radius: ex.Expr | None = None


def _finite_number(text: str, kind: type):
    """A JSON number that converts to a finite double, else ConfigError:
    NaN or an overflowing value would pass every ``x <= tol`` test."""
    try:
        value = kind(text)
        if math.isfinite(float(value)):
            return value
    except (OverflowError, ValueError):
        pass
    raise ConfigError(f"config number {text[:20]}{'...' * (len(text) > 20)} "
                      "is not a finite double")


def _need(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing {where}.{key}")
    return cfg[key]


def _real(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a [lo, hi] pair")
    lo, hi = _real(value[0], where + "[0]"), _real(value[1], where + "[1]")
    if not hi > lo:
        raise ConfigError(f"{where} must be a nondegenerate range")
    return (lo, hi)


def _parse_expr(text, var: str, where: str) -> ex.Expr:
    if not isinstance(text, str):
        raise ConfigError(f"{where} must be an expression string")
    try:
        return ex.parse(text, var)
    except ParseError as err:
        raise ConfigError(f"{where}: {err}") from err


def _build_curve(cfg: dict) -> CurveSpec:
    kind = _need(cfg, "kind", "curve")
    if kind == "w_curve":
        try:
            return WCurve(
                _real(_need(cfg, "a", "curve"), "curve.a"),
                _real(_need(cfg, "b", "curve"), "curve.b"),
                _real(_need(cfg, "c", "curve"), "curve.c"),
                _real(_need(cfg, "d", "curve"), "curve.d"),
            )
        except ConstraintViolationError as err:
            raise ConfigError(f"curve: {err}") from err
    if kind == "analytic":
        comps = _need(cfg, "components", "curve")
        if not isinstance(comps, list) or len(comps) != 4:
            raise ConfigError("curve.components must be a list of 4 expressions")
        domain = _pair(_need(cfg, "domain", "curve"), "curve.domain")
        parsed = [_parse_expr(c, "s", f"curve.components[{i}]") for i, c in enumerate(comps)]
        return AnalyticCurve(tuple(parsed), domain)
    raise ConfigError(f"unknown curve kind {kind!r}")


def load_scene(path: str | Path, grid_override: str | None = None) -> Scene:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    try:
        cfg = json.loads(raw, parse_constant=lambda text: _finite_number(text, float),
                         parse_float=lambda text: _finite_number(text, float),
                         parse_int=lambda text: _finite_number(text, int))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")

    domain = _need(cfg, "domain", "config")
    s_range = _pair(_need(domain, "s", "domain"), "domain.s")
    t_range = _pair(_need(domain, "t", "domain"), "domain.t")
    ns = _need(domain, "ns", "domain")
    nt = _need(domain, "nt", "domain")
    if not isinstance(ns, int) or not isinstance(nt, int) or ns < 2 or nt < 2:
        raise ConfigError("domain.ns and domain.nt must be integers >= 2")
    if grid_override:
        try:
            ns_text, nt_text = grid_override.lower().split("x")
            ns, nt = int(ns_text), int(nt_text)
        except ValueError as err:
            raise ConfigError(f"--grid must look like 50x50, got {grid_override!r}") from err
        if ns < 2 or nt < 2:
            raise ConfigError("--grid sizes must be >= 2")

    marching_cfg = _need(cfg, "marching", "config")
    kind = _need(marching_cfg, "kind", "marching")
    flat_design = None
    vr_radius = None

    if kind == "vranceanu":
        a = _real(_need(marching_cfg, "a", "marching"), "marching.a")
        b = _real(_need(marching_cfg, "b", "marching"), "marching.b")
        vr_radius = _parse_expr(_need(marching_cfg, "r", "marching"), "t", "marching.r")
        if "curve" in cfg:
            curve = _build_curve(cfg["curve"])
            if not isinstance(curve, WCurve) or abs(curve.c - 1.0) > 1e-12 \
                    or abs(curve.d - 1.0) > 1e-12 \
                    or abs(curve.a - a) > 1e-12 or abs(curve.b - b) > 1e-12:
                raise ConfigError(
                    "marching.vranceanu requires curve w_curve{a, b, c=1, d=1} "
                    "matching marching.a/b (or omit the curve section)"
                )
        surface = fam.vranceanu(vr_radius, a, b, t_range)
        curve = surface.curve
    else:
        curve = _build_curve(_need(cfg, "curve", "config"))
        if kind == "expressions":
            marching = pc.MarchingScale(
                _parse_expr(_need(marching_cfg, "A", "marching"), "t", "marching.A"),
                _parse_expr(_need(marching_cfg, "B", "marching"), "t", "marching.B"),
                t_range,
            )
            surface = pc.PencilSurface(curve, marching, s_domain=s_range)
        elif kind == "polar":
            r = _parse_expr(_need(marching_cfg, "r", "marching"), "t", "marching.r")
            surface = pc.PencilSurface(curve, fam.polar_marching(r, t_range), s_domain=s_range)
        elif kind == "ruled":
            surface = fam.ruled_pencil(curve, t_range)
        elif kind == "flat_polar":
            case = _need(marching_cfg, "case", "marching")
            c1 = _real(_need(marching_cfg, "c1", "marching"), "marching.c1")
            c2 = _real(_need(marching_cfg, "c2", "marching"), "marching.c2")
            if not isinstance(case, str):
                raise ConfigError("marching.case must be one of i, ii, iii, iv")
            try:
                flat_design = fam.flat_polar_solution(case, c1, c2, curve, t_range, s_range)
            except ValueError as err:
                raise ConfigError(str(err)) from err
            surface = flat_design.surface
        else:
            raise ConfigError(f"unknown marching kind {kind!r}")

    output = cfg.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output must be an object")
    output_format = output.get("format", "csv")
    if output_format not in ("csv", "obj"):
        raise ConfigError("output.format must be 'csv' or 'obj'")
    projection = output.get("projection", {"kind": "drop_axis", "axis": 4})
    if not isinstance(projection, dict):
        raise ConfigError("output.projection must be an object")

    return Scene(
        curve=curve,
        surface=surface,
        marching_kind=kind,
        s_range=s_range,
        t_range=t_range,
        ns=ns,
        nt=nt,
        output_format=output_format,
        projection=projection,
        flat_design=flat_design,
        vranceanu_radius=vr_radius,
    )


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def _projection_from_flag(flag: str) -> dict:
    if flag.startswith("drop:"):
        try:
            return {"kind": "drop_axis", "axis": int(flag.split(":", 1)[1])}
        except ValueError:
            pass
    elif flag == "stereo":
        return {"kind": "stereographic"}
    raise ConfigError(f"unknown --projection {flag!r} (use drop:K or stereo)")


def _stereo_basis(pole: np.ndarray) -> np.ndarray:
    basis = []
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        r = e - (e @ pole) * pole
        for b in basis:
            r = r - (r @ b) * b
        n = np.linalg.norm(r)
        if n > 0.25:
            basis.append(r / n)
            if len(basis) == 3:
                break
    return np.array(basis)


def project_points(points: np.ndarray, spec: dict) -> np.ndarray:
    """Map an (n, 4) array to (n, 3) according to the projection spec."""
    kind = spec.get("kind", "drop_axis")
    if kind == "drop_axis":
        axis = spec.get("axis", 4)
        if axis not in (1, 2, 3, 4):
            raise ConfigError("projection.axis must be 1..4")
        keep = [i for i in range(4) if i != axis - 1]
        return points[:, keep]
    if kind == "orthographic":
        basis = np.asarray(spec.get("basis", []), dtype=float)
        if basis.shape != (3, 4):
            raise ConfigError("orthographic projection needs basis of three 4-vectors")
        gram = basis @ basis.T
        if np.max(np.abs(gram - np.eye(3))) > 1e-10:
            raise ConfigError("orthographic basis must be orthonormal (within 1e-10)")
        return points @ basis.T
    if kind == "stereographic":
        pole = np.asarray(spec.get("pole", [0.0, 0.0, 0.0, 1.0]), dtype=float)
        if pole.shape != (4,) or abs(np.linalg.norm(pole) - 1.0) > 1e-10:
            raise ConfigError("stereographic pole must be a unit 4-vector")
        radii = np.linalg.norm(points, axis=1)
        if np.max(np.abs(radii - 1.0)) > 1e-6:
            raise DomainError(
                "stereographic projection requires points on the unit 3-sphere "
                f"(max | ||x|| - 1 | = {np.max(np.abs(radii - 1.0)):.3e})"
            )
        basis = _stereo_basis(pole)
        denom = 1.0 - points @ pole
        if np.min(np.abs(denom)) < 1e-9:
            raise DomainError("a surface point coincides with the projection pole")
        return (points @ basis.T) / denom[:, None]
    raise ConfigError(f"unknown projection kind {kind!r}")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _grid(scene: Scene):
    ss = np.linspace(scene.s_range[0], scene.s_range[1], scene.ns)
    ts = np.linspace(scene.t_range[0], scene.t_range[1], scene.nt)
    return ss, ts


def _rows_to_csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def run_frenet(scene: Scene) -> str:
    ss, _ = _grid(scene)
    header = ["s"]
    for k in range(1, 5):
        header.extend(f"v{k}_{i}" for i in range(1, 5))
    header += ["kappa1", "kappa2", "kappa3"]
    rows = []
    for s in ss:
        app = frenet_apparatus(scene.curve, float(s))
        row = [_fmt(s)]
        for k in range(4):
            row.extend(_fmt(x) for x in app.frame[k])
        row.extend(_fmt(x) for x in app.kappas)
        rows.append(row)
    return _rows_to_csv(header, rows)


def _columns(sweep: pc.Sweep, *fields):
    """s, t and the given per-point fields of a sweep, one list of floats
    per grid point, t-major; produced one t-row at a time."""
    fields = (sweep.s, sweep.t[:, None], *fields)
    for t_row in np.stack(np.broadcast_arrays(*fields), axis=-1):
        yield from t_row.tolist()


def _rows(sweep: pc.Sweep, *fields):
    """CSV rows ``s, t, fields..., status`` for every grid point, lazily."""
    names = ["ok"] + [f"regularity:{c}" for c in pc.CONDITIONS[1:]]
    return ([*map(_fmt, v), names[code]]
            for v, code in zip(_columns(sweep, *fields), sweep.status.ravel().tolist()))


def run_eval(scene: Scene) -> str:
    sweep = scene.surface.sweep(*_grid(scene))
    header = ["s", "t", "x1", "x2", "x3", "x4", "status"]
    return _rows_to_csv(header, _rows(sweep, *np.moveaxis(sweep.points, -1, 0)))


def run_curvature(scene: Scene) -> str:
    sweep = scene.surface.sweep(*_grid(scene))
    f = sweep.forms
    rep = cu.invariants_from_forms(f)
    header = ["s", "t", "E", "G", "K", "K_N", "Hnormsq", "status"]
    return _rows_to_csv(header, _rows(sweep, f.E, f.G, rep.K, rep.K_N, rep.H_norm_sq))


def run_verify(scene: Scene, tol: float, step: float | None):
    """Closed-form vs oracle comparison over the grid.

    Returns (text_report, csv_text, all_passed)."""
    sweep = scene.surface.sweep(*_grid(scene))
    pad = 4 * (step if step is not None else 1e-3)
    immersion = orc.Immersion(
        scene.surface.point_array,
        (scene.s_range[0] - pad - 1.0, scene.s_range[1] + pad + 1.0),
        (scene.t_range[0] - pad, scene.t_range[1] + pad),
        step=step,
    )
    rep = cu.invariants_from_forms(sweep.forms)
    closed = _columns(sweep, rep.K, rep.K_N, rep.H_norm_sq)
    pts, compared, csv_rows = [], [], []
    for (s, t, k, kn, h), status in zip(closed, sweep.status.ravel().tolist()):
        if status != pc.OK:
            csv_rows.append([_fmt(s), _fmt(t)] + ["nan"] * 6 + ["regularity"])
            continue
        rep_o = orc.numeric_forms(immersion, s, t)
        # the orientation-adjusted K_N is comparable across the grid even
        # when the oracle's basis choice flips between points
        pairs = (k, rep_o.K, kn, rep_o.k_n_oriented, h, rep_o.h_norm_sq)
        pts.append((s, t))
        compared.append(pairs)
        csv_rows.append([_fmt(s), _fmt(t), *map(_fmt, pairs), "ok"])
    if not pts:
        raise RegularityViolationError("spine")
    table = np.array(compared)  # closed, oracle column pairs per quantity
    reports = [orc.compare(name, table[:, 2 * i], table[:, 2 * i + 1], pts, tol,
                           match_sign=name == "K_N")
               for i, name in enumerate(("K", "K_N", "H_norm_sq"))]
    lines = [
        "verification: closed-form curvature vs finite-difference oracle",
        f"grid {scene.ns}x{scene.nt}, compared {len(pts)} regular points, "
        f"skipped {sweep.status.size - len(pts)}",
        *(r.summary() for r in reports),
    ]
    all_passed = all(r.passed for r in reports)

    if scene.marching_kind == "ruled":
        lines.extend(_ruled_adjudication(scene, sweep.t))

    lines.append(f"overall: {'PASS' if all_passed else 'FAIL'}")
    header = ["s", "t", "K_closed", "K_oracle", "K_N_closed", "K_N_oracle",
              "Hnormsq_closed", "Hnormsq_oracle", "status"]
    return "\n".join(lines) + "\n", _rows_to_csv(header, csv_rows), all_passed


def _ruled_adjudication(scene: Scene, ts: np.ndarray) -> list[str]:
    """Reference-formula check for the ruled pencil at the grid line
    nearest t = 0: the shortcut Gaussian formula is expected to miss by a
    factor of ~2 while the shortcut normal curvature matches."""
    t0 = float(ts[int(np.argmin(np.abs(ts)))])
    s_mid = float(0.5 * (scene.s_range[0] + scene.s_range[1]))
    app = frenet_apparatus(scene.curve, s_mid)
    k1, k2, k3 = app.kappas
    rep = cu.report(scene.surface, s_mid, t0)
    ref_k = fam.ruled_reference_gaussian(k1, k2, k3, t0)
    ref_kn = fam.ruled_reference_normal_curvature(k1, k2, k3, t0)
    ratio_k = ref_k / rep.K if rep.K != 0.0 else float("nan")
    ratio_kn = ref_kn / rep.K_N if rep.K_N != 0.0 else float("nan")
    ok_k = abs(ref_k - rep.K) <= ADJUDICATION_TOL * max(1.0, abs(rep.K))
    ok_kn = abs(ref_kn - rep.K_N) <= ADJUDICATION_TOL * max(1.0, abs(rep.K_N))
    return [
        f"ruled-pencil reference formulas at (s, t) = ({s_mid:.6g}, {t0:.6g}):",
        (
            f"  reference K   = {_fmt(ref_k)} vs computed {_fmt(rep.K)} -> "
            f"{'pass' if ok_k else 'FAIL'} (ratio {ratio_k:.6f})"
        ),
        (
            f"  reference K_N = {_fmt(ref_kn)} vs computed {_fmt(rep.K_N)} -> "
            f"{'pass' if ok_kn else 'FAIL'} (ratio {ratio_kn:.6f})"
        ),
        "  (informational; not part of the pass/fail verdict)",
    ]


def run_flat_design(scene: Scene, step: float | None) -> tuple[str, bool]:
    if scene.marching_kind == "flat_polar":
        design = scene.flat_design
        v = design.params.verification
        lines = [
            f"flat design case {design.params.case}: "
            f"c1 = {_fmt(design.params.c1)}, c2 = {_fmt(design.params.c2)}",
            f"constraint: {design.params.constraint}",
            f"r(t) = {ex.to_string(design.params.r)}",
            f"A(t) = {ex.to_string(design.surface.marching.A)}",
            f"B(t) = {ex.to_string(design.surface.marching.B)}",
            f"max |rho1| = {_fmt(v.max_rho1)}",
            f"max |rho2| = {_fmt(v.max_rho2)}",
            f"max |radius ODE residual|    = {_fmt(v.max_ode_residual_1)}",
            f"max |curvature ODE residual| = {_fmt(v.max_ode_residual_2)}",
            f"grid max |K| = {_fmt(v.max_abs_gaussian)}",
            f"verdict: {'FLAT' if v.flat else 'NOT FLAT'}",
        ]
        return "\n".join(lines) + "\n", v.flat
    if scene.marching_kind == "vranceanu":
        flat_step = step if step is not None else 4e-3
        pad = 4 * flat_step
        im = orc.Immersion(
            scene.surface.point_array,
            (scene.s_range[0] - pad - 0.5, scene.s_range[1] + pad + 0.5),
            (scene.t_range[0] - pad, scene.t_range[1] + pad),
            step=flat_step,
        )
        ss, ts = _grid(scene)
        max_k = orc.grid_max_abs_gaussian(im, ss, ts)
        res = cu.flatness_residuals(scene.surface, ts, ss, source="frame")
        flat = max_k <= fam.FLAT_GAUSSIAN_TOL
        lines = [
            f"vranceanu design: r(t) = {ex.to_string(scene.vranceanu_radius)}",
            f"A(t) = {ex.to_string(scene.surface.marching.A)}",
            f"B(t) = {ex.to_string(scene.surface.marching.B)}",
            f"max |rho1| = {_fmt(res.max_rho1)}  (informational; the flat "
            "spiral family is flat without closing these residuals)",
            f"max |rho2| = {_fmt(res.max_rho2)}",
            f"oracle grid max |K| = {_fmt(max_k)} (step {_fmt(flat_step)})",
            f"verdict: {'FLAT' if flat else 'NOT FLAT'}",
        ]
        return "\n".join(lines) + "\n", flat
    raise ConfigError("flat-design needs marching kind flat_polar or vranceanu")


def run_export(scene: Scene, out_base: Path, projection: dict) -> list[Path]:
    sweep = scene.surface.sweep(*_grid(scene))
    points = sweep.points.reshape(-1, 4)
    written = []
    if scene.output_format == "obj":
        projected = project_points(points, projection)
        obj_lines = [f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}" for p in projected]
        ok = sweep.status == pc.OK
        quads = ok[:-1, :-1] & ok[:-1, 1:] & ok[1:, 1:] & ok[1:, :-1]
        for it, i_s in zip(*np.nonzero(quads)):
            a = int(it) * scene.ns + int(i_s)
            obj_lines.append(f"f {a + 1} {a + 2} {a + scene.ns + 2} {a + scene.ns + 1}")
        obj_path = out_base.with_suffix(".obj")
        obj_path.write_text("\n".join(obj_lines) + "\n", encoding="utf-8")
        written.append(obj_path)

    header = ["s", "t", "x1", "x2", "x3", "x4", "K", "status"]
    rows = _rows(sweep, *np.moveaxis(sweep.points, -1, 0),
                 cu.invariants_from_forms(sweep.forms).K)
    csv_path = out_base.with_suffix(".csv")
    csv_path.write_text(_rows_to_csv(header, rows), encoding="utf-8")
    written.append(csv_path)
    return written


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencil4",
        description="Surface pencils through a curve in E^4: evaluation, "
        "curvature sweeps, verification and export.",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"pencil4 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("frenet", "CSV of s, frame vectors and curvatures along the spine"),
        ("eval", "CSV of surface points on the (s, t) grid"),
        ("curvature", "CSV of E, G, K, K_N, |H|^2 on the grid (closed forms)"),
        ("verify", "compare closed forms against the finite-difference oracle"),
        ("flat-design", "marching functions, residual maxima and flatness verdict"),
        ("export", "OBJ (projected) plus per-vertex K CSV, or raw 4-D CSV"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scene JSON file")
        p.add_argument("--out", help="output file (base name for export)")
        p.add_argument("--grid", help="override grid as NSxNT, e.g. 50x50")
        p.add_argument("--tol", type=float, default=VERIFY_DEFAULT_TOL,
                       help="verification tolerance (default 1e-6)")
        p.add_argument("--step", type=float, default=None,
                       help="oracle differencing step (default: 1e-4 policy)")
        p.add_argument("--projection", help="override projection: drop:K or stereo")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scene = load_scene(args.config, args.grid)
        if args.command == "frenet":
            _emit(run_frenet(scene), args.out)
        elif args.command == "eval":
            _emit(run_eval(scene), args.out)
        elif args.command == "curvature":
            _emit(run_curvature(scene), args.out)
        elif args.command == "verify":
            text, csv_text, passed = run_verify(scene, args.tol, args.step)
            sys.stdout.write(text)
            if args.out:
                Path(args.out).write_text(csv_text, encoding="utf-8")
            if not passed:
                return EXIT_VERIFY_FAILED
        elif args.command == "flat-design":
            text, _ = run_flat_design(scene, args.step)
            _emit(text, args.out)
        elif args.command == "export":
            if not args.out:
                raise ConfigError("export needs --out BASEPATH")
            projection = scene.projection
            if args.projection:
                projection = _projection_from_flag(args.projection)
            written = run_export(scene, Path(args.out), projection)
            sys.stdout.write("".join(f"wrote {p}\n" for p in written))
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
        return EXIT_OK
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except RegularityViolationError as err:
        print(f"regularity violation: {err}", file=sys.stderr)
        return EXIT_REGULARITY
    except (DegenerateFrameError, UnsupportedCompletionError) as err:
        print(f"degenerate frame: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (EvalDomainError, ParseError) as err:
        print(f"expression error: {err}", file=sys.stderr)
        return EXIT_EVAL_DOMAIN
    except ConstraintViolationError as err:
        print(f"constraint violation: {err}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (DomainError, SingularProfileSystemError, StepUnderflowError,
            RankDeficiencyError) as err:
        print(f"range error: {err}", file=sys.stderr)
        return EXIT_RANGE
    except Pencil4Error as err:  # pragma: no cover - safety net
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
