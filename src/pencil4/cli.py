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
t-major then s, no timestamps.  Values are printed as ``"%.17g" % x`` by
``text.cells``, as fixed-width byte cells.  The s and t columns are formatted
once per command, the other fields in blocks of whole t-rows: the point
coordinates value by value, the others each distinct value (bit pattern) of
a block once, and a bit copy of an earlier field not at all.  A block is one
uint8 matrix per line template, a row per grid point with separators and
status markers as fixed bytes, and its text is its non-zero bytes.  Every
command computes all that can fail first and then writes its text: to stdout
in one write, or block by block to its --out files, opened only then.  A
command that fails before its first row writes nothing.
Export's OBJ faces are blocks too, of ``text.integer_cells``.  Grid points
violating a regularity condition become rows with a status marker instead
of aborting the sweep (verify excludes them from comparison).  Any other
exception ends in exit 1 with one ``internal error`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import string
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
from . import text as tx
from .curve import (AnalyticCurve, CurveSpec, WCurve, _linspace, frenet_apparatus,
                    frenet_frames, orthonormal_completion)
from .errors import (ConfigError, ConstraintViolationError, DegenerateFrameError,
                     DomainError, EvalDomainError, ParseError, RankDeficiencyError,
                     RegularityViolationError, SingularProfileSystemError,
                     StepUnderflowError, UnsupportedCompletionError)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_REGULARITY = 3
EXIT_DEGENERATE = 4
EXIT_EVAL_DOMAIN = 5
EXIT_VERIFY_FAILED = 6
EXIT_CONSTRAINT = 7
EXIT_RANGE = 8
EXIT_OUTPUT = 9

# Each exit code's --help line, the label of its one stderr line and the
# error classes that end in it.  ``main`` takes the row of the nearest class
# in an error's MRO; an error of no listed class is a defect, exit 1.
_EXITS = {
    EXIT_OK: ("success (verify: every compared quantity within tolerance)", None, ()),
    EXIT_UNEXPECTED: ("unexpected internal error", None, ()),
    EXIT_CONFIG: ("configuration unreadable or schema-invalid", "config error",
                  (ConfigError,)),
    EXIT_REGULARITY: ("surface regularity violation", "regularity violation",
                      (RegularityViolationError,)),
    EXIT_DEGENERATE: ("degenerate frame without a completion convention", "degenerate frame",
                      (DegenerateFrameError, UnsupportedCompletionError)),
    EXIT_EVAL_DOMAIN: ("expression evaluation domain fault", "expression error",
                       (EvalDomainError, ParseError)),
    EXIT_VERIFY_FAILED: ("verification tolerance failure", None, ()),
    EXIT_CONSTRAINT: ("constructor precondition violated (unit speed, case constraints)",
                      "constraint violation", (ConstraintViolationError,)),
    EXIT_RANGE: ("parameter range hits a pole / singular system", "range error",
                 (DomainError, SingularProfileSystemError, RankDeficiencyError,
                  StepUnderflowError)),
    # load_scene maps the errors of reading the config to ConfigError
    EXIT_OUTPUT: ("output file could not be written", "output error", (OSError,)),
}
_EXIT_CODES = "exit codes:\n" + "".join(f"  {code}  {line}\n"
                                        for code, (line, _, _) in _EXITS.items())
_EXIT_OF = {cls: (code, label)
            for code, (_, label, classes) in _EXITS.items() for cls in classes}

VERIFY_DEFAULT_TOL = 1e-6
# Most grid points per axis (domain.ns, domain.nt, --grid): sweeps hold
# O(ns nt) arrays and the oracle evaluates O(ns) stencils per batch.
MAX_GRID = 1000
_COMPARED = ("K", "K_N", "H_norm_sq")  # oracle error_estimate keys too
ADJUDICATION_TOL = 1e-6


def _fmt(x: float) -> str:
    return "%.17g" % x


# Grid points per block of text.  Measured on the 120x120 grid benchmark
# scenes (seed 0, in process, medians of 20 runs paired with 1024-point
# blocks): 512-point blocks made eval and export 24-30% slower, 2048-point
# blocks 3-7% faster.  A block's byte matrix, its cells and its text are
# alive together: at 2048 points the traced peak of the 120x120 export rose
# from 3.18 MB (set by the sweep) to 3.88 MB.
_BLOCK_POINTS = 1024
_POSITIONS = (2, 3, 4, 5)  # x1..x4 after s and t: mostly distinct, never deduped
_MARKERS = ("ok", *(f"regularity:{c}" for c in pc.CONDITIONS[1:]))
_VERIFY_MARKERS = ("ok", *["regularity"] * (len(pc.CONDITIONS) - 1))


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scene:
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
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in cfg:
        raise ConfigError(f"missing {where}.{key}")
    return cfg[key]


def _real(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _reals(value, shape: tuple[int, ...], where: str, message: str) -> np.ndarray:
    """Nested lists of numbers of ``shape`` as an array, else ConfigError:
    ``message`` for another shape, ``_real``'s for an entry that is not a
    number (NumPy would read "1" or true as one)."""
    def walk(v, dims, at):
        if not dims:
            return _real(v, at)
        if not isinstance(v, (list, tuple)) or len(v) != dims[0]:
            raise ConfigError(message)
        return [walk(x, dims[1:], f"{at}[{i}]") for i, x in enumerate(v)]

    return np.array(walk(value, shape, where))


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a [lo, hi] pair")
    lo, hi = _real(value[0], where + "[0]"), _real(value[1], where + "[1]")
    if not hi > lo:
        raise ConfigError(f"{where} must be a nondegenerate range")
    if not math.isfinite(hi - lo):  # grid spacing and stencils need the width
        raise ConfigError(f"{where} is wider than the largest double")
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
    except RecursionError as err:
        raise ConfigError("config JSON is nested too deeply to parse") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")

    domain = _need(cfg, "domain", "config")
    s_range = _pair(_need(domain, "s", "domain"), "domain.s")
    t_range = _pair(_need(domain, "t", "domain"), "domain.t")
    ns = _need(domain, "ns", "domain")
    nt = _need(domain, "nt", "domain")
    if not isinstance(ns, int) or not isinstance(nt, int) or ns < 2 or nt < 2:
        raise ConfigError("domain.ns and domain.nt must be integers >= 2")
    if max(ns, nt) > MAX_GRID:
        raise ConfigError(f"domain.ns and domain.nt must be at most {MAX_GRID}")
    if grid_override:
        try:
            ns_text, nt_text = grid_override.lower().split("x")
            ns, nt = int(ns_text), int(nt_text)
        except ValueError as err:
            raise ConfigError(f"--grid must look like 50x50, got {grid_override!r}") from err
        if ns < 2 or nt < 2 or max(ns, nt) > MAX_GRID:
            raise ConfigError(f"--grid sizes must be between 2 and {MAX_GRID}")

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
    else:
        curve = _build_curve(_need(cfg, "curve", "config"))
        if kind == "expressions":
            marching = pc.MarchingScale(
                _parse_expr(_need(marching_cfg, "A", "marching"), "t", "marching.A"),
                _parse_expr(_need(marching_cfg, "B", "marching"), "t", "marching.B"),
                t_range,
            )
            surface = pc.PencilSurface(curve, marching)
        elif kind == "polar":
            r = _parse_expr(_need(marching_cfg, "r", "marching"), "t", "marching.r")
            surface = pc.PencilSurface(curve, fam.polar_marching(r, t_range))
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


def project_points(points: np.ndarray, spec: dict) -> np.ndarray:
    """Map an (n, 4) array to (n, 3) according to the projection spec."""
    points = np.ascontiguousarray(points)  # BLAS sums strided rows in another order
    kind = spec.get("kind", "drop_axis")
    if kind == "drop_axis":
        axis = _real(spec.get("axis", 4), "projection.axis")
        if axis not in (1, 2, 3, 4):
            raise ConfigError("projection.axis must be 1..4")
        keep = [i for i in range(4) if i != axis - 1]
        return points[:, keep]
    if kind == "orthographic":
        basis = _reals(spec.get("basis", []), (3, 4), "projection.basis",
                       "orthographic projection needs basis of three 4-vectors")
        with np.errstate(all="ignore"):  # a huge entry fails the check, not a warning
            gram = basis @ basis.T
        if not np.max(np.abs(gram - np.eye(3))) <= 1e-10:
            raise ConfigError("orthographic basis must be orthonormal (within 1e-10)")
        return points @ basis.T
    if kind == "stereographic":
        message = "stereographic pole must be a unit 4-vector"
        pole = _reals(spec.get("pole", [0.0, 0.0, 0.0, 1.0]), (4,), "projection.pole", message)
        if abs(np.linalg.norm(pole) - 1.0) > 1e-10:
            raise ConfigError(message)
        radii = np.linalg.norm(points, axis=1)
        if np.max(np.abs(radii - 1.0)) > 1e-6:
            raise DomainError(
                "stereographic projection requires points on the unit 3-sphere "
                f"(max | ||x|| - 1 | = {np.max(np.abs(radii - 1.0)):.3e})"
            )
        basis = orthonormal_completion([pole[None]], 3)[0][:, 0]
        denom = 1.0 - points @ pole
        if np.min(np.abs(denom)) < 1e-9:
            raise DomainError("a surface point coincides with the projection pole")
        return (points @ basis.T) / denom[:, None]
    raise ConfigError(f"unknown projection kind {kind!r}")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _grid(scene: Scene):
    ss = _linspace(scene.s_range[0], scene.s_range[1], scene.ns)
    ts = _linspace(scene.t_range[0], scene.t_range[1], scene.nt)
    return ss, ts


def _csv_line(n_fields: int, status: bool) -> str:
    """The line template of a CSV row: the fields, then the marker."""
    return ",".join([*(f"{{{j}}}" for j in range(n_fields)), *["{status}"] * status]) + "\n"


def _template(line: str, marker_width: int, width: int = tx.WIDTH):
    """The constant bytes of a line template as one row of a block, and the
    name and offset of each hole: ``{j}`` for field j, ``{status}``."""
    row, holes = bytearray(), []
    for literal, name, _, _ in string.Formatter().parse(line):
        row += literal.encode("ascii")
        if name is not None:
            holes.append((name if name == "status" else int(name), len(row)))
            row += bytes(marker_width if name == "status" else width)
    return np.frombuffer(bytes(row), np.uint8), holes


def _filled(template, cells: dict, shape) -> np.ndarray:
    """A block of ``shape`` points: rows of the template, each hole filled by
    its cells (broadcast to ``shape``), as one (points, bytes) matrix."""
    row, holes = template
    block = np.empty((*shape, len(row)), np.uint8)
    block[...] = row
    for name, at in holes:
        block[..., at:at + cells[name].shape[-1]] = cells[name]
    return block.reshape(-1, len(row))


def _deduped(values: np.ndarray) -> np.ndarray:
    """``tx.cells`` of values, each distinct bit pattern formatted once (bits,
    not values: ``0.0`` and ``-0.0`` print differently and NaN != NaN)."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return tx.cells(bits.view(np.float64))[inverse.reshape(values.shape)]


def _blocks(fields, status=None, markers=_MARKERS, lines=None, direct=()):
    """The text of broadcastable (rows, columns) float fields, per block of
    whole rows, as one (points, bytes) uint8 matrix per line template of
    ``lines`` (default: the CSV row), points in row-major order.  Each matrix
    row is its template with ``{j}`` filled by the ``%.17g`` text of field j
    and ``{status}`` by the point's marker; NUL bytes pad the holes, so a
    matrix's text is its non-zero bytes.  Fields constant along an axis (a
    zero stride: s (columns,), t (rows, 1)) are formatted once per call, the
    others once per block: those named in ``direct`` (mostly distinct, as
    point coordinates are) value by value, the rest each distinct value once.
    A field that is a bit copy of an earlier one takes that one's cells."""
    fields = np.broadcast_arrays(*fields)
    along_s = [j for j, f in enumerate(fields) if not f.strides[0]]
    along_t = [j for j, f in enumerate(fields) if f.strides[0] and not f.strides[1]]
    grid = [j for j, f in enumerate(fields) if f.strides[0] and f.strides[1]]
    bits = {j: fields[j].view(np.int64) for j in grid}
    first = {j: next(i for i in grid if i == j or bits[i][0, 0] == bits[j][0, 0]
                     and np.array_equal(bits[i], bits[j])) for j in grid}
    copies = {j: i for j, i in first.items() if i != j}  # field: the first it copies
    own = [j for j in grid if j not in copies]
    marks = np.array(markers, dtype="S")
    marks = marks.view(np.uint8).reshape(len(markers), marks.itemsize)
    templates = [_template(line, marks.shape[1])
                 for line in lines or [_csv_line(len(fields), status is not None)]]

    def formatted(group, *index, cells=tx.cells):  # field: its cells at index
        return dict(zip(group, np.moveaxis(cells(
            np.stack([fields[j][index] for j in group], axis=-1)), -2, 0))) if group else {}

    s_cells = formatted(along_s, slice(0, 1))
    t_cells = formatted(along_t, slice(None), slice(0, 1))
    n_rows, n_columns = fields[0].shape
    step = max(1, _BLOCK_POINTS // n_columns)
    for start in range(0, n_rows, step):
        rows = slice(start, start + step)
        cells = {**s_cells, **{j: c[rows] for j, c in t_cells.items()},
                 **formatted([j for j in own if j in direct], rows),
                 **formatted([j for j in own if j not in direct], rows, cells=_deduped)}
        cells.update((j, cells[i]) for j, i in copies.items())
        if status is not None:
            cells["status"] = marks[status[rows]]
        shape = fields[0][rows].shape
        yield [_filled(template, cells, shape) for template in templates]


def _lines(block: np.ndarray) -> str:
    """The text of a block: its non-zero bytes."""
    return block[block != 0].tobytes().decode("ascii")


def _csv(header: list[str], fields, status=None, markers=_MARKERS, direct=()):
    """CSV text, lazily: the header line, then the lines of each block."""
    yield ",".join(header) + "\n"
    for (block,) in _blocks(fields, status, markers, direct=direct):
        yield _lines(block)


def _write(paths, parts) -> None:
    """Write text to the files ``paths``, opened only now: each item of
    ``parts`` holds the next text of the first files, in order."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", encoding="utf-8")) for p in paths]
        for texts in parts:
            for f, text in zip(files, texts):
                f.write(text)


def _emit(lines, out: str | None) -> None:
    """Write text to the file ``out`` block by block, else to stdout in one
    write: block-wise writes into a captured stdout (``io.StringIO``) raised
    the peak RSS of ``bench/run.py --workload grid --seed 3`` by 6% (2 cores,
    Python 3.11.7)."""
    if out:
        _write([out], zip(lines))
    else:
        sys.stdout.write("".join(lines))


# The CSV commands compute everything that can fail, then return their lines
# lazily, so that ``main`` writes nothing if they fail.


def run_frenet(scene: Scene):
    ss, _ = _grid(scene)
    header = ["s"]
    for k in range(1, 5):
        header.extend(f"v{k}_{i}" for i in range(1, 5))
    header += ["kappa1", "kappa2", "kappa3"]
    frames = frenet_frames(scene.surface.curve, ss)
    table = np.column_stack([ss, frames.frame.reshape(-1, 16), frames.kappas])
    return _csv(header, table.T[..., None])


def run_eval(scene: Scene):
    sweep = scene.surface.sweep(*_grid(scene))
    header = ["s", "t", "x1", "x2", "x3", "x4", "status"]
    return _csv(header, (sweep.s, sweep.t[:, None], *np.moveaxis(sweep.points, -1, 0)),
                sweep.status, direct=_POSITIONS)


def run_curvature(scene: Scene):
    sweep = scene.surface.sweep(*_grid(scene))
    f = sweep.forms
    rep = cu.invariants_from_forms(f)
    header = ["s", "t", "E", "G", "K", "K_N", "Hnormsq", "status"]
    return _csv(header, (sweep.s, sweep.t[:, None], f.E, f.G, rep.K, rep.K_N, rep.H_norm_sq),
                sweep.status)


def _immersion(scene: Scene, step: float | None) -> orc.Immersion:
    """The surface as the oracle sees it.  Stencils at the scene's edges
    reach past its domain, where the pencil is evaluated as anywhere else,
    so the oracle's fit check is given the whole plane."""
    whole = (-math.inf, math.inf)
    return orc.Immersion(scene.surface.point_array, whole, whole, step=step)


def run_verify(scene: Scene, tol: float, step: float | None):
    """Closed-form vs oracle comparison over the grid.

    Returns (text_report, csv_lines, all_passed)."""
    sweep = scene.surface.sweep(*_grid(scene))
    immersion = _immersion(scene, step)
    rep = cu.invariants_from_forms(sweep.forms)
    ok = sweep.status == pc.OK
    if not ok.any():
        raise RegularityViolationError("spine")
    # one oracle call over every regular point, t-major, so a fault names
    # the first faulting point in the order of the rows
    s_grid, t_grid = np.broadcast_arrays(sweep.s, sweep.t[:, None])
    rep_o = orc.numeric_forms(immersion, s_grid[ok], t_grid[ok])
    # per point: (closed, oracle) for K, K_N and |H|^2; NaN where the point
    # is irregular.  The orientation-adjusted K_N is comparable across the
    # grid even when the oracle's basis choice flips between points.
    table = np.full(ok.shape + (6,), np.nan)
    table[..., 0::2] = np.stack([rep.K, rep.K_N, rep.H_norm_sq], axis=-1)
    table[ok, 1::2] = np.stack([rep_o.K, rep_o.k_n_oriented, rep_o.h_norm_sq], axis=-1)
    estimates = rep_o.error_estimate
    del rep_o  # the largest arrays here: freed before the CSV text is built
    pts = list(zip(s_grid[ok].tolist(), t_grid[ok].tolist()))
    compared = table[ok]
    reports = [orc.compare(name, compared[:, 2 * i], compared[:, 2 * i + 1], pts,
                           estimates[name], tol, match_sign=name == "K_N")
               for i, name in enumerate(_COMPARED)]
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
    csv_lines = _csv(header, (sweep.s, sweep.t[:, None], *np.moveaxis(table, -1, 0)),
                     sweep.status, _VERIFY_MARKERS)
    return "\n".join(lines) + "\n", csv_lines, all_passed


def _ruled_adjudication(scene: Scene, ts: np.ndarray) -> list[str]:
    """Reference-formula check for the ruled pencil at the grid line
    nearest t = 0: the shortcut Gaussian formula is expected to miss by a
    factor of ~2 while the shortcut normal curvature matches."""
    t0 = float(ts[int(np.argmin(np.abs(ts)))])
    s_mid = float(0.5 * (scene.s_range[0] + scene.s_range[1]))
    k1, k2, k3 = frenet_apparatus(scene.surface.curve, s_mid).kappas[0].tolist()
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
        lines = [
            f"flat design case {design.case}: c1 = {_fmt(design.c1)}, c2 = {_fmt(design.c2)}",
            f"constraint: {design.constraint}",
            f"r(t) = {ex.to_string(design.r)}",
            f"A(t) = {ex.to_string(design.surface.marching.A)}",
            f"B(t) = {ex.to_string(design.surface.marching.B)}",
            f"max |rho1| = {_fmt(design.max_rho1)}",
            f"max |rho2| = {_fmt(design.max_rho2)}",
            f"max |radius ODE residual|    = {_fmt(design.max_ode_residual_1)}",
            f"max |curvature ODE residual| = {_fmt(design.max_ode_residual_2)}",
            f"grid max |K| = {_fmt(design.max_abs_gaussian)}",
            f"verdict: {'FLAT' if design.flat else 'NOT FLAT'}",
        ]
        return "\n".join(lines) + "\n", design.flat
    if scene.marching_kind == "vranceanu":
        flat_step = step if step is not None else 4e-3
        ss, ts = _grid(scene)
        res = scene.surface.sweep(ss, ts)  # first: it refuses non-finite marching values
        max_k = orc.grid_max_abs_gaussian(_immersion(scene, flat_step), ss, ts)
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
    """Stream the per-point CSV and the OBJ mesh (if the format asks for one)
    to their files block by block, opened after the sweep and the
    projection.  The projected vertices ride in the CSV's blocks, so text
    they share with x1..x4 is formatted once.  Returns the written paths,
    the OBJ first."""
    sweep = scene.surface.sweep(*_grid(scene))
    fields = [sweep.s, sweep.t[:, None], *np.moveaxis(sweep.points, -1, 0),
              cu.invariants_from_forms(sweep.forms).K]
    paths, lines = [out_base.with_suffix(".csv")], [_csv_line(len(fields), True)]
    obj = scene.output_format == "obj"
    if obj:
        projected = project_points(sweep.points.reshape(-1, 4), projection)
        fields += list(projected.T.reshape(3, *sweep.status.shape))
        paths.append(out_base.with_suffix(".obj"))
        lines.append("v {7} {8} {9}\n")  # the projected x, y, z

    def faces():  # to the OBJ file, the second one, after the vertices
        ok = sweep.status == pc.OK
        it, i_s = np.nonzero(ok[:-1, :-1] & ok[:-1, 1:] & ok[1:, 1:] & ok[1:, :-1])
        corners = np.add.outer(it * scene.ns + i_s + 1, [0, 1, scene.ns + 1, scene.ns])
        template = _template("f {0} {1} {2} {3}\n", 0, width=8)  # indices <= MAX_GRID^2
        for start in range(0, len(corners), _BLOCK_POINTS):
            quads = tx.integer_cells(corners[start:start + _BLOCK_POINTS])
            yield "", _lines(_filled(template, dict(enumerate(np.moveaxis(quads, 1, 0))),
                                     quads.shape[:1]))

    # the projected vertices are x1..x4 or their bit copies, and mostly distinct
    text = ((_lines(block) for block in blocks)  # one text alive at a time
            for blocks in _blocks(fields, sweep.status, lines=lines,
                                  direct=(*_POSITIONS, 7, 8, 9)))
    _write(paths, itertools.chain([("s,t,x1,x2,x3,x4,K,status\n",)], text,
                                  faces() if obj else ()))
    return paths[::-1]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it takes
    ~1.3 ms, about 5% of a small verify run."""
    parser = argparse.ArgumentParser(
        prog="pencil4",
        description="Surface pencils through a curve in E^4: evaluation, "
        "curvature sweeps, verification and export.",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"pencil4 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "tol": dict(type=float, default=VERIFY_DEFAULT_TOL,
                    help="verification tolerance (default 1e-6)"),
        "step": dict(type=float, default=None,
                     help="oracle differencing step (default: 1e-4 policy)"),
        "projection": dict(help="override projection: drop:K or stereo"),
    }
    for name, help_text, own in [  # each subcommand takes only the options it reads
        ("frenet", "CSV of s, frame vectors and curvatures along the spine", ()),
        ("eval", "CSV of surface points on the (s, t) grid", ()),
        ("curvature", "CSV of E, G, K, K_N, |H|^2 on the grid (closed forms)", ()),
        ("verify", "compare closed forms against the finite-difference oracle",
         ("tol", "step")),
        ("flat-design", "marching functions, residual maxima and flatness verdict",
         ("step",)),
        ("export", "OBJ (projected) plus per-vertex K CSV, or raw 4-D CSV", ("projection",)),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scene JSON file")
        p.add_argument("--out", help="output file (base name for export)")
        p.add_argument("--grid", help="override grid as NSxNT, e.g. 50x50")
        for option in own:
            p.add_argument(f"--{option}", **options[option])
    return parser


def _check_numeric_options(args, scene: Scene) -> None:
    """--tol and --step, where the subcommand takes them, must be positive
    and finite, and the stencil points s and s + step must differ even at
    the largest domain coordinate."""
    tol, step = getattr(args, "tol", None), getattr(args, "step", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"--tol must be a positive finite number, got {tol!r}")
    reach = max(abs(x) for x in (*scene.s_range, *scene.t_range))
    if step is not None and not (math.isfinite(step) and reach + step > reach):
        raise ConfigError(f"--step must be a positive finite number above the "
                          f"floating-point resolution of the domain, got {step!r}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        scene = load_scene(args.config, args.grid)
        _check_numeric_options(args, scene)
        if args.command == "frenet":
            _emit(run_frenet(scene), args.out)
        elif args.command == "eval":
            _emit(run_eval(scene), args.out)
        elif args.command == "curvature":
            _emit(run_curvature(scene), args.out)
        elif args.command == "verify":
            text, csv_lines, passed = run_verify(scene, args.tol, args.step)
            sys.stdout.write(text)
            if args.out:
                _emit(csv_lines, args.out)
            if not passed:
                return EXIT_VERIFY_FAILED
        elif args.command == "flat-design":
            text, _ = run_flat_design(scene, args.step)
            _emit([text], args.out)
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
    except Exception as err:  # an input fault or a defect: one line, no traceback
        code, label = next((_EXIT_OF[c] for c in type(err).__mro__ if c in _EXIT_OF),
                           (EXIT_UNEXPECTED, f"internal error: {type(err).__name__}"))
        print(" ".join(f"{label}: {err}".split()), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
