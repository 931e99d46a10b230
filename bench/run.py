#!/usr/bin/env python3
"""pencil4 benchmark: seeded workloads run through the CLI entry points.

    python3 bench/run.py --workload grid --seed 0 --seconds 45 --trace 0

The workloads are ``grid`` and ``verify`` (``bench/scenes.py``).

Run from the repository root (or any checkout of it); the program is
imported from ``src/``.  The seed generates the scene JSON files
(``bench/scenes.py``); the program only reads those files.  Each operation
is one ``pencil4.cli.main`` call (one subcommand on one scene), in this
process, with stdout captured.  A pass runs every operation of the workload
once; passes repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics (medians over passes):

    wall_s        time of one pass: every operation, scene loading included
    setup_s       summed ``cli.load_scene`` time of one pass
    points_per_s  grid points delivered per second of operation time
                  excluding ``load_scene``
    peak_rss_mb   peak resident memory of this process

Times are sums over operations of each operation's median over passes.

``--trace 1`` alternates untraced passes with traced ones
(``bench/tracer.py``) and reports the per-module metrics of the traced
passes (medians over them), including ``trace.overhead_ratio``, the traced
pass time over the untraced one.  Spans are written to
``.bench_work/trace-<workload>-seed<seed>.json``.

After the timed passes, the first pass's outputs are checked
(``bench/checks.py``) and every later pass must reproduce them byte for
byte.  An operation that exits with a nonzero code or misses a check
counts as failed; at seed 0 a missing golden file is a miss too.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--write-goldens`` records the golden row subsets for one workload, seed
and scale from the current program instead of measuring.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import scenes  # noqa: E402
import tracer as tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden"
WARMUP_GRID = "3x3"
ORACLE_SAMPLES = {"grid": 8, "verify": 0}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=scenes.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=scenes.SCALES, default="full",
                   help="tiny grids, for the benchmark's own tests")
    p.add_argument("--write-goldens", action="store_true")
    return p.parse_args(argv)


def _import_program():
    if not (SRC / "pencil4" / "cli.py").is_file():
        raise SystemExit(f"bench: no pencil4 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pencil4
    import pencil4.cli

    if SRC.resolve() not in Path(pencil4.__file__).resolve().parents:
        raise SystemExit(f"bench: imported pencil4 from {pencil4.__file__}, not {SRC}")
    return pencil4


class Runner:
    """Runs operations through ``cli.main`` and times them; ``cli.load_scene``
    is wrapped to time scene loading and keep the loaded scene."""

    def __init__(self, pkg, workload, paths: dict[str, Path], outdir: Path):
        self.cli = pkg.cli
        self.workload = workload
        self.paths = paths
        self.outdir = outdir
        self.setup_s = 0.0
        self.scene = None
        load_scene = self.cli.load_scene

        def timed_load_scene(*args, **kwargs):
            t0 = perf_counter()
            try:
                self.scene = load_scene(*args, **kwargs)
            finally:
                self.setup_s += perf_counter() - t0
            return self.scene

        self.cli.load_scene = timed_load_scene

    def _argv(self, op, grid: str | None) -> tuple[list[str], list[Path]]:
        argv = [op.command, "--config", str(self.paths[op.scene])]
        files = []
        if op.command == "export":
            base = self.outdir / f"{op.scene}-export"
            argv += ["--out", str(base)]
            files = [base.with_suffix(".obj"), base.with_suffix(".csv")]
        elif op.command == "verify":
            files = [self.outdir / f"{op.scene}-verify.csv"]
            argv += ["--out", str(files[0])]
        if grid:
            argv += ["--grid", grid]
        return argv, files

    def run_op(self, op, tracer=None, grid=None):
        """(seconds, load_scene seconds, Output, scene) of one operation."""
        argv, files = self._argv(op, grid)
        for f in files:
            f.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        self.setup_s, self.scene = 0.0, None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call("bench.op", "bench", self.cli.main, argv)
        except Exception:  # an operation that crashes counts as failed
            code = None
            traceback.print_exc()
        elapsed = perf_counter() - t0
        if code != 0:
            print(f"bench: {op.key}: exit {code}: {stderr.getvalue().strip()[:300]}",
                  file=sys.stderr)
        out = checks.Output(code, stdout.getvalue(),
                            {f.suffix: f.read_text(encoding="utf-8") for f in files if f.exists()})
        return elapsed, self.setup_s, out, self.scene

    def run_pass(self, tracer=None, keep=False) -> dict:
        ops = []
        for op in self.workload.ops:
            elapsed, setup, out, scene = self.run_op(op, tracer)
            ops.append({"s": elapsed, "setup_s": setup, "digest": out.digest(),
                        "code": out.code, "bytes": out.nbytes(),
                        "out": out if keep else None, "scene": scene if keep else None})
        return {"ops": ops, "wall_s": sum(o["s"] for o in ops),
                "setup_s": sum(o["setup_s"] for o in ops),
                "bytes": sum(o["bytes"] for o in ops)}


def _check_reference(orc, workload, ref: dict, golden: dict | None) -> dict[str, list]:
    """Problems per operation key in the reference pass."""
    problems = {}
    by_scene: dict[str, dict] = {}
    k = ORACLE_SAMPLES[workload.name]
    for op, rec in zip(workload.ops, ref["ops"]):
        out = rec["out"]
        dom = workload.scenes[op.scene]["domain"]
        found = checks.check_structure(op, out, dom["ns"], dom["nt"])
        if not found and k and rec["scene"] is not None:
            found += checks.check_oracle(op.command, out, rec["scene"], orc, k)
        if golden is not None:
            want = golden["ops"].get(op.key)
            found += (checks.check_golden(op.command, out, want) if want is not None
                      else ["no golden entry"])
        by_scene.setdefault(op.scene, {})[op.command] = out
        problems[op.key] = found
    for op in workload.ops:
        if op.command == "export":
            problems[op.key] += checks.check_consistency(by_scene[op.scene])
    return problems


def _env() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "threads_env": "OPENBLAS/OMP/MKL_NUM_THREADS=1"}


def _op_medians(passes: list[dict], key) -> list[float]:
    """Each operation's median over passes of ``key(op record)``."""
    return [statistics.median(key(p["ops"][i]) for p in passes)
            for i in range(len(passes[0]["ops"]))]


def _end_to_end(workload, passes: list[dict], peak_rss_mb: float) -> dict:
    """Per-operation medians over passes, summed over the workload: a slow
    spell of the machine then spoils one sample of one operation, not a
    whole pass."""
    points = sum(op.points for op in workload.ops)
    op_s = _op_medians(passes, lambda o: o["s"])
    setup_s = _op_medians(passes, lambda o: o["setup_s"])
    run_s = _op_medians(passes, lambda o: o["s"] - o["setup_s"])
    return {
        "wall_s": (sum(op_s), "s"),
        "setup_s": (sum(setup_s), "s"),
        "points_per_s": (points / sum(run_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(tracer, traced: dict, untraced_wall: float) -> dict:
    c = tracer.counts
    reports = c["oracle.reports"]
    evals = c["oracle.evals"]
    frames = c["pencil.frame"]
    cli_self = tracer.total("cli.run", "self_s")
    return {
        "expr.parse_calls": (tracer.total("expr.parse", "calls"), "count"),
        "expr.parse_s": (tracer.total("expr.parse", "total_s"), "s"),
        "expr.evaluate_calls": (tracer.total("expr.evaluate", "calls"), "count"),
        "expr.evaluate_self_s": (tracer.total("expr.evaluate", "self_s"), "s"),
        "expr.evaluate_curve_calls": (tracer.total("expr.evaluate@curve", "calls"), "count"),
        "expr.evaluate_curve_self_s": (tracer.total("expr.evaluate@curve", "self_s"), "s"),
        "expr.evaluate_marching_calls": (tracer.total("expr.evaluate@marching", "calls"), "count"),
        "expr.evaluate_marching_self_s": (tracer.total("expr.evaluate@marching", "self_s"), "s"),
        "curve.frame_calls": (c["curve.frame"], "count"),
        "curve.frame_self_s": (tracer.total("curve.frame", "self_s"), "s"),
        "pencil.point_calls": (tracer.total("pencil.point", "calls"), "count"),
        "pencil.point_self_s": (tracer.total("pencil.point", "self_s"), "s"),
        "pencil.forms_calls": (tracer.total("pencil.forms", "calls"), "count"),
        "pencil.forms_self_s": (tracer.total("pencil.forms", "self_s"), "s"),
        "pencil.frame_cache_hit_ratio": (c["pencil.frame_hit"] / frames if frames else 0.0,
                                         "ratio"),
        "curvature.invariants_calls": (c["curvature.invariants"], "count"),
        "curvature.self_s": (tracer.total("curvature", "self_s"), "s"),
        "oracle.reports": (reports, "count"),
        "oracle.self_s": (tracer.total("oracle", "self_s"), "s"),
        "oracle.evals_per_report": (evals / reports if reports else 0.0, "count"),
        "oracle.distinct_eval_ratio": (c["oracle.distinct_evals"] / evals if evals else 0.0,
                                       "ratio"),
        "families.construct_calls": (tracer.total("families", "calls"), "count"),
        "families.self_s": (tracer.total("families", "self_s"), "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.output_bytes": (traced["bytes"], "B"),
        "cli.format_mb_per_s": (traced["bytes"] / cli_self / 1e6 if cli_self else 0.0, "MB/s"),
        "trace.overhead_ratio": (traced["wall_s"] / untraced_wall, "ratio"),
    }


def _median_metrics(samples: list[dict]) -> dict:
    """Per-metric medians; counts and bytes take the lower median so they
    stay whole."""
    return {name: ((statistics.median_low if unit in ("count", "B") else statistics.median)(
                s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    pkg = _import_program()
    workload = scenes.build(args.workload, args.seed, args.scale)
    outdir = WORK / f"{args.workload}-{args.scale}"
    shutil.rmtree(outdir, ignore_errors=True)
    paths = scenes.write_workload(workload, outdir)
    runner = Runner(pkg, workload, paths, outdir)
    golden_path = GOLDEN / f"{args.workload}-seed{args.seed}-{args.scale}.json"

    if args.write_goldens:
        ref = runner.run_pass(keep=True)
        problems = _check_reference(pkg.oracle, workload, ref, None)
        bad = [checks.fmt_problem(k, v) for k, v in problems.items() if v]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        k = checks.GOLDEN_DIAGONAL[args.scale]
        ops = {}
        for op, rec in zip(workload.ops, ref["ops"]):
            dom = workload.scenes[op.scene]["domain"]
            rows = checks.diagonal_rows(dom["ns"], dom["nt"], k)
            ops[op.key] = checks.golden_entry(op.command, rec["out"], rows)
        doc = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
               "env": _env(), "ops": ops}
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"bench: wrote {golden_path}")
        return 0

    # warm-up: every distinct operation once on a small grid, untimed
    seen = set()
    for op in workload.ops:
        kind = (op.scene.rsplit("-", 1)[0], op.command)
        if kind not in seen:
            seen.add(kind)
            runner.run_op(op, grid=WARMUP_GRID)

    untraced, traced = [], []
    start = perf_counter()
    while True:
        untraced.append(runner.run_pass(keep=not untraced))
        if args.trace:
            tr = tracing.Tracer(record=not traced)
            try:
                tr.install(pkg)
                traced.append((tr, runner.run_pass(tracer=tr)))
            finally:
                tr.uninstall()
        elapsed = perf_counter() - start
        if elapsed >= args.seconds:
            break
        if args.trace and elapsed * (1 + 1 / len(traced)) > 1.5 * args.seconds:
            break  # a traced pass is slow: do not start a cycle that would overrun
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    golden = None
    if golden_path.is_file():
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
    elif args.seed == 0:  # seed 0 is always golden-checked: no file, no entries
        print(f"bench: FAIL missing golden file {golden_path}", file=sys.stderr)
        golden = {"ops": {}}
    ref = untraced[0]
    problems = _check_reference(pkg.oracle, workload, ref, golden)
    all_passes = untraced + [p for _, p in traced]
    attempted = failed = mismatched = 0
    for p in all_passes:
        for op, rec, want in zip(workload.ops, p["ops"], ref["ops"]):
            attempted += 1
            mismatched += rec["digest"] != want["digest"]
            if rec["code"] != 0 or rec["digest"] != want["digest"] or problems[op.key]:
                failed += 1
    for key, found in problems.items():
        if found:
            print(f"bench: FAIL {checks.fmt_problem(key, found)}", file=sys.stderr)
    if mismatched:
        print(f"bench: FAIL {mismatched} operations did not reproduce the first pass's output",
              file=sys.stderr)

    if args.trace:
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        metrics = _median_metrics([_per_layer(tr, p, untraced_wall) for tr, p in traced])
        WORK.mkdir(exist_ok=True)
        traced[0][0].write(WORK / f"trace-{args.workload}-seed{args.seed}.json",
                           {"workload": args.workload, "seed": args.seed, "env": _env()})
    else:
        metrics = _end_to_end(workload, untraced, peak_rss_mb)

    env = _env()
    print(f"bench: workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} passes={len(untraced)}+{len(traced)} "
          f"ops_per_pass={len(workload.ops)} op_samples={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6g} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"bench:   {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
