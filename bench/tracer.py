"""Span tracer for the benchmark's traced run.

The program is not edited: ``Tracer.install`` replaces public functions and
methods of the pencil4 modules with wrappers, at their module or class
attribute and at every by-name import of the same object (``cli`` and
``pencil`` import ``frenet_apparatus`` by name).  ``uninstall`` puts the
originals back.  The targets that the reported metrics are built from must
exist: ``install`` raises if one is missing, so that a renamed function
fails the traced run instead of reporting zero calls.

A wrapped call opens a span unless the innermost open span belongs to the
same module: that guard folds recursive ``expr.evaluate`` calls and a
module's nested helper calls into the outermost span.  Self time is a span's
duration minus the time its child spans cover.  Every span is aggregated by
name; the individual spans of a name are kept (for ``write``) until that name
passes ``RECORD_LIMIT`` calls, after which it is only aggregated.

Counters that must see folded calls too (frame-cache hits, oracle reports
and their point evaluations, invariant assemblies) are kept separately.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

RECORD_LIMIT = 100_000

# the run_* functions the workloads call
_RUNS = ("run_eval", "run_curvature", "run_export", "run_verify", "run_flat_design")

# caller module of an outermost expr.evaluate call -> reported group
_CALLER_GROUPS = {"pencil4.curve": "curve", "pencil4.pencil": "marching"}


class Tracer:
    def __init__(self, record: bool = True):
        self.stack: list[list] = []          # [module, child_s, span_id] per open span
        self.agg: dict[str, list] = {}       # span name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.records: dict[str, list] = {}   # span name -> [(id, parent, start, end)]
        self.names_aggregated: set[str] = set()
        self.record = record
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def call(self, name: str, module: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        sid = self._next_id
        self._next_id = sid + 1
        stack = self.stack
        parent = stack[-1][2] if stack else -1
        frame = [module, 0.0, sid]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            agg = self.agg.get(name)
            if agg is None:
                agg = self.agg[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[1]
            if self.record and name not in self.names_aggregated:
                recs = self.records.setdefault(name, [])
                if len(recs) < RECORD_LIMIT:
                    recs.append((sid, parent, t0, t1))
                else:
                    self.names_aggregated.add(name)
                    del self.records[name]

    def _wrap(self, fn, module: str, name: str, by_caller: bool = False):
        stack, call = self.stack, self.call

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == module:
                return fn(*args, **kwargs)
            label = name
            if by_caller:
                caller = sys._getframe(1).f_globals.get("__name__", "")
                label = f"{name}@{_CALLER_GROUPS.get(caller, 'other')}"
            return call(label, module, fn, *args, **kwargs)

        return traced

    # -- installation ---------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap the public entry points of every pencil4 module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == pkg.__name__ or n.startswith(pkg.__name__ + "."))]
        ex, cv, pc, cu, orc, fam, cli = (pkg.expr, pkg.curve, pkg.pencil, pkg.curvature,
                                         pkg.oracle, pkg.families, pkg.cli)
        counts = self.counts

        for attr in ("differentiate", "to_string"):
            self._patch(modules, ex, attr, "expr", f"expr.{attr}")
        self._patch(modules, ex, "parse", "expr", "expr.parse", required=True)
        self._patch(modules, ex, "evaluate", "expr", "expr.evaluate", by_caller=True,
                    required=True)

        self._patch(modules, cv, "frenet_apparatus", "curve", "curve.frame",
                    count="curve.frame", required=True)
        self._patch(modules, cv, "complete_frame", "curve", "curve.frame")
        for cls in (getattr(cv, "WCurve", None), getattr(cv, "AnalyticCurve", None)):
            for attr in ("point", "derivative_arrays"):
                self._patch(modules, cls, attr, "curve", "curve.point")

        surface = pc.PencilSurface
        self._patch(modules, surface, "point_array", "pencil", "pencil.point", required=True)
        self._patch(modules, surface, "fundamental_forms", "pencil", "pencil.forms",
                    required=True)
        for attr, name in (("point", "pencil.point"), ("coefficients", "pencil.other"),
                           ("tangent_frame", "pencil.other"), ("normal_frame", "pencil.other"),
                           ("second_derivative_s", "pencil.other"),
                           ("_kappas", "pencil.other"), ("_kappa_rates", "pencil.other")):
            self._patch(modules, surface, attr, "pencil", name)
        for attr, name in (("eval_surface", "pencil.point"),
                           ("fundamental_forms", "pencil.forms"),
                           ("coefficients", "pencil.other"), ("tangent_frame", "pencil.other"),
                           ("normal_frame", "pencil.other")):
            self._patch(modules, pc, attr, "pencil", name)
        marching = getattr(pc, "MarchingScale", None)
        for attr in ("values", "__post_init__"):
            self._patch(modules, marching, attr, "pencil", "pencil.marching")

        def frame_hook(inner):
            def frame(surface, s, *args, **kwargs):
                counts["pencil.frame"] += 1
                cache = getattr(surface, "_frames", None)
                if isinstance(cache, dict) and s in cache:
                    counts["pencil.frame_hit"] += 1
                return inner(surface, s, *args, **kwargs)
            return frame

        self._patch(modules, surface, "frame", "pencil", "pencil.frame", hook=frame_hook,
                    required=True)

        self._patch(modules, cu, "invariants_from_forms", "curvature", "curvature",
                    count="curvature.invariants", required=True)
        for attr in _public(cu) - {"invariants_from_forms"} | {"mean_vector_ambient"}:
            self._patch(modules, cu, attr, "curvature", "curvature")

        def oracle_hook(inner):
            def numeric_forms(im, *args, **kwargs):
                counts["oracle.reports"] += 1
                fn = getattr(im, "fn", None)
                if fn is None or not dataclasses.is_dataclass(im):
                    raise TypeError("oracle.numeric_forms: the immersion is not a dataclass "
                                    "with a point function 'fn'; its evaluations cannot be "
                                    "counted")
                seen = set()
                evals = 0

                def counted(*point):
                    nonlocal evals
                    evals += 1
                    try:
                        seen.add(point)
                    except TypeError:  # array arguments
                        seen.add(repr(point))
                    return fn(*point)

                try:
                    return inner(dataclasses.replace(im, fn=counted), *args, **kwargs)
                finally:
                    counts["oracle.evals"] += evals
                    counts["oracle.distinct_evals"] += len(seen)
            return numeric_forms

        self._patch(modules, orc, "numeric_forms", "oracle", "oracle", hook=oracle_hook,
                    required=True)
        for attr in ("compare", "grid_max_abs_gaussian"):
            self._patch(modules, orc, attr, "oracle", "oracle")
        self._patch(modules, getattr(orc, "Immersion", None), "step_at", "oracle", "oracle")

        # the verify workload loads ruled and Vranceanu scenes through these
        for attr in _public(fam) | {"ruled_pencil", "vranceanu"}:
            self._patch(modules, fam, attr, "families", "families",
                        required=attr in ("ruled_pencil", "vranceanu"))

        self._patch(modules, cli, "load_scene", "cli", "cli.load_scene", required=True)
        for attr in sorted({a for a in vars(cli) if a.startswith("run_")} | set(_RUNS)):
            self._patch(modules, cli, attr, "cli", "cli.run", required=attr in _RUNS)

    def _patch(self, modules, owner, attr, module, name, by_caller=False, count=None,
               hook=None, required=False) -> None:
        original = vars(owner).get(attr) if owner is not None else None
        if not _is_plain_function(original):
            if required:
                raise AttributeError(f"tracer: no function {attr!r} on {owner!r} to wrap "
                                     f"for {name!r}")
            return
        wrapper = self._wrap(original, module, name, by_caller)
        if count is not None:
            wrapper = _counting(wrapper, self.counts, count)
        if hook is not None:
            wrapper = hook(wrapper)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            targets += [(m, k) for m in modules for k, v in list(vars(m).items())
                        if v is original and (m, k) != (owner, attr)]
        for target, key in targets:
            self._patches.append((target, key, original))
            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def total(self, name: str, column: str):
        """Sum of one aggregate column ('calls', 'total_s' or 'self_s') over
        the spans named ``name`` or ``name@<caller>``."""
        col = ("calls", "total_s", "self_s").index(column)
        return sum(a[col] for n, a in self.agg.items() if n == name or n.startswith(name + "@"))

    def write(self, path: Path, meta: dict) -> None:
        """Spans and aggregates as JSON; spans are (id, parent, start, end)
        with times in seconds relative to the earliest recorded start."""
        starts = [r[2] for recs in self.records.values() for r in recs]
        t0 = min(starts) if starts else 0.0
        doc = {
            **meta,
            "aggregates": {n: {"calls": a[0], "total_s": a[1], "self_s": a[2]}
                           for n, a in sorted(self.agg.items())},
            "counts": dict(sorted(self.counts.items())),
            "aggregated_only": sorted(self.names_aggregated),
            "spans": {n: [[i, p, round(s - t0, 9), round(e - t0, 9)] for i, p, s, e in recs]
                      for n, recs in sorted(self.records.items())},
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _public(module) -> set[str]:
    return {name for name in getattr(module, "__all__", ())
            if _is_plain_function(getattr(module, name, None))}


def _is_plain_function(obj) -> bool:
    return callable(obj) and not isinstance(obj, (type, classmethod, staticmethod))


def _counting(fn, counts: Counter, key: str):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted
