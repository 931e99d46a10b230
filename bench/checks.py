"""Correctness checks on the outputs of benchmark operations.

Each check returns a list of problems; an operation passes when the list is
empty.  Three kinds of check:

* golden: a deterministic subset of output rows recorded from the seed code
  (``bench/golden``), taken along both diagonals of the (s, t) grid so that
  every sampled row has its own s and t.  Points, s, t, E and G must agree
  to 4 ulp of the vector's largest component; K and |H|^2 to a relative
  1e-9 (absolute floor 1e-12); status columns, row counts and OBJ faces
  exactly.  K_N and oracle columns are not in the golden comparison: K_N is
  checked against the oracle instead, because a correct change to its
  normalization would change every value.
* oracle: at sampled interior grid points the closed-form K, K_N (up to
  one global sign per operation) and |H|^2 of a curvature or export output
  must match ``pencil4.oracle.numeric_forms`` within ORACLE_TOL, relative to
  max(1, |oracle value|).
* structure: exit code 0, the expected verdict line, the expected row count
  and status ``ok`` on every row; and eval/export points and
  curvature/export K of one scene agree.
"""

from __future__ import annotations

import hashlib

import numpy as np

ULPS = 4
RTOL = 1e-9
ATOL = 1e-12
ORACLE_TOL = 1e-5

_REL = {"K", "Hnormsq", "K_closed", "Hnormsq_closed"}
_SKIP = {"K_N", "K_N_closed", "K_N_oracle", "K_oracle", "Hnormsq_oracle"}

# golden rows per grid diagonal, per scale
GOLDEN_DIAGONAL = {"full": 8, "tiny": 4}


class Output:
    """What one operation printed and wrote."""

    def __init__(self, code, stdout: str, files: dict[str, str]):
        self.code = code
        self.stdout = stdout
        self.files = files  # suffix -> text

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.code}\0{self.stdout}".encode())
        for suffix in sorted(self.files):
            h.update(f"\0{suffix}\0{self.files[suffix]}".encode())
        return h.hexdigest()

    def nbytes(self) -> int:
        return len(self.stdout.encode()) + sum(len(t.encode()) for t in self.files.values())

    def csv(self, command: str) -> str | None:
        if command in ("eval", "curvature"):
            return self.stdout
        if command in ("verify", "export"):
            return self.files.get(".csv")
        return None


def _table(text: str) -> tuple[list[str], list[str]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), lines[1:]


def sample_indices(n: int, k: int) -> list[int]:
    if n <= k:
        return list(range(n))
    if k == 1:
        return [n // 2]
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------


def diagonal_rows(ns: int, nt: int, k: int) -> list[int]:
    """Row indices of k grid points along each diagonal of an ns x nt grid
    whose rows run t-major (row = it * ns + is), as every grid output does."""
    s_idx, t_idx = sample_indices(ns, k), sample_indices(nt, k)
    pairs = list(zip(s_idx, t_idx)) + list(zip(s_idx, reversed(t_idx)))
    return sorted({it * ns + i_s for i_s, it in pairs})


def golden_entry(command: str, out: Output, rows: list[int]) -> dict:
    entry = {}
    text = out.csv(command)
    if text is not None:
        header, lines = _table(text)
        entry["csv"] = {"header": header, "nrows": len(lines),
                        "rows": {str(i): lines[i] for i in rows}}
    if ".obj" in out.files:
        verts, faces = _obj(out.files[".obj"])
        entry["obj"] = {"nverts": len(verts), "nfaces": len(faces),
                        "faces_sha256": hashlib.sha256("\n".join(faces).encode()).hexdigest(),
                        "verts": {str(i): verts[i] for i in rows}}
    return entry


def _obj(text: str) -> tuple[list[str], list[str]]:
    lines = text.rstrip("\n").split("\n")
    return [ln for ln in lines if ln.startswith("v ")], [ln for ln in lines if ln.startswith("f ")]


def _groups(header: list[str]) -> list[tuple[str, list[int]]]:
    """(kind, column indices): the point columns x1..x4 form one 'ulp'
    group, compared as one vector."""
    groups, point = [], []
    for i, name in enumerate(header):
        if name == "status":
            groups.append(("exact", [i]))
        elif name in _SKIP:
            continue
        elif name in _REL:
            groups.append(("rel", [i]))
        elif name[:1] == "x" and name[1:].isdigit():
            point.append(i)
        else:
            groups.append(("ulp", [i]))
    if point:
        groups.append(("ulp", point))
    return groups


def _close(kind: str, got: list[str], want: list[str]) -> bool:
    if kind == "exact" or "nan" in got or "nan" in want:
        return got == want
    g = np.array([float(x) for x in got])
    w = np.array([float(x) for x in want])
    if kind == "rel":
        return bool(np.all(np.abs(g - w) <= RTOL * np.abs(w) + ATOL))
    tol = ULPS * np.spacing(np.max(np.abs(w)))
    return bool(np.all(np.abs(g - w) <= tol))


def _compare_rows(what: str, groups, got: list[str], want: list[str]) -> list[str]:
    problems = []
    g, w = got.split(","), want.split(",")
    if len(g) != len(w):
        return [f"{what}: {len(g)} fields, golden has {len(w)}"]
    for kind, cols in groups:
        if not _close(kind, [g[c] for c in cols], [w[c] for c in cols]):
            problems.append(f"{what}: columns {cols} ({kind}) {[g[c] for c in cols]} "
                            f"!= golden {[w[c] for c in cols]}")
    return problems


def check_golden(command: str, out: Output, golden: dict) -> list[str]:
    problems = []
    if "csv" in golden:
        text = out.csv(command)
        if text is None:
            return ["no CSV output to compare with the golden"]
        header, lines = _table(text)
        want = golden["csv"]
        if header != want["header"] or len(lines) != want["nrows"]:
            return [f"CSV shape {header}/{len(lines)} != golden {want['header']}/{want['nrows']}"]
        groups = _groups(header)
        for idx, row in want["rows"].items():
            problems += _compare_rows(f"row {idx}", groups, lines[int(idx)], row)
    if "obj" in golden:
        verts, faces = _obj(out.files.get(".obj", ""))
        want = golden["obj"]
        if len(verts) != want["nverts"] or len(faces) != want["nfaces"] \
                or hashlib.sha256("\n".join(faces).encode()).hexdigest() != want["faces_sha256"]:
            return problems + ["OBJ vertex/face counts or faces differ from the golden"]
        for idx, row in want["verts"].items():
            got, exp = verts[int(idx)].split()[1:], row.split()[1:]
            if not _close("ulp", got, exp):
                problems.append(f"OBJ vertex {idx}: {got} != golden {exp}")
    return problems


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


def check_structure(op, out: Output, ns: int, nt: int) -> list[str]:
    if out.code != 0:
        return [f"exit code {out.code}"]
    problems = []
    if op.verdict is not None and op.verdict not in out.stdout.splitlines():
        problems.append(f"missing verdict line {op.verdict!r}")
    text = out.csv(op.command)
    if text is not None:
        header, lines = _table(text)
        if len(lines) != ns * nt:
            problems.append(f"{len(lines)} CSV rows, expected {ns * nt}")
        if "status" in header:
            col = header.index("status")
            bad = sum(1 for ln in lines if ln.split(",")[col] != "ok")
            if bad:
                problems.append(f"{bad} rows not ok")
    if op.command == "export":
        verts, faces = _obj(out.files.get(".obj", ""))
        if len(verts) != ns * nt or len(faces) != (ns - 1) * (nt - 1):
            problems.append(f"OBJ has {len(verts)} vertices / {len(faces)} faces")
    return problems


def check_consistency(outputs: dict[str, Output]) -> list[str]:
    """eval vs export points (4 ulp) and curvature vs export K (relative)
    for the operations of one scene, keyed by command."""
    problems = []
    export = outputs.get("export")
    if export is None or ".csv" not in export.files:
        return problems
    eh, erows = _table(export.files[".csv"])
    for command, cols, kind in (("eval", ["x1", "x2", "x3", "x4"], "ulp"),
                                ("curvature", ["K"], "rel")):
        other = outputs.get(command)
        if other is None or other.code != 0:
            continue
        oh, orows = _table(other.stdout)
        if len(orows) != len(erows):
            problems.append(f"{command} and export row counts differ")
            continue
        ei = [eh.index(c) for c in cols]
        oi = [oh.index(c) for c in cols]
        for r, (a, b) in enumerate(zip(orows, erows)):
            a, b = a.split(","), b.split(",")
            if not _close(kind, [b[i] for i in ei], [a[i] for i in oi]):
                problems.append(f"export row {r} {cols} differ from {command}")
                break
    return problems


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def _interior_rows(header: list[str], lines: list[str], k: int) -> list[list[str]]:
    si, ti = header.index("s"), header.index("t")
    rows = [ln.split(",") for ln in lines]
    s_vals = sorted({r[si] for r in rows}, key=float)
    t_vals = sorted({r[ti] for r in rows}, key=float)
    edge_s = {s_vals[0], s_vals[-1]} if len(s_vals) > 2 else set()
    edge_t = {t_vals[0], t_vals[-1]} if len(t_vals) > 2 else set()
    inner = [r for r in rows if r[si] not in edge_s and r[ti] not in edge_t]
    return [inner[i] for i in sample_indices(len(inner), k)]


def check_oracle(command: str, out: Output, scene, orc, k: int) -> list[str]:
    """Closed-form invariants against the finite-difference oracle."""
    text = out.csv(command)
    if text is None or out.code != 0:
        return []
    if command not in ("curvature", "export"):
        return []
    header, lines = _table(text)
    pad = 4e-3
    im = orc.Immersion(scene.surface.point_array,
                       (scene.s_range[0] - pad - 1.0, scene.s_range[1] + pad + 1.0),
                       (scene.t_range[0] - pad, scene.t_range[1] + pad))
    names = [n for n in ("K", "K_N", "Hnormsq") if n in header]
    closed = {n: [] for n in names}
    oracle = {n: [] for n in names}
    si, ti = header.index("s"), header.index("t")
    for row in _interior_rows(header, lines, k):
        rep = orc.numeric_forms(im, float(row[si]), float(row[ti]))
        values = {"K": rep.K, "K_N": rep.k_n_oriented, "Hnormsq": rep.h_norm_sq}
        for n in names:
            closed[n].append(float(row[header.index(n)]))
            oracle[n].append(values[n])
    problems = []
    for n in names:
        a, b = np.array(closed[n]), np.array(oracle[n])
        if not len(a):
            continue
        limit = ORACLE_TOL * np.maximum(1.0, np.abs(b))
        dev = np.abs(a - b)
        if n == "K_N":  # one global sign: the orientation of the oracle's normal basis
            dev = min(dev, np.abs(a + b), key=lambda d: float(np.max(d - limit)))
        if not np.all(dev <= limit):
            problems.append(f"{n} misses the oracle: max dev {np.max(dev):.3e}")
    return problems


def fmt_problem(op_key: str, problems: list[str]) -> str:
    head = "; ".join(problems[:3])
    more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
    return f"{op_key}: {head}{more}"
