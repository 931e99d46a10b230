"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``.

Each run is a fresh ``bench/run.py`` process at the tiny scale, which has
its own goldens for seed 0.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import scenes  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = scenes.WORKLOADS


def bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checkout(tmp_path, with_program=True) -> Path:
    """A copy of the benchmark in tmp_path, with the program's sources linked
    in unless ``with_program`` is false."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    res = result(bench("--workload", workload, "--seed", "0", "--seconds", "0.5",
                       "--trace", str(trace), "--scale", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in res["metrics"].items()} == {m["name"]: m["unit"]
                                                                 for m in spec}
    if trace:
        assert res["metrics"]["trace.overhead_ratio"]["value"] > 0
        if workload == "verify":
            assert res["metrics"]["oracle.evals_per_report"]["value"] == 33
            assert res["metrics"]["oracle.distinct_eval_ratio"]["value"] == 25 / 33
        if workload == "grid":
            assert res["metrics"]["oracle.reports"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_trace_counts_repeat_exactly():
    runs = [result(bench("--workload", "verify", "--seconds", "0.5", "--trace", "1",
                         "--scale", "tiny"))["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in r.items() if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]


def test_corrupted_golden_fails(tmp_path):
    root = checkout(tmp_path)
    path = root / "bench" / "golden" / "grid-seed0-tiny.json"
    golden = json.loads(path.read_text())
    entry = golden["ops"]["w_curve/eval"]["csv"]
    idx = sorted(entry["rows"], key=int)[1]  # an interior grid point
    fields = entry["rows"][idx].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-12) + 1e-300)  # x1 off by more than 4 ulp
    entry["rows"][idx] = ",".join(fields)
    path.write_text(json.dumps(golden))
    res = result(bench("--workload", "grid", "--seconds", "0.1", "--scale", "tiny",
                       cwd=root, root=root))
    assert res["failed"] > 0 and res["correct"] is False


def test_missing_golden_fails_at_seed_0(tmp_path):
    root = checkout(tmp_path)
    (root / "bench" / "golden" / "verify-seed0-tiny.json").unlink()
    res = result(bench("--workload", "verify", "--seconds", "0.1", "--scale", "tiny",
                       cwd=root, root=root))
    assert res["failed"] == res["attempted"] and res["correct"] is False


def test_goldens_sample_interior_grid_points():
    for path in sorted((BENCH / "golden").glob("*.json")):
        for key, entry in json.loads(path.read_text())["ops"].items():
            if "csv" not in entry:
                continue
            header, rows = entry["csv"]["header"], entry["csv"]["rows"].values()
            for col in ("s", "t"):
                values = {row.split(",")[header.index(col)] for row in rows}
                assert len(values) > 2, f"{path.name} {key}: golden rows span {col} ends only"


def test_tracer_refuses_a_missing_target(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import pencil4.cli  # noqa: F401

    monkeypatch.delattr(pencil4.pencil.PencilSurface, "fundamental_forms")
    tr = tracer.Tracer()
    try:
        with pytest.raises(AttributeError, match="fundamental_forms"):
            tr.install(pencil4)
    finally:
        tr.uninstall()


def test_refuses_to_run_without_the_program(tmp_path):
    root = checkout(tmp_path, with_program=False)
    proc = bench("--workload", "grid", "--seconds", "1", cwd=root, root=root)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_generator_is_seeded():
    for workload in WORKLOADS:
        assert scenes.build(workload, 7).scenes == scenes.build(workload, 7).scenes
        assert scenes.build(workload, 7).scenes != scenes.build(workload, 8).scenes
