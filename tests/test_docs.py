"""The documented API exists: the README's Python examples run, its scene
examples load and print what it says, and every name a module exports in
``__all__`` resolves."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import pencil4
from pencil4 import cli
from pencil4 import oracle as orc
from pencil4 import text as tx

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [importlib.import_module(f"pencil4.{info.name}")
           for info in pkgutil.iter_modules(pencil4.__path__)]


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    assert blocks("python")
    for block in blocks("python"):
        exec(compile(block, str(README), "exec"), {})


def test_readme_scene_examples_run(tmp_path, capsys):
    scenes = {}
    for i, block in enumerate(blocks("json")):
        path = tmp_path / f"scene{i}.json"
        path.write_text(block, encoding="utf-8")
        cli.load_scene(path)
        scenes[json.loads(block)["marching"]["kind"]] = str(path)
    capsys.readouterr()
    assert cli.main(["verify", "--config", scenes["ruled"]]) == cli.EXIT_OK
    assert capsys.readouterr().out.endswith("overall: PASS\n")

    assert cli.main(["flat-design", "--config", scenes["flat_polar"]]) == cli.EXIT_OK
    out = capsys.readouterr().out.splitlines()
    (example,) = [b for b in blocks("bash") if b.startswith("pencil4 flat-design")]
    printed = [line[2:] for line in example.splitlines()[1:] if line != "# ..."]
    assert printed == out[-len(printed):]
    assert printed[-1] == "verdict: FLAT"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("pattern, value", [
    (r"blocks of whole\s+t-rows \(about ([\d,]+) points\)", tx.BLOCK_POINTS),
    (r"each block\s+of ([\d,]+) faces", tx.BLOCK_POINTS),
    (r"slice of up to ([\d,]+) points", orc.SLICE),
    (r"`oracle\.SLICE` \(([\d,]+)\)", orc.SLICE),
    (r"at ([\d,]+) points per slice;", orc.SLICE),
    (r"so ([\d,]+) is the largest slice\s+size", orc.SLICE),
], ids=["block", "faces", "SLICE-tour", "SLICE", "SLICE-peak", "SLICE-largest"])
def test_readme_figures_are_the_module_constants(pattern, value):
    figures = re.findall(pattern, README.read_text(encoding="utf-8"))
    assert figures and [int(f.replace(",", "")) for f in figures] == [value] * len(figures)
