"""The documented API exists: the README's Python examples run, and every
name a module exports in ``__all__`` resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import pencil4

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [importlib.import_module(f"pencil4.{info.name}")
           for info in pkgutil.iter_modules(pencil4.__path__)]


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
