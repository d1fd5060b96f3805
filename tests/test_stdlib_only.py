"""The package runs on the standard library alone: every import in
src/holant3 is relative or names a standard-library module, and the
project declares no dependencies."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_import_is_relative_or_stdlib():
    sources = sorted((ROOT / "src" / "holant3").glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside


def test_project_declares_no_dependencies():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)
