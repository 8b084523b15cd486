"""The package runs on the standard library alone (dependencies = [])."""

import ast
import sys
from pathlib import Path

import fluxgraph

PACKAGE = Path(fluxgraph.__file__).parent


def absolute_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_standard_library_imports():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    outside = {
        f"{path.name}: {name}"
        for path in modules
        for name in absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"fluxgraph"}
    }
    assert not outside
