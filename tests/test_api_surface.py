"""Every function and class of the package has a use inside it.

A name defined in src/fluxgraph counts as used where a Name or an
Attribute node refers to it. An import is not a use, so a name that only
tests or the package's __init__ bring in is flagged: such a helper
belongs in tests/conftest.py. KEPT names the public API that is used
from outside the package, each with its reason.

The guard matches names, not the objects they refer to, so it cannot
see two kinds of test-only member. A dunder method (__eq__, __repr__)
is never flagged, as Python calls it without naming it. A method named
like a builtin type's method (values, items, edges) counts as used
wherever a dict's or another class's member of that name is read. Such
members must be checked by hand, by tracing a run of every command.
"""

import ast
from pathlib import Path

import fluxgraph

SOURCES = sorted(path for path in Path(fluxgraph.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")

KEPT = {
    "canonical_form": "bench/spans.py wraps it as an attribute of fluxgraph.cli",
    "load_contracted": "bench/spans.py wraps it as an attribute of fluxgraph.cli",
    "read_transfers": "bench/spans.py wraps it as an attribute of fluxgraph.cli",
    "write_transfers": "bench/spans.py wraps it as an attribute of fluxgraph.cli",
    "from_mapping": "README's public API: a Coloring from a name -> color mapping",
    "generate": "README's public API: a scenario's ledger and ground truth in memory",
    "add_transfer": "README's public API: fold one transfer; bench/inputs.py folds with it",
}


def definitions_and_uses() -> tuple[dict[str, str], set[str]]:
    """Each def and class name with where it is first defined, and every
    name a Name or Attribute node refers to."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_definition_has_a_use():
    defined, used = definitions_and_uses()
    unused = sorted(
        f"{name} ({where})" for name, where in defined.items()
        if name not in used and name not in KEPT
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert not unused, f"defined in src/fluxgraph but used by nothing there: {unused}"


def test_kept_names_exist():
    defined, _used = definitions_and_uses()
    assert sorted(set(KEPT) - set(defined)) == []
