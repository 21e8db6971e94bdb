"""Every top-level function and class of the package has a caller.

A caller is a code reference to the name, an ``ast.Name`` or an
``ast.Attribute``, somewhere in ``src/magdecay`` or ``scripts/`` outside
the definition itself.  Docstrings, ``__all__`` entries and imports are
strings or aliases, not references, so a name that only the tests or the
export list mention fails here: it belongs in the tests, or nowhere.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "magdecay"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node


def references():
    """(path, line, name) of every Name and Attribute in the sources."""
    found = []
    for path in SOURCES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                found.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                found.append((path, node.lineno, node.attr))
    return found


REFERENCES = references()
DEFINITIONS = list(definitions())


@pytest.mark.parametrize(
    "path, node", DEFINITIONS, ids=[f"{p.stem}.{n.name}" for p, n in DEFINITIONS]
)
def test_has_a_caller(path, node):
    inside = range(node.lineno, node.end_lineno + 1)
    assert any(
        name == node.name and not (where == path and line in inside)
        for where, line, name in REFERENCES
    ), f"{path.stem}.{node.name} has no caller in src/magdecay or scripts/"
