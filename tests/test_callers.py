"""Every top-level function, class and constant of the package has a caller.

A caller is a code reference to the name, an ``ast.Name`` or an
``ast.Attribute``, somewhere in ``src/magdecay`` or ``scripts/`` outside
the definition itself.  Docstrings, ``__all__`` entries and imports are
strings or aliases, not references, so a name that only the tests or the
export list mention fails here: it belongs in the tests, or nowhere.  A
name assigned at module level must be read: a reference that stores to
it, or another assignment of it, is not a caller.  Dunder names such as
``__all__`` are read by Python itself and are left out.
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


def assignments():
    """(path, statement, name) of every name a module-level assignment binds."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if (
                        isinstance(name, ast.Name)
                        and isinstance(name.ctx, ast.Store)
                        and not (name.id.startswith("__") and name.id.endswith("__"))
                    ):
                        yield path, node, name.id


def references():
    """(path, line, name, read) of every Name and Attribute in the sources;
    ``read`` is whether it loads the name."""
    found = []
    for path in SOURCES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                found.append((path, node.lineno, node.id, isinstance(node.ctx, ast.Load)))
            elif isinstance(node, ast.Attribute):
                found.append((path, node.lineno, node.attr, isinstance(node.ctx, ast.Load)))
    return found


REFERENCES = references()
DEFINITIONS = list(definitions())
ASSIGNMENTS = list(assignments())


@pytest.mark.parametrize(
    "path, node", DEFINITIONS, ids=[f"{p.stem}.{n.name}" for p, n in DEFINITIONS]
)
def test_has_a_caller(path, node):
    inside = range(node.lineno, node.end_lineno + 1)
    assert any(
        name == node.name and not (where == path and line in inside)
        for where, line, name, _ in REFERENCES
    ), f"{path.stem}.{node.name} has no caller in src/magdecay or scripts/"


@pytest.mark.parametrize(
    "path, node, target", ASSIGNMENTS, ids=[f"{p.stem}.{name}" for p, _, name in ASSIGNMENTS]
)
def test_constant_is_read(path, node, target):
    inside = range(node.lineno, node.end_lineno + 1)
    assert any(
        read and name == target and not (where == path and line in inside)
        for where, line, name, read in REFERENCES
    ), f"{path.stem}.{target} is never read in src/magdecay or scripts/"
