"""Source hygiene: every imported name is read in the module importing it.

No linter ships with the project, so this AST scan stands in for the
unused-import rule over the package and the test modules. A name counts as
read when it appears as a loaded name anywhere in the module or is listed
in the module's ``__all__``; ``from __future__`` imports are directives,
not names.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "rbrdo").rglob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(
        imported.items(), key=lambda item: item[1])
        if name not in read and name not in exported]


def test_scan_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport a.b\nfrom m import x, y as z, w\n"
              "__all__ = ['w']\nprint(sys.argv, a.b, z)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: x"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT)
                         .as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
