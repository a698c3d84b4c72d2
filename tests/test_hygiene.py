"""Source and import hygiene.

No linter ships with the project, so an AST scan stands in for the
unused-import rule over the package and the test modules: every imported
name is read in the module importing it. A name counts as read when it
appears as a loaded name anywhere in the module or is listed in the
module's ``__all__``; ``from __future__`` imports are directives, not
names. A run also must not pull in heavy modules it does not need.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_run_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma: about 1.2 MB of resident memory, paid
    # at the end of every run by the front fit (which needs >= 4 members)
    script = (
        "import sys\n"
        "from rbrdo.cli import main\n"
        "common = ['--problem', 'benchmark', '--NP', '10', '--seed', '1',\n"
        "          '--generations', '5']\n"
        "assert main(['run', '--mode', 'rbrdo', '--delta', '0.05',\n"
        "             '--samples', '4', '--R', '2', '--out', 'a'] + common) == 0\n"
        "assert main(['run', '--mode', 'rbdo', '--out', 'b'] + common) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, RBRDO_OUTPUT_DIR=str(tmp_path),
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "front members, n=" in proc.stdout  # the fit ran
    assert proc.stdout.splitlines()[-1] == "False"
