"""Source and import hygiene.

No linter ships with the project, so an AST scan stands in for the
unused-import rule over the package and the test modules: every imported
name is read in the module importing it. A name counts as read when it
appears as a loaded name anywhere in the module or is listed in the
module's ``__all__``; ``from __future__`` imports are directives, not
names. A second scan bars orphan helpers: every private module-level
name of the package (a ``_name`` function, class or constant) is read
somewhere in the package. A third bars test-only public faces: every name
in ``rbrdo.__all__`` is read by name in some package module other than
``rbrdo/__init__.py``. A run also must not pull in heavy modules it does
not need, and the MPP search sits below the rest of the package. Its step
makes no pass along a row of only n values: no ``np.linalg.norm`` and no
reduction over ``axis=1`` (or -1), so the one row-norm implementation,
``_row_norm``, stays the only one.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "rbrdo").rglob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def orphan_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level names of ``sources`` (module name -> source)
    that nothing reads: not the defining module by name, and no module by
    ``from ... import`` or as an attribute."""
    defined, local, shared = [], {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", "")]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        local[module] = {node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared |= {alias.name for alias in node.names}
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name not in local[module] and name not in shared]


def test_scan_flags_orphan_privates():
    sources = {
        "a": ("_LIMIT = 3\n_SEEN: set = set()\nclass _Box: pass\n"
              "def _used(x): return x\ndef _orphan(): return _used(_LIMIT)\n"
              "def _imported(): pass\ndef _attr(): pass\n"),
        "b": "from a import _imported\nimport a\n_imported(a._attr)\n"}
    assert orphan_privates(sources) == [
        "a line 2: _SEEN", "a line 3: _Box", "a line 5: _orphan"]


def test_no_orphan_privates():
    assert orphan_privates({path.relative_to(ROOT).as_posix():
                            path.read_text(encoding="utf-8")
                            for path in PACKAGE}) == []


def unread_exports(exports, sources: dict[str, str]) -> list[str]:
    """Names of ``exports`` that no module of ``sources`` (module name ->
    source) reads as a loaded name."""
    read = set()
    for source in sources.values():
        read |= {node.id for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
    return sorted(set(exports) - read)


def test_scan_flags_unread_exports():
    sources = {"a": "def f(): pass\ndef g(): pass\nclass C: pass\nf()\n",
               "b": "from a import g\nx: C = None\n"}
    assert unread_exports(["f", "g", "C"], sources) == ["g"]


def test_every_export_is_read_by_the_package():
    init = ROOT / "src" / "rbrdo" / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    exports = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", "") == "__all__"
                           for t in node.targets))
    assert unread_exports(exports, {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for path in PACKAGE if path != init}) == []


def package_imports(source: str) -> set[str]:
    """The ``rbrdo`` modules ``source`` imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("rbrdo")):
            module = (node.module or "").removeprefix("rbrdo").lstrip(".")
            found |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.removeprefix("rbrdo.") for a in node.names
                      if a.name.startswith("rbrdo.")}
    return found


def test_scan_finds_package_imports():
    source = ("import numpy, rbrdo.core\nfrom . import stats\n"
              "from .errors import UsageError\nfrom rbrdo.sampling import x\n"
              "from typing import Callable\n")
    assert package_imports(source) == {"core", "stats", "errors", "sampling"}


def test_reliability_imports_only_errors():
    # the MPP search works on the problem's arrays alone: no sampling,
    # problem or robustness types reach into it
    source = (ROOT / "src" / "rbrdo" / "reliability.py").read_text(
        encoding="utf-8")
    assert package_imports(source) <= {"errors"}


def row_passes(source: str) -> list[str]:
    """Calls in ``source`` that reduce along rows: ``np.linalg.norm`` and
    any call with ``axis=1`` or ``axis=-1``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if ast.unparse(node.func).endswith("linalg.norm"):
            found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
        for kw in node.keywords:
            try:
                axis = ast.literal_eval(kw.value) if kw.arg == "axis" else 0
            except ValueError:  # a name: not a fixed row axis
                continue
            if axis in (1, -1):
                found.append(f"line {node.lineno}: axis={axis}")
    return found


def test_scan_flags_row_passes():
    source = ("import numpy as np\nfrom numpy import linalg\n"
              "a = np.linalg.norm(x, axis=1)\nb = linalg.norm(x)\n"
              "c = np.isfinite(x).all(axis=-1)\nd = x.sum(axis=0)\n"
              "e = np.take(x, i, axis=0)\nf = x.max(axis=k)\n")
    assert row_passes(source) == ["line 3: np.linalg.norm", "line 3: axis=1",
                                  "line 4: linalg.norm", "line 5: axis=-1"]


def test_reliability_makes_no_row_passes():
    source = (ROOT / "src" / "rbrdo" / "reliability.py").read_text(
        encoding="utf-8")
    assert row_passes(source) == []


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
