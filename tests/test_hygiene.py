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
``rbrdo/__init__.py``, and every public module-level name is read by the
package too (a re-export by an ``__init__.py`` does not count), so a path
that only the tests reach lives with them. A run also must not pull in
heavy modules it does not need, and the MPP search sits below the rest of
the package. Its step makes no pass along one search's n coordinates,
axis 0 of its coordinate-major arrays: no ``np.linalg.norm``, no
``np.einsum`` and no call over ``axis=0`` (or -2), so the one row-norm
implementation, ``_row_norm``, and the one dot-product order,
``_lane_dot``, stay the only ones. Nor does it call
numpy's Python-level wrappers on each iteration: one ``np.errstate``
covers the whole search, and no ``np.flatnonzero``, ``np.take`` or
``.any()`` call remains. Stream keys
have one derivation, ``sampling._philox_keys``: no package module builds
a numpy ``SeedSequence`` itself.
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


def unread_names(sources: dict[str, str], public: bool) -> list[str]:
    """Module-level names of ``sources`` (module name -> source), public or
    private (``_name``), that nothing reads: not the defining module by
    name, and no module as an attribute or by ``from ... import``. A
    package ``__init__.py`` importing a name re-exports it; that is not a
    read."""
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
                        if name and not name.startswith("__")
                        and name.startswith("_") != public]
        local[module] = {node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif (isinstance(node, ast.ImportFrom)
                  and not module.endswith("__init__.py")):
                shared |= {alias.name for alias in node.names}
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name not in local[module] and name not in shared]


def package_sources() -> dict[str, str]:
    return {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
            for path in PACKAGE}


def test_scan_flags_orphan_privates():
    sources = {
        "a": ("_LIMIT = 3\n_SEEN: set = set()\nclass _Box: pass\n"
              "def _used(x): return x\ndef _orphan(): return _used(_LIMIT)\n"
              "def _imported(): pass\ndef _attr(): pass\n"),
        "b": "from a import _imported\nimport a\n_imported(a._attr)\n"}
    assert unread_names(sources, public=False) == [
        "a line 2: _SEEN", "a line 3: _Box", "a line 5: _orphan"]


def test_no_orphan_privates():
    assert unread_names(package_sources(), public=False) == []


def test_scan_flags_unread_publics():
    sources = {
        "p/__init__.py": "from .a import exported\n__version__ = '1'\n",
        "p/a.py": ("LIMIT = 3\nUNUSED: int = 4\ndef used(): return LIMIT\n"
                   "def exported(): pass\ndef imported(): pass\n"
                   "def attr(): pass\nclass Orphan: pass\n_x = used()\n"),
        "p/b.py": "from .a import imported\nfrom . import a\na.attr()\n"}
    assert unread_names(sources, public=True) == [
        "p/a.py line 2: UNUSED", "p/a.py line 4: exported",
        "p/a.py line 7: Orphan"]


def test_every_public_name_is_read_by_the_package():
    # a package path that only the tests reach belongs with the tests
    assert unread_names(package_sources(), public=True) == []


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
    sources = package_sources()
    del sources[init.relative_to(ROOT).as_posix()]
    assert unread_exports(exports, sources) == []


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
    """Calls in ``source`` that pass along one search's coordinates, axis 0
    of a coordinate-major (n, w) array: ``np.linalg.norm`` and any call
    with ``axis=0`` or ``axis=-2``. A call along the last axis runs over
    all the searches at once."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if ast.unparse(node.func).endswith("linalg.norm"):
            found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
        for kw in node.keywords:
            if kw.arg != "axis":
                continue
            try:
                axis = ast.literal_eval(kw.value)
            except ValueError:  # a name: not a fixed coordinate axis
                continue
            if axis in (0, -2):
                found.append(f"line {node.lineno}: axis={axis}")
    return found


def test_scan_flags_row_passes():
    source = ("import numpy as np\nfrom numpy import linalg\n"
              "a = np.linalg.norm(x, axis=1)\nb = linalg.norm(x)\n"
              "c = np.isfinite(x).all(axis=-1)\nd = x.sum(axis=0)\n"
              "e = np.take(x, i, axis=0)\nf = x.max(axis=k)\n"
              "g = x.take(i, axis=-1) + x.cumsum(axis=-2)\n")
    assert row_passes(source) == ["line 3: np.linalg.norm",
                                  "line 4: linalg.norm", "line 6: axis=0",
                                  "line 7: axis=0", "line 9: axis=-2"]


def test_reliability_makes_no_row_passes():
    source = (ROOT / "src" / "rbrdo" / "reliability.py").read_text(
        encoding="utf-8")
    assert row_passes(source) == []


def numpy_wrappers(source: str) -> list[str]:
    """Calls in ``source`` that pass through a Python-level numpy wrapper
    on every use: ``np.errstate``, ``np.flatnonzero``, ``np.take``,
    ``np.einsum`` and any ``.any``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if (name in ("np.errstate", "np.flatnonzero", "np.take",
                         "np.einsum") or name.endswith(".any")):
                found.append((node.lineno, f"line {node.lineno}: {name}"))
    return [call for _, call in sorted(found)]


def test_scan_flags_numpy_wrappers():
    source = ("import numpy as np\n@np.errstate(all='ignore')\n"
              "def f(m):\n    with np.errstate(divide='ignore'):\n"
              "        i = np.flatnonzero(m)\n"
              "    j = np.take(m, i) + m.take(i) + m.nonzero()[0]\n"
              "    k = np.einsum('ij,ij->i', m, m)\n"
              "    return m.any() + any(m) + np.count_nonzero(m)\n")
    assert numpy_wrappers(source) == [
        "line 2: np.errstate", "line 4: np.errstate",
        "line 5: np.flatnonzero", "line 6: np.take", "line 7: np.einsum",
        "line 8: m.any"]


def test_mpp_step_pays_no_numpy_wrappers():
    # the engine's fixed cost per iteration: one errstate around the whole
    # search; masks are tested with np.count_nonzero and indexed with
    # .nonzero()[0], and rows gathered with ndarray.take, which all go
    # straight to C; dot products keep _lane_dot's one summation order
    source = (ROOT / "src" / "rbrdo" / "reliability.py").read_text(
        encoding="utf-8")
    assert [call.split(": ")[1] for call in numpy_wrappers(source)] == [
        "np.errstate"]


def test_package_builds_no_seed_sequence():
    found = [f"{path.relative_to(ROOT).as_posix()} line {node.lineno}"
             for path in PACKAGE
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if getattr(node, "attr", getattr(node, "id", None))
             == "SeedSequence"]
    assert found == []


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
