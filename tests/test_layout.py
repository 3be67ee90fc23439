"""The import layout: each name has one import path, the module that defines
it, every imported name and every public definition has a reader, and the
pure-Python modules load without numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import partitio

PACKAGE = Path(partitio.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
#: The code whose reads keep a library name alive: the library itself, the
#: benchmark and the acceptance criteria, not a module's own tests.
READERS = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _defined(module: str) -> set[str]:
    """The names a module binds at top level itself: defs, classes and
    assignments, not imports."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_the_root_exports_only_the_version():
    # submodules become attributes of the package once imported
    assert [name for name, value in vars(partitio).items()
            if not name.startswith("__") and not isinstance(value, ModuleType)] == []
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_names_are_imported_from_their_home_module(path):
    defined = {module: _defined(module) for module in MODULES}
    wrong = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.module == "partitio":  # `from partitio import arcs`: modules only
            wrong += [f"partitio.{a.name}" for a in node.names if a.name not in MODULES]
        elif node.module.startswith("partitio."):
            home = node.module.split(".", 1)[1]
            wrong += [f"{node.module}.{a.name}" for a in node.names
                      if a.name not in defined[home]]
    assert wrong == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    # an import kept on purpose, e.g. as a site the benchmark wraps, says so
    # with `# noqa: F401` on one of its lines
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unread = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or isinstance(node, ast.ImportFrom) and node.module == "__future__"
                or any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        unread += [f"line {node.lineno}: {bound}" for alias in node.names
                   if (bound := alias.asname or alias.name.split(".")[0]) not in read]
    assert unread == []


def _reads(node: ast.AST) -> set[str]:
    """The names a statement reads: Name ids, attribute names, import aliases."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_every_public_definition_has_a_reader():
    # a top-level def or class that no other statement of the library, the
    # benchmark or the acceptance criteria reads is code that no output needs
    bodies = {path: ast.parse(path.read_text()).body for path in READERS}
    reads = [(node, _reads(node)) for body in bodies.values() for node in body]
    unread = [f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
              for node in bodies[path]
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and not any(node.name in names for other, names in reads if other is not node)]
    assert unread == []


def _fresh_python(code: str) -> str:
    environ = dict(os.environ)
    environ["PYTHONPATH"] = str(PACKAGE.parent) + os.pathsep + environ.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=environ, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def test_pure_modules_leave_numpy_unloaded():
    code = ("import sys, json\n"
            "import partitio, partitio.constants, partitio.report\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))\n")
    assert json.loads(_fresh_python(code)) == []


def test_every_module_imports_alone():
    # each module from a clean slate: no import order hides a cycle
    code = ("import importlib, sys\n"
            f"for name in {MODULES!r}:\n"
            "    for key in [k for k in sys.modules if k.split('.')[0] == 'partitio']:\n"
            "        del sys.modules[key]\n"
            "    importlib.import_module('partitio.' + name)\n")
    _fresh_python(code)  # a module that fails to import fails the run
