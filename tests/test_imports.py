"""Every name a program file imports is used, and every definition is reached.

No linter ships with the project, so this scan stands in for the unused-import
rule: it parses each .py file under src/ and scripts/ and compares the names
bound by import statements with the names the file reads.  Names listed in
``__all__`` (re-exports) and ``from __future__`` imports count as used.

The same parse guards against dead code: every module-level function and class
in src/hardyheat is read by some program file or exported in
``hardyheat.__all__``.  Code that only tests reach is not kept.

At run time the program needs numpy and ``scipy.special`` only: no program
file imports another scipy module, at module level or inside a function, and
a fresh ``import hardyheat`` leaves scipy.integrate and scipy.optimize unloaded
(tests may still import them as references).
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "scripts") for p in (ROOT / d).rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | _exported(tree)


def test_scan_finds_program_files():
    assert any(p.name == "heatop.py" for p in FILES)
    assert any(p.parent.name == "scripts" for p in FILES)


def test_scan_flags_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os, sys as system\n"
                     "from a.b import c, d\n__all__ = ['c']\nprint(os.sep)\n"
                     "def f(x: d) -> None:\n    return 'system'\n")
    assert set(_imported(tree)) - _used(tree) == {"system"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = _imported(tree)
    unused = sorted(set(imported) - _used(tree), key=imported.get)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {imported[name]})" for name in unused
    )


def _scipy_imports(tree: ast.Module) -> dict[str, int]:
    """Dotted scipy module -> line of every import of it, however nested."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = ([f"scipy.{alias.name}" for alias in node.names]
                     if node.module == "scipy" else [node.module])
        else:
            continue
        for name in names:
            if name == "scipy" or name.startswith("scipy."):
                modules.setdefault(name, node.lineno)
    return modules


def test_scan_flags_scipy_imports():
    tree = ast.parse("import scipy.special\nfrom scipy import special, linalg\n"
                     "from .scipy import x\ndef f():\n    from scipy.integrate import quad\n"
                     "    import scipy\n")
    assert _scipy_imports(tree) == {"scipy.special": 1, "scipy.linalg": 2,
                                    "scipy.integrate": 5, "scipy": 6}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_scipy_special_is_imported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    other = {m: line for m, line in _scipy_imports(tree).items() if m != "scipy.special"}
    assert not other, f"{path.name}: imports " + ", ".join(
        f"{m} (line {line})" for m, line in other.items()
    )


def test_import_leaves_heavy_scipy_unloaded():
    code = ("import sys, hardyheat, hardyheat.cli\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_every_definition_is_read_or_exported():
    # a name counts as read wherever it is loaded or used as an attribute, so
    # a function that shares its name with some method is let through
    defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    read, exported = set(), set()
    for path in FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        if path == ROOT / "src" / "hardyheat" / "__init__.py":
            exported = _exported(tree)
    unreached = []
    for path in FILES:
        if path.parent != ROOT / "src" / "hardyheat":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, defines) and node.name not in read | exported:
                unreached.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreached, "defined but never read or exported: " + ", ".join(unreached)
