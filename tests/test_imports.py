"""Every name a program file imports is used, and every definition is reached.

No linter ships with the project, so this scan stands in for the unused-import
rule: it parses each .py file under src/ and scripts/ and compares the names
bound by import statements with the names the file reads.  Names listed in
``__all__`` (re-exports) and ``from __future__`` imports count as used.

The same parse guards against dead code.  Every module-level function and
class in src/hardyheat, and every method of those classes other than the
dunders, must be read by a program file other than ``hardyheat/__init__.py``
or be imported by the library-use block of README.md.  A name listed in
``hardyheat.__all__`` does not count on its own, and code that only tests
reach is not kept.  That README block is the public API: it runs as written,
and ``hardyheat.__all__`` is exactly the set of names it imports from
``hardyheat``.

At run time the program needs numpy and ``scipy.special`` only: no program
file imports another scipy module, at module level or inside a function, and
a fresh ``import hardyheat`` leaves scipy.integrate and scipy.optimize unloaded
(tests may still import them as references).
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hardyheat

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "scripts") for p in (ROOT / d).rglob("*.py"))
PACKAGE = ROOT / "src" / "hardyheat"


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


def _library_block() -> str:
    """The fenced python block after "Library use" in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"Library use.*?```python\n(.*?)```", text, re.S)
    assert match, "README.md has no python block after 'Library use'"
    return match.group(1)


def _public_names() -> list[str]:
    """Names the README library block imports from the package itself."""
    return [alias.name for node in ast.walk(ast.parse(_library_block()))
            if isinstance(node, ast.ImportFrom) and node.module == "hardyheat"
            for alias in node.names]


def test_readme_library_block_runs_and_is_the_public_api():
    block = _library_block()
    tree = ast.parse(block)
    assert not set(_imported(tree)) - _used(tree), "the block imports a name it never uses"
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert abs(namespace["gap"]) < 1e-13  # the adjointness it prints
    assert sorted(hardyheat.__all__) == sorted(_public_names())


def _reads(tree: ast.Module) -> set[str]:
    """Every name loaded and every attribute used anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _definitions(tree: ast.Module):
    """(line, label, name) of each module-level function and class and of each
    non-dunder method of those classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.lineno, node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.lineno, f"{node.name}.{item.name}", item.name


def _unreached(modules: dict[str, ast.Module], readers, public) -> list[str]:
    read = set(public).union(*map(_reads, readers))
    return [f"{fname}:{line} {label}" for fname, tree in modules.items()
            for line, label, name in _definitions(tree) if name not in read]


def test_scan_flags_unreached_definitions():
    module = ast.parse("__all__ = ['f', 'g']\ndef f(): pass\ndef g(): pass\n"
                       "def h(): pass\nclass C:\n    def used(self): pass\n"
                       "    def unused(self): pass\n    def __len__(self): return 0\n")
    reader = ast.parse("from m import C, h\nh(C().used)\n")
    assert _unreached({"m.py": module}, [reader], ["g"]) == ["m.py:2 f", "m.py:7 C.unused"]


def test_every_definition_is_read_or_exported():
    # a name counts as read wherever it is loaded or used as an attribute, so
    # a definition that shares its name with something read elsewhere is let
    # through; being listed in hardyheat.__all__ is not enough
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in FILES}
    modules = {p.name: t for p, t in trees.items() if p.parent == PACKAGE}
    readers = [t for p, t in trees.items() if p != PACKAGE / "__init__.py"]
    unreached = _unreached(modules, readers, _public_names())
    assert not unreached, ("read by no program file and not imported by README's "
                           "library block: " + ", ".join(unreached))
