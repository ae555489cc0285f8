"""Every name a program file imports is used in that file.

No linter ships with the project, so this scan stands in for the unused-import
rule: it parses each .py file under src/ and scripts/ and compares the names
bound by import statements with the names the file reads.  Names listed in
``__all__`` (re-exports) and ``from __future__`` imports count as used.
"""
import ast
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


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


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
