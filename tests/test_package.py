"""The package namespace exports only what its users import from it."""

import ast
import inspect
import re
from pathlib import Path

import crncalc

ROOT = Path(__file__).resolve().parent.parent
USERS = sorted(ROOT.glob("scripts/*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _imported_from_crncalc(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "crncalc"
            for alias in node.names}


def test_every_export_has_a_user():
    used = set()
    for path in USERS:
        used |= _imported_from_crncalc(path.read_text())
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= _imported_from_crncalc(block)
    exported = {name for name, value in vars(crncalc).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported - used == set(), "exported but imported from crncalc by no user"
    assert used - exported == set()


def _public_definitions(tree: ast.Module):
    """(name, first line, last line) of each public module-level name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of each name the code loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_every_public_name_has_a_user():
    # a public name must be referenced somewhere other than its own definition
    files = [p for d in ("src", "tests", "scripts", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    refs = {}
    for path in files:
        for name, line in _references(ast.parse(path.read_text())):
            refs.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted((ROOT / "src" / "crncalc").glob("*.py")):
        for name, first, last in _public_definitions(ast.parse(path.read_text())):
            if all(p == path and first <= line <= last for p, line in refs.get(name, [])):
                unused.append(f"{path.name}:{first} {name}")
    assert unused == [], "public names that nothing references"
