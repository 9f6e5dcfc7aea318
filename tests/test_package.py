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
