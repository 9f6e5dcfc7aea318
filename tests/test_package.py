"""The package namespace exports only what its users import from it."""

import ast
import re
from pathlib import Path

import crncalc

ROOT = Path(__file__).resolve().parent.parent
# the code that uses the package; a test is not a user
USERS = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
SUBMODULES = {path.stem for path in (ROOT / "src" / "crncalc").glob("*.py")}


def _imported_from_crncalc(source: str) -> set[str]:
    """The names a source imports from the package namespace, leaving out
    submodules (``from crncalc import cli``)."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "crncalc"
            for alias in node.names} - SUBMODULES


def _readme_python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_every_export_has_a_user():
    used = set()
    for path in USERS:
        used |= _imported_from_crncalc(path.read_text())
    for block in _readme_python_blocks():
        used |= _imported_from_crncalc(block)
    # the exports are imported on first use, so they are not in vars() yet
    exported = set(crncalc.__all__)
    assert exported - used == set(), "exported but imported from crncalc by no user"
    assert used - exported == set()


def test_readme_library_example_runs(capsys):
    # the example is code: it must keep up with the API it shows
    blocks = _readme_python_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def _names(node: ast.stmt):
    """(name, first line, last line) of each name a statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        return
    for name in names:
        if not name.startswith("__"):
            yield name, node.lineno, node.end_lineno


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level name, and as
    class.member of each member of a private class and of each method or
    property of a public class.  A public class's other members are left
    out: they are dataclass fields, which `verify` reads through asdict."""
    for node in tree.body:
        yield from _names(node)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if node.name.startswith("_") or isinstance(member, ast.FunctionDef):
                    yield from ((f"{node.name}.{name}", first, last)
                                for name, first, last in _names(member))


def _references(tree: ast.Module):
    """(name, line) of each name the code loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def _unused(dirs, private: bool) -> list[str]:
    """The public or the private names of src/crncalc/*.py that no code
    under dirs references anywhere but in their own definition; a class
    member is private when it or its class is."""
    refs = {}
    for path in (p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))):
        for name, line in _references(ast.parse(path.read_text())):
            refs.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted((ROOT / "src" / "crncalc").glob("*.py")):
        for name, first, last in _definitions(ast.parse(path.read_text())):
            uses = refs.get(name.rpartition(".")[2], [])
            if (any(part.startswith("_") for part in name.split(".")) == private
                    and all(p == path and first <= line <= last for p, line in uses)):
                unused.append(f"{path.name}:{first} {name}")
    return unused


def test_every_public_name_has_a_user():
    # a public name must be referenced somewhere other than its own
    # definition, by code that runs it: a name only tests use is not kept
    assert _unused(("src", "scripts", "perfbench"), private=False) == [], \
        "public names that nothing but tests references"


def test_every_private_name_has_a_user_in_src():
    # so must a private name, or a private class's member, within src
    assert _unused(("src",), private=True) == [], "private names that src does not use"


def _defaulted(tree: ast.Module):
    """(function name, parameter, position or None) of each parameter with a
    default of each function and method in tree; a method's position does
    not count self, and __init__ is named after its class."""
    def walk(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                if cls and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in child.decorator_list):
                    positional = positional[1:]
                name = cls if child.name == "__init__" else child.name
                for i, arg in enumerate(positional):
                    if i >= len(positional) - len(a.defaults):
                        yield name, arg.arg, i
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield name, arg.arg, None
                yield from walk(child)
    yield from walk(tree)


def _passed(tree: ast.Module):
    """(called name, number of positional arguments or inf after a *args,
    keyword names or None after a **kwargs) of each call in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield (name, float("inf") if starred else len(node.args),
                   {k.arg for k in node.keywords})


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a knob nothing turns: the
    # parameter should go, and its value become the code.  Only code that
    # runs counts, as for the public names: a knob only tests turn goes too
    calls = {}
    for path in (p for d in ("src", "scripts", "perfbench")
                 for p in sorted((ROOT / d).rglob("*.py"))):
        for name, n_pos, keywords in _passed(ast.parse(path.read_text())):
            calls.setdefault(name, []).append((n_pos, keywords))
    unused = []
    for path in sorted((ROOT / "src" / "crncalc").glob("*.py")):
        for name, param, i in _defaulted(ast.parse(path.read_text())):
            if not any((i is not None and n_pos > i) or param in kw or None in kw
                       for n_pos, kw in calls.get(name, [])):
                unused.append(f"{path.name} {name}({param}=...)")
    assert unused == [], "defaulted parameters that no call passes"
