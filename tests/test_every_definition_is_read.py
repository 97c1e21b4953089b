"""Every function, method and class the package defines has a reader.

The scan parses `src/mpgen` and the pipeline benchmark (`pipebench/`, its
own tests excepted) and collects each function, method and class that
`src/mpgen` defines, dunders excepted. A definition is read when its name
appears anywhere in those files as a name, an attribute, an import alias, or
a dotted part of a string constant that is not a docstring; strings count
because the benchmark's tracer names its targets as strings. The tests do
not count as readers: a definition only tests read is code the program does
not need.

The scan matches by name only, so it cannot see a field, or a definition,
whose name another module uses for something else.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpgen"
PIPEBENCH = ROOT / "pipebench"


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring constants of the module, classes and functions."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _read_names(tree: ast.Module) -> set[str]:
    docstrings = _docstrings(tree)
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names.update(node.value.split("."))
    return names


def _definitions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_definition_in_the_package_is_read():
    package = {p: _parse(p) for p in sorted(PACKAGE.rglob("*.py"))}
    bench = {
        p: _parse(p)
        for p in sorted(PIPEBENCH.rglob("*.py"))
        if PIPEBENCH / "tests" not in p.parents
    }
    read: set[str] = set()
    for tree in [*package.values(), *bench.values()]:
        read |= _read_names(tree)
    unread = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for path, tree in package.items()
        for name in _definitions(tree) - read
    )
    assert not unread, "defined in src/mpgen but never read:\n" + "\n".join(unread)
