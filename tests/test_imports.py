"""Every name a module of the package imports, and every private name it
defines at module level, is used in that module, and no module imports
another module's private name.

A stand-in for a linter's unused-import rule (F401) and dead-code check,
which the package does not depend on.  An import kept on purpose carries
``# noqa: F401``.  A last check keeps records `NamedTuple`s wherever a
tuple can serve.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nego"


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                names[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return names


def _annotations(node: ast.AST) -> list[ast.expr | None]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation]
    return []


def _used(tree: ast.AST) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        for annotation in _annotations(node):
            if annotation is None:
                continue
            for inner in ast.walk(annotation):
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    used |= _used(ast.parse(inner.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree)
    unused = sorted(
        f"{path.name}:{line}: {name}"
        for name, line in _imported(tree, source.splitlines()).items()
        if name not in used
    )
    assert unused == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Names such as `_X = ...`, `def _x` and `class _X` bound at module level."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [name.id for target in bound for name in ast.walk(target) if isinstance(name, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    dead = sorted(
        f"{path.name}:{line}: {name}" for name, line in _private_definitions(tree).items() if name not in used
    )
    assert dead == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    # a module's `_`-prefixed names are its own: no other module of the
    # package imports them
    crossing = sorted(
        f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "nego")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert crossing == []


def _decorator_names(node: ast.ClassDef | ast.FunctionDef) -> set[str]:
    """`dataclass` for both `@dataclass` and `@dataclass(frozen=True)`."""
    called = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return {d.id for d in called if isinstance(d, ast.Name)}


def _needs_a_dataclass(node: ast.ClassDef) -> bool:
    """A record is a dataclass only where a NamedTuple cannot serve: it
    caches a derived value (`cached_property` needs an instance dict), or
    equality ignores one of its fields."""
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and "cached_property" in _decorator_names(item):
            return True
        value = item.value if isinstance(item, ast.AnnAssign) else None
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field":
            if any(k.arg == "compare" and isinstance(k.value, ast.Constant) and k.value.value is False
                   for k in value.keywords):
                return True
    return False


def test_dataclass_only_where_a_named_tuple_cannot_serve():
    # a NamedTuple is cheaper to create, build and hash than a frozen dataclass
    misplaced = sorted(
        f"{path.name}:{node.lineno}: {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and "dataclass" in _decorator_names(node) and not _needs_a_dataclass(node)
    )
    assert misplaced == []
