"""Checks on the package source itself, made with the standard library's ast."""

import ast
from pathlib import Path

import landscape_lab

SOURCES = sorted(Path(landscape_lab.__file__).parent.glob("*.py"))


def defined_names(tree):
    """Module-level functions, classes and assigned names of a module, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("__"):
                    yield name.id


def read_names(tree):
    """Names a module reads: a loaded name, an attribute or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def imported_names(tree):
    """Names a module binds by an import statement, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def loaded_names(tree):
    """Names a module loads as plain names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id


def test_every_module_level_name_is_read_in_the_package():
    # A constant or helper that nothing in the package reads any more is
    # left over from code that is gone.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = {name for tree in trees.values() for name in read_names(tree)}
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in defined_names(tree)
        if name not in read
    ]
    assert unread == []


def test_every_imported_name_is_read_in_its_module():
    # An import that its module no longer reads is left over from code that
    # moved or is gone. The package's __init__ imports to re-export.
    unread = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused = set(imported_names(tree)) - set(loaded_names(tree))
        unread += [f"{path.name}: {name}" for name in sorted(unused)]
    assert unread == []
