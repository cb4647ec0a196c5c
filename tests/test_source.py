"""Checks on the package source itself, made with the standard library's ast."""

import ast
import importlib
import re
import types
from pathlib import Path

import landscape_lab

SOURCES = sorted(Path(landscape_lab.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent


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


def exported_names(tree):
    """The names listed in a module's __all__, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from ast.literal_eval(node.value)


def outside_text():
    """README.md, bench/README.md and the benchmark's scripts, as one text."""
    docs = [REPO / "README.md", REPO / "bench" / "README.md", *(REPO / "bench").glob("*.py")]
    return "\n".join(path.read_text(encoding="utf-8") for path in docs)


def readme_code():
    """The code spans and fenced blocks of README.md and bench/README.md, as one text."""
    code = []
    for path in (REPO / "README.md", REPO / "bench" / "README.md"):
        text = path.read_text(encoding="utf-8")
        code += re.findall(r"^```.*?^```", text, flags=re.S | re.M)
        text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
        code += re.findall(r"`[^`]+`", text)
    return "\n".join(code)


def module_bindings(tree, package):
    """The modules a source file binds to names by its imports. A module
    that cannot be loaded here stands as an empty one."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name if alias.asname else alias.name.split(".")[0]
                try:
                    modules[alias.asname or name] = importlib.import_module(name)
                except ImportError:
                    modules[alias.asname or name] = types.ModuleType(name)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = importlib.import_module("." * node.level + (node.module or ""), package)
            for alias in node.names:
                value = getattr(source, alias.name, None)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    return modules


def module_named(node, modules):
    """The module an expression names through the bindings, or None."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute):
        value = getattr(module_named(node.value, modules), node.attr, None)
        if isinstance(value, types.ModuleType):
            return value
    return None


def attributes_read(path, package=None):
    """The attribute names a source file reads, except those it reads on a
    module (np.linalg.norm reads no method called norm)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = module_bindings(tree, package)
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and module_named(node.value, modules) is None
    }


def public_members(tree):
    """(class, name) of every public method and property of a module's classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name


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


def test_every_public_method_is_used_outside_the_tests():
    # A method or property that neither the package nor the benchmark reads
    # as an attribute of an object, and that no code in the READMEs names, is
    # used only by tests.
    read = set().union(
        *(attributes_read(path, "landscape_lab") for path in SOURCES),
        *(attributes_read(path) for path in (REPO / "bench").glob("*.py")),
    )
    named = readme_code()
    unused = [
        f"{owner}.{name}"
        for path in SOURCES
        for owner, name in public_members(ast.parse(path.read_text(encoding="utf-8")))
        if name not in read and not re.search(rf"\b{name}\b", named)
    ]
    assert unused == []


def test_the_package_namespace_is_the_modules_exports():
    # The package re-exports every name its modules list in __all__, and
    # nothing else; the submodules aside.
    modules = [landscape_lab.qdyn, landscape_lab.landscape, landscape_lab.traps,
               landscape_lab.counterexamples]
    public = {
        name for name, value in vars(landscape_lab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*(module.__all__ for module in modules))


def test_every_exported_name_is_used_outside_the_tests():
    # A name in a module's __all__ that no module of the package reads (the
    # re-exporting __init__ aside), and that neither the README nor the
    # benchmark names, is a public function or class only tests call.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = {
        name
        for module, tree in trees.items()
        if module != "__init__.py"
        for name in read_names(tree)
    }
    named = outside_text()
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in exported_names(tree)
        if name not in read and not re.search(rf"\b{name}\b", named)
    ]
    assert unused == []


def test_the_readme_python_blocks_run():
    # The README's python blocks build on each other, so they run in order
    # in one namespace, as a reader pasting them into one session would.
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
