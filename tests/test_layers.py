"""The import graph of the package is one-way: each module's relative
imports, at module level and inside functions, read statically with ast,
are exactly the layers below it in the table.  __init__ resolves its names
dynamically and is exempt.  No relative import names a private (_-prefixed)
name of another module, and every name a module-level import binds is read
in its module (the only unused-import check this repository runs)."""

import ast
from pathlib import Path

import branchzeta

LAYERS = {
    "errors": set(),
    "branch": {"errors"},
    "toric": {"branch", "errors"},
    "poles": {"branch", "errors", "toric"},
    "curves": {"branch", "errors"},
    "gammaratio": {"errors"},
    "quadrature": {"errors"},
    "checks": {"branch", "poles", "gammaratio", "quadrature"},
    "cli": {"errors", "branch", "poles", "curves", "gammaratio", "checks"},
}


def relative_imports(path: Path) -> set[str]:
    """The sibling modules a source file imports with `from . import m` or
    `from .m import name`, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


SRC = Path(branchzeta.__file__).parent


def test_each_module_imports_only_the_layers_below_it():
    modules = {p.stem: relative_imports(p) for p in SRC.glob("*.py") if p.stem != "__init__"}
    assert modules == LAYERS


def test_no_module_imports_a_private_name_of_another():
    # `from .m import _name` anywhere, function-local imports included
    found = [f"{p.stem}: from .{node.module} import {alias.name}"
             for p in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.ImportFrom) and node.level and node.module
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def unused_imports(path: Path) -> set[str]:
    """The names a source file's module-level imports bind and the file never
    reads; the `from __future__` import is exempt."""
    tree = ast.parse(path.read_text())
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_level_import_goes_unused():
    unused = {p.stem: names for p in sorted(SRC.glob("*.py")) if (names := unused_imports(p))}
    assert unused == {}
