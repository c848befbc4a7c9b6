"""Static checks on src/branchlab: no dead imports, no dead private names.

Both checks read the source with ast, so they need nothing beyond the
standard library.  A module-level import must be used in its module (the
package's __init__ re-exports its imports, so it is exempt), and a private
module-level name (one leading underscore) must be referenced somewhere in
the package: by name in its own module, or as an attribute or a from-import
in another.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "branchlab"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES}


def _loaded_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _module_level_imports(tree: ast.Module) -> list[tuple[str, int]]:
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [((alias.asname or alias.name).split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return bound


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in defined if name.startswith("_") and not name.startswith("__")]


def _outside_references(module: str) -> set[str]:
    """Names that other modules of the package read as attributes or import by name."""
    names: set[str] = set()
    for other, tree in TREES.items():
        if other == module:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_no_unused_module_level_import(module):
    tree = TREES[module]
    used = _loaded_names(tree) | _exported(tree)
    unused = [f"{module}:{line} {name}" for name, line in _module_level_imports(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


@pytest.mark.parametrize("module", list(TREES))
def test_every_private_module_level_name_is_referenced(module):
    tree = TREES[module]
    referenced = _loaded_names(tree) | _outside_references(module)
    dead = [f"{module}:{line} {name}" for name, line in _private_definitions(tree) if name not in referenced]
    assert not dead, "private names nothing references: " + ", ".join(dead)


def test_the_checks_see_dead_names():
    tree = ast.parse("import os\nfrom .reporting import dumps_stable\n\n\ndef _write(data):\n    return data\n")
    assert [name for name, _ in _module_level_imports(tree) if name not in _loaded_names(tree)] == ["os", "dumps_stable"]
    assert [name for name, _ in _private_definitions(tree) if name not in _loaded_names(tree)] == ["_write"]
