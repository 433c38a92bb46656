"""Static checks on the package source, with the standard library's ``ast``:
every module-level import is used by its module, and every private
module-level function or constant is used by some module."""

import ast
from pathlib import Path

import pytest

import phonosim

MODULES = {
    path.name: ast.parse(path.read_text(), str(path))
    for path in sorted(Path(phonosim.__file__).parent.glob("*.py"))
}


def _loaded_names(tree) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _references(tree) -> set[str]:
    """Every name a module reads: bare names, attributes, and the names it
    imports from another module."""
    names = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _imported(tree) -> list[str]:
    """The names that the module's top-level imports bind."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _private_definitions(tree) -> list[str]:
    """Module-level functions, classes and constants named ``_x``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_source_modules_found():
    assert {"cli.py", "dsp.py", "train.py"} <= set(MODULES)


@pytest.mark.parametrize("module", list(MODULES))
def test_no_unused_import(module):
    tree = MODULES[module]
    loaded = _loaded_names(tree)
    assert [name for name in _imported(tree) if name not in loaded] == []


@pytest.mark.parametrize("module", list(MODULES))
def test_no_unreferenced_private_definition(module):
    referenced = set().union(*map(_references, MODULES.values()))
    unused = [n for n in _private_definitions(MODULES[module]) if n not in referenced]
    assert unused == []
