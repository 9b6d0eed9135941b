"""Every name a package module imports is used in that module."""

import ast
import pathlib

import pytest

import mbqcflow

MODULES = sorted(p for p in pathlib.Path(mbqcflow.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []
