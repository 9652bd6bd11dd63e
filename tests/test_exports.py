"""Every exported name exists, so no deletion leaves a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fathorse

MODULES = sorted(info.name for info in pkgutil.iter_modules(fathorse.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"fathorse.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_exist():
    tree = ast.parse(Path(fathorse.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = [
        (node.module, alias.name)
        for node in imports
        for alias in node.names
        if not hasattr(importlib.import_module(f"fathorse.{node.module}"), alias.name)
        or not hasattr(fathorse, alias.asname or alias.name)
    ]
    assert not missing
