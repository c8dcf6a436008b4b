"""The package's public surface: every module defines ``__all__``, every
name in it exists, and ``dispersivelab/__init__.py`` re-exports only names
in the ``__all__`` of the module it imports them from."""

import ast
import importlib
from pathlib import Path

import dispersivelab

MODULES = ("spectral", "operators", "norms", "propagators", "laws", "corpus", "checks", "cli")


def test_star_imports_and_package_reexports_are_public():
    for mod in MODULES:
        assert hasattr(importlib.import_module(f"dispersivelab.{mod}"), "__all__"), mod
        exec(f"from dispersivelab.{mod} import *", {})  # raises on a stale __all__ entry
    tree = ast.parse(Path(dispersivelab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        public = importlib.import_module(f"dispersivelab.{node.module}").__all__
        stale = [a.name for a in node.names if a.name not in public]
        assert not stale, f"dispersivelab re-exports {stale} outside {node.module}.__all__"
