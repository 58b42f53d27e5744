"""Every exported name resolves.

Tools that walk a module's ``__all__`` call ``getattr`` on each entry (the
benchmark tracer wraps every function listed there), so a stale entry left
behind by a removed function would crash them.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dquiver

MODULES = sorted(info.name for info in pkgutil.iter_modules(dquiver.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"dquiver.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"dquiver.{name}.__all__ lists missing {attr!r}"


def test_the_package_reexports_only_exported_names():
    tree = ast.parse(Path(dquiver.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"dquiver.{node.module}")
        for alias in node.names:
            assert hasattr(dquiver, alias.asname or alias.name), alias.name
            if hasattr(module, "__all__"):
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"
