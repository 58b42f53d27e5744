"""Every exported name resolves.

Tools that walk a module's ``__all__`` call ``getattr`` on each entry (the
benchmark tracer wraps every function listed there), so a stale entry left
behind by a removed function would crash them.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_importing_the_package_loads_no_module_it_does_not_need():
    """Start-up pays for every module the import loads: ``json`` and
    ``decimal`` load only in the commands that use them, ``array`` only in
    the counts that build their tables in one, and the value
    classes are plain classes, so ``dataclasses`` and ``inspect`` stay out.
    ``-S`` keeps site's own imports (``typing``, on some hosts) out too."""
    unwanted = ("dataclasses", "inspect", "json", "decimal", "typing", "array")
    code = f"import sys, dquiver, dquiver.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(dquiver.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"
