"""Every exported name resolves: each module's ``__all__`` and the names the
package ``__init__`` imports, so a deleted function left behind in either
fails here rather than at a user's import."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(hwave.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"hwave.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(hwave.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"hwave.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(hwave, alias.asname or alias.name), alias.name
