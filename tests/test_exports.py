"""Every exported name resolves: each module's ``__all__`` and the names the
package ``__init__`` imports, so a deleted function left behind in either
fails here rather than at a user's import.  And every name in an ``__all__``
has a caller outside the tests: a function only tests read lives with them."""
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


ROOT = Path(hwave.__file__).resolve().parents[2]
# every file that may call into hwave: the package itself, the scripts and
# the benchmark, but no test and not the package's re-exporting __init__
CALLERS = sorted(
    path for path in [*(ROOT / "src" / "hwave").glob("*.py"),
                      *(ROOT / "scripts").glob("*.py"),
                      *(ROOT / "perfbench").glob("*.py")]
    if path.name not in ("__init__.py", "test_bench.py"))


def _loaded_names(tree: ast.AST) -> set:
    """Names a module loads (``ast.Name`` or ``ast.Attribute``), except those
    loaded inside the def or class of the same name."""
    found = set()
    stack = [(tree, frozenset())]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return found


def test_every_export_has_a_caller_outside_the_tests():
    assert any(path.parent.name == "scripts" for path in CALLERS)
    assert any(path.parent.name == "perfbench" for path in CALLERS)
    loaded = set().union(*(_loaded_names(ast.parse(path.read_text()))
                           for path in CALLERS))
    uncalled = [f"{name}.{export}" for name in MODULES
                for export in getattr(importlib.import_module(f"hwave.{name}"),
                                      "__all__", ())
                if export not in loaded]
    assert uncalled == []
