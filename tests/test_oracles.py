"""The oracles in ``tests/oracles.py`` stay test code that some test uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import specgrad

TESTS = Path(__file__).parent


def _imports_from(tree: ast.Module, prefix: str) -> set:
    """Names that ``tree`` imports by ``from <module> import``, for modules under ``prefix``."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(prefix)
        for alias in node.names
    }


def test_every_oracle_is_used_by_a_test_and_is_not_package_api():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    oracles = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set().union(
        *(_imports_from(ast.parse(p.read_text()), "oracles") for p in TESTS.glob("test_*.py"))
    )
    assert oracles - used == set(), "oracles that no test imports"

    modules = [specgrad] + [
        importlib.import_module(f"specgrad.{info.name}")
        for info in pkgutil.iter_modules(specgrad.__path__)
    ]
    clashes = {f"{m.__name__}.{name}" for m in modules for name in oracles if hasattr(m, name)}
    assert clashes == set(), "oracles that the package also defines"

    private = {name for name in _imports_from(tree, "specgrad") if name.startswith("_")}
    assert private == set(), "private package names the oracles import"
