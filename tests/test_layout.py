"""Static checks of two package design rules, read from the source by `ast`:
the test-only oracles in `_reference` stay out of the package, and
production draws go through `UniformRealSource.at_least`, the package's
one way to draw randomness, never through `reals`."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twofaced"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "_reference.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imports_reference(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "_reference" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[-1] == "_reference" or any(a.name == "_reference" for a in node.names)
    return False


def test_layout_sees_the_package():
    assert {p.name for p in MODULES} >= {"generator.py", "sources.py", "transform.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_reference(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if _imports_reference(n)]
    assert not lines, f"{path.name} imports _reference at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_draws_through_reals(path):
    lines = [n.lineno for n in ast.walk(_tree(path))
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and n.func.attr == "reals"]
    assert not lines, f"{path.name} calls .reals( at lines {lines}"
