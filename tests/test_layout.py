"""Static checks of five design rules, read from the source by `ast`:
the test-only oracles in `_reference` stay out of the package and of the
scripts, which use its public, uncapped API; no package module or script
draws through `reals`, as `UniformRealSource.at_least` is the package's
one way to draw randomness; every name a package module or script
imports is used in it; no package module but `cli.py` names
`os.environ`, so a library import leaves the environment alone; and
randomness enters only through `sources`: no other package module and no
script names `os.urandom` or `numpy.random`, or imports `random` or
`secrets`."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twofaced"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "_reference.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# transform.py imports these without using them: bench/tracer.py wraps
# context_to_int and int_to_context by that module.
UNUSED_IMPORTS_ALLOWED = {"transform.py": {"context_to_int", "int_to_context"}}


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
    assert {p.name for p in SCRIPTS} >= {"entropy_staircase.py", "signature_demo.py"}


def _path_id(path) -> str:
    return path.name if path.parent == PACKAGE else f"scripts/{path.name}"


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_path_id)
def test_no_module_imports_reference(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if _imports_reference(n)]
    assert not lines, f"{path.name} imports _reference at lines {lines}"


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_path_id)
def test_no_module_draws_through_reals(path):
    lines = [n.lineno for n in ast.walk(_tree(path))
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and n.func.attr == "reals"]
    assert not lines, f"{path.name} calls .reals( at lines {lines}"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set:
    """Every name the code reads, names inside string annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                names |= _used_names(ast.parse(n.value, mode="eval"))
    return names


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_path_id)
def test_every_import_is_used(path):
    tree = _tree(path)
    allowed = UNUSED_IMPORTS_ALLOWED.get(path.name, set()) | _used_names(tree)
    unused = [(line, name) for line, name in _imported_names(tree) if name not in allowed]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _names_environ(node) -> bool:
    if isinstance(node, ast.Attribute):
        return (node.attr == "environ" and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    return (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name == "environ" for a in node.names))


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py"),
                         ids=_path_id)
def test_only_the_cli_names_os_environ(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if _names_environ(n)]
    assert not lines, f"{path.name} names os.environ at lines {lines}"


# Dotted names that reach randomness outside `sources`, and everything under them.
RANDOMNESS = ("os.urandom", "np.random", "numpy.random", "random", "secrets")


def _names_randomness(node) -> bool:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        names = [f"{node.value.id}.{node.attr}"]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    else:
        return False
    return any(n == r or n.startswith(r + ".") for n in names for r in RANDOMNESS)


@pytest.mark.parametrize("snippet", [
    "import os\nos.urandom(4)", "from os import urandom", "import numpy as np\nnp.random.rand()",
    "import numpy.random", "from numpy import random", "from numpy.random import default_rng",
    "import random", "from secrets import token_bytes"])
def test_randomness_rule_sees_each_form(snippet):
    assert any(_names_randomness(n) for n in ast.walk(ast.parse(snippet)))


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) + SCRIPTS
                                  if p.name != "sources.py"], ids=_path_id)
def test_randomness_enters_only_through_sources(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if _names_randomness(n)]
    assert not lines, f"{path.name} reaches randomness outside sources at lines {lines}"
