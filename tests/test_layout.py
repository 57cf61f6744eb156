"""Static checks of six design rules, read from the source by `ast`:
the test-only oracles in `tests/reference.py` stay out of the package and
of the scripts, which use its public, uncapped API; no package module or
script draws through `reals`, as `UniformRealSource.at_least` is the
package's one way to draw randomness; every name a package module or
script imports is used in it; no package module but `cli.py` names
`os.environ`, so a library import leaves the environment alone;
randomness enters only through `sources`: no other package module, no
script and not the reference names `os.urandom` or `numpy.random`, or
imports `random` or `secrets`; and the package holds only what runs:
every public name of a package module has a caller outside its own
definition, in the package, in `bench` or in `scripts`."""
import ast
import collections
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twofaced"
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
REFERENCE = ROOT / "tests" / "reference.py"
# transform.py imports these without using them: bench/tracer.py wraps
# context_to_int and int_to_context by that module.
UNUSED_IMPORTS_ALLOWED = {"transform.py": {"context_to_int", "int_to_context"}}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imports_reference(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "reference" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[-1] == "reference" or any(a.name == "reference" for a in node.names)
    return False


def test_layout_sees_the_package():
    assert {p.name for p in MODULES} >= {"generator.py", "sources.py", "transform.py"}
    assert {p.name for p in SCRIPTS} >= {"expansion_demo.py", "signature_demo.py"}
    assert {p.name for p in BENCH} >= {"pins.py", "tracer.py"}
    assert REFERENCE.is_file()


def _path_id(path) -> str:
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_path_id)
def test_no_module_imports_reference(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if _imports_reference(n)]
    assert not lines, f"{path.name} imports reference at lines {lines}"


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


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"] + [REFERENCE],
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


@pytest.mark.parametrize("path", [p for p in MODULES + SCRIPTS if p.name != "sources.py"]
                         + [REFERENCE], ids=_path_id)
def test_randomness_enters_only_through_sources(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if _names_randomness(n)]
    assert not lines, f"{path.name} reaches randomness outside sources at lines {lines}"


def _definitions(tree):
    """(name, node) of each top-level function, class and constant, and of
    each method and property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f.name, f) for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def _references(node) -> collections.Counter:
    """How often each name is read under `node`: as a Name or Attribute that
    is not assigned to, or as a part of an imported name."""
    names = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names.update(n.name.split("."))
    return names


@functools.lru_cache(maxsize=None)
def _callers() -> collections.Counter:
    """Every name read in the package, the benchmark and the scripts."""
    return sum((_references(_tree(p)) for p in MODULES + BENCH + SCRIPTS),
               collections.Counter())


@pytest.mark.parametrize("path", MODULES, ids=_path_id)
def test_every_public_name_has_a_caller(path):
    # Names match as names, as a scan by `ast` sees them: a method is
    # called if any attribute of that name is read.
    unread = [name for name, node in _definitions(_tree(path))
              if not name.startswith("_") and _callers()[name] <= _references(node)[name]]
    assert not unread, f"{path.name} defines names that only their own code reads: {unread}"
