"""Every name that a module of the package, the tests or the scripts
imports is read, and so is every local that a function of the package
assigns and every parameter it takes; the package imports no scipy, at
startup or later."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "osslab"
# the package's modules, then the tests and the scripts; no two share a name
SOURCES = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py"))]
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unused_imports(source: str) -> list[str]:
    """Imported names that the module never reads.

    ``from m import x as x`` marks an explicit re-export (the PEP 484 form)
    and is exempt.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.asname != alias.name:
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def _own_nodes(fn):
    """Nodes of ``fn``'s body, not descending into nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCS):
            stack.extend(ast.iter_child_nodes(node))


def _reads(fn) -> set[str]:
    """Names that ``fn`` or a function nested in it reads; an augmented
    assignment counts as a read."""
    read = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            read.add(node.target.id)
    return read


def unused_locals(source: str) -> list[str]:
    """Function locals that are assigned and never read.

    A read in a nested function counts, an augmented assignment counts as a
    read, and ``_`` and names declared global or nonlocal are exempt.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, _FUNCS):
            continue
        outer, stores = set(), {}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores.setdefault(node.id, node.lineno)
        read = _reads(fn)
        name = getattr(fn, "name", "<lambda>")
        found += [f"{var} in {name} (line {line})" for var, line in stores.items()
                  if var != "_" and var not in read and var not in outer]
    return sorted(found)


def unused_parameters(source: str) -> list[str]:
    """Parameters, ``self`` and ``*args``/``**kwargs`` included, that their
    function never reads (a read in a nested function counts)."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, _FUNCS):
            continue
        a, read = fn.args, _reads(fn)
        name = getattr(fn, "name", "<lambda>")
        found += [f"{p.arg} in {name} (line {fn.lineno})"
                  for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None and p.arg not in read]
    return sorted(found)


def test_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from json import dumps as dumps\nfrom json import loads as parse\n"
              "np.zeros(1)\n")
    assert unused_imports(source) == ["os (line 2)", "parse (line 5)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_an_unused_local():
    source = (
        "def f(xs):\n"
        "    n = len(xs)\n"          # never read
        "    total = 0\n"
        "    total += 1\n"           # the augmented assignment reads it
        "    for _ in xs:\n"         # exempt
        "        pass\n"
        "    hits = 0\n"
        "    def g():\n"
        "        nonlocal hits\n"    # a store to f's local, which f reads
        "        hits = 1\n"
        "        dead = 2\n"         # never read
        "    g()\n"
        "    scale = 2.0\n"
        "    return hits, lambda x: x * scale\n"  # read by a nested function
    )
    assert unused_locals(source) == ["dead in g (line 11)", "n in f (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def test_guard_finds_an_unused_parameter():
    source = (
        "class A:\n"
        "    def f(self, x, y=1, *args, z, **kwargs):\n"  # self, y and kwargs never read
        "        def g(w):\n"                   # w never read
        "            return x + z\n"            # a read in a nested function counts
        "        return g, args\n"
        "    def h(self, n, m):\n"
        "        n += 1\n"                      # the augmented assignment reads n
        "        return lambda k: m\n"         # k never read
    )
    assert unused_parameters(source) == [
        "k in <lambda> (line 8)", "kwargs in f (line 2)", "self in f (line 2)",
        "self in h (line 6)", "w in g (line 3)", "y in f (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def scipy_imports(source: str) -> list[str]:
    """Imports of scipy or a scipy submodule, at any nesting level."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{m} (line {node.lineno})" for m in modules
                  if m == "scipy" or m.startswith("scipy.")]
    return found


def test_guard_finds_a_scipy_import():
    source = (
        "import numpy as np, scipy.special\n"
        "from scipy import stats\n"
        "from . import scipyish\n"        # a relative import, not scipy
        "import scipyish\n"               # another package
        "def f():\n"
        "    if True:\n"
        "        from scipy.special import betaln\n"  # a lazy import counts
        "        return betaln\n"
    )
    assert scipy_imports(source) == ["scipy.special (line 1)", "scipy (line 2)",
                                     "scipy.special (line 7)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_imports(path):
    assert scipy_imports(path.read_text()) == []


def test_cli_import_leaves_out_scipy_stats():
    code = ("import sys, osslab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert out.stdout.strip() == "[]"


def test_training_leaves_out_numpy_ma(tmp_path):
    # numpy imports numpy.ma lazily, on first use; a step that triggers it
    # (np.unique does) pays for that import inside the timed loop
    code = ("import sys; from osslab import cli; "
            "cli.main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    argv = ["--out", str(tmp_path), "train", "--K", "20", "--K_p", "5", "--eval_every", "10",
            "--samples_per_class", "20", "--labeled_per_class", "4"]
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
