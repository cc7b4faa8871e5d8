"""Every name a library module imports is used in that module, the library
loads no rational arithmetic, only the leaf table knows the leaf kinds,
every top-level definition of the library has a reader outside the tests,
every defaulted parameter of the library has a caller that sets it, and
every cache the library keeps has a bound."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wreathlin
from wreathlin.structure import LEAF_KINDS

MODULES = sorted(Path(wreathlin.__file__).parent.glob("*.py"))
ROOT = Path(wreathlin.__file__).parent.parent.parent
# the readers outside the library: the demos and the benchmark, but not the benchmark's own tests
USERS = sorted(ROOT.glob("demos/*.py")) + sorted(
    p for p in ROOT.glob("perfbench/*.py") if p.name != "test_perfbench.py")
LEAF_CLASS_NAMES = {cls.__name__ for cls in LEAF_KINDS}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (at any depth) that the module never reads.

    A name listed in ``__all__`` counts as read; ``__future__`` imports are
    compiler directives and bind nothing.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detection():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
        "__all__ = ['b']\n"
        "def f():\n    from e import g\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "d", "g"]


def _loaded_by_cli_import(names):
    """Those of ``names`` that a fresh interpreter has loaded after ``import wreathlin.cli``."""
    src = str(Path(wreathlin.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, wreathlin.cli; print(sorted({set(names)!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_import_leaves_rational_arithmetic_out():
    """The commutant oracle solves in integers, so loading the command line
    (and every library module it imports) loads no ``fractions``."""
    assert _loaded_by_cli_import(["fractions"]) == "[]\n"


def test_cli_import_leaves_the_demo_modules_out():
    """Only ``demo`` needs the point-cloud network, so loading the command
    line, as every ``verify`` and ``pattern`` process does, loads neither
    ``pointcloud`` nor ``train``."""
    assert _loaded_by_cli_import(["wreathlin.pointcloud", "wreathlin.train"]) == "[]\n"


def test_console_script_runs_under_the_address_space_limit():
    """The installed ``wreathlin`` command is ``cli.run``, which caps the
    process's address space before ``cli.main`` runs."""
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"wreathlin": "wreathlin.cli:run"}


def leaf_isinstance_lines(source: str) -> list[int]:
    """Lines of the ``isinstance`` calls that name a leaf class, alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(c, "id", getattr(c, "attr", None)) in LEAF_CLASS_NAMES for c in classes):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", ["structure.py", "basis.py"])
def test_leaf_rules_live_in_the_table(name):
    """A leaf kind's rules are its ``LEAF_KINDS`` record, so the structure
    engine reads the record and never asks which leaf it holds."""
    assert leaf_isinstance_lines((Path(wreathlin.__file__).parent / name).read_text()) == []


def test_basis_imports_no_leaf_class():
    tree = ast.parse((Path(wreathlin.__file__).parent / "basis.py").read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert imported & LEAF_CLASS_NAMES == set()


def test_leaf_isinstance_detection():
    source = (
        "isinstance(x, Set)\nisinstance(x, (Prod, Cycle))\nisinstance(x, structure.Trivial)\n"
        "isinstance(x, Leaf)\nisinstance(x, (Prod, Wreath))\nSet(3)\n"
    )
    assert leaf_isinstance_lines(source) == [1, 2, 3]


def _loads(node: ast.AST) -> set[str]:
    """Names and attribute names that ``node`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _identifiers(source: str) -> set[str]:
    """Every identifier of a module, and every word of its strings."""
    words = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            words.add(n.id)
        elif isinstance(n, ast.Attribute):
            words.add(n.attr)
        elif isinstance(n, ast.alias):
            words.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            words.update(re.findall(r"[A-Za-z_]\w*", n.value))
    return words


def unread_definitions(library: list[str], users: list[str]) -> list[str]:
    """Top-level functions and classes of the ``library`` sources that no
    reader reaches: no library statement but their own definition reads
    them, and no ``users`` source names them, as an identifier or in a
    string.  Imports and ``__all__`` read nothing, so an export alone does
    not count."""
    defined, read = [], set()
    for source in library:
        for stmt in ast.parse(source).body:
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
            defined += own
            read |= _loads(stmt) - own
    for source in users:
        read |= _identifiers(source)
    return [name for name in defined if name not in read]


def test_every_definition_has_a_reader_outside_the_tests():
    """Only production paths stay in the library: a function or class that
    only tests call belongs in ``tests/``."""
    unread = unread_definitions([p.read_text() for p in MODULES], [p.read_text() for p in USERS])
    assert unread == []


def test_unread_definition_detection():
    library = [
        "def f():\n    return g()\ndef g():\n    return 1\ndef h(n):\n    return h(n - 1)\n"
        "class K:\n    pass\nclass L:\n    pass\ndef m():\n    pass\n",
        "from .a import f, h, K\n__all__ = ['h', 'L']\nx = K\n",
    ]
    users = ["import a\nprint('calls f')\n", "from b import m\n"]
    assert unread_definitions(library, users) == ["h", "L"]


def unset_options(library: list[str], callers: list[str]) -> list[str]:
    """``function.parameter`` for each defaulted parameter of a function or
    method of the ``library`` sources that no call in ``callers`` passes, by
    keyword or by position.  Calls match definitions by name, a method's
    positions start after ``self``, and a call with ``*args`` or ``**kwargs``
    passes every parameter it could reach.  Lambdas are left out: their
    defaults capture values (``lambda x, w=w: ...``), no caller sets them."""
    options = []
    for source in library:
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                args, skip = fn.args, id(fn) in methods
                params = args.posonlyargs + args.args
                options += [(fn.name, i - skip, p.arg) for i, p in enumerate(params)
                            if i >= len(params) - len(args.defaults)]
                options += [(fn.name, None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    calls = []  # (name, positional count, keywords; None for ``**kwargs``)
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if isinstance(call, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                calls.append((getattr(call.func, "id", getattr(call.func, "attr", None)),
                              math.inf if starred else len(call.args), {k.arg for k in call.keywords}))
    return [f"{name}.{param}" for name, at, param in options
            if not any(called == name and ((at is not None and count > at) or param in keywords or None in keywords)
                       for called, count, keywords in calls)]


def test_every_option_has_a_caller():
    """A defaulted parameter that only tests set is a constant: the library,
    the demos and the benchmark each run with one value of it."""
    library = [p.read_text() for p in MODULES]
    assert unset_options(library, library + [p.read_text() for p in USERS]) == []


def test_unset_option_detection():
    library = [
        "def f(a, b=1, *, c=2, d=3):\n    return a\n"
        "def g(x=0, y=0):\n    return f(x, 2, c=y, **{})\n"
        "class K:\n    def m(self, u=1, v=2):\n        return lambda w=u: w\n",
        "def h(*args, z=1):\n    return f(*args)\n",
    ]
    callers = library + ["K().m(5)\nh()\ng(y=1)\n"]
    assert unset_options(library, callers) == ["g.x", "m.v", "h.z"]
    assert unset_options(library, ["f(1, c=1)\n"]) == ["f.b", "f.d", "g.x", "g.y", "m.u", "m.v", "h.z"]


def unbounded_caches(source: str) -> list[int]:
    """Lines that make a cache of more than one entry: ``functools.cache``,
    and ``lru_cache`` bare or called with a ``maxsize`` other than the integer 1."""
    tree = ast.parse(source)
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for a in node.names if a.name == "cache"]
        elif isinstance(node, ast.Attribute) and (getattr(node.value, "id", None), node.attr) == ("functools", "cache"):
            lines.append(node.lineno)
        elif getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
            call = calls.get(id(node))
            bound = [] if call is None else call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            if not (bound and isinstance(bound[0], ast.Constant) and type(bound[0].value) is int
                    and bound[0].value == 1):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    """Caches have bounded memory: each ``lru_cache`` keeps one entry, the latest."""
    assert unbounded_caches(path.read_text()) == []


def test_unbounded_cache_detection():
    source = (
        "from functools import cache, lru_cache\nimport functools\n"
        "@lru_cache(maxsize=1)\ndef a(): pass\n@lru_cache(1)\ndef b(): pass\n"
        "@lru_cache\ndef c(): pass\n@lru_cache(maxsize=None)\ndef d(): pass\n"
        "@functools.lru_cache()\ndef e(): pass\n@functools.cache\ndef f(): pass\n"
        "g = lru_cache(maxsize=True)(len)\n@lru_cache(maxsize=32)\ndef h(): pass\n@lru_cache(2)\ndef i(): pass\n"
    )
    assert unbounded_caches(source) == [1, 7, 9, 11, 13, 15, 16, 18]
