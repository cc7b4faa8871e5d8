"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import wreathlin

MODULES = sorted(Path(wreathlin.__file__).parent.glob("*.py"))


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
