"""The examples in the package's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import wreathlin

MODULES = ["wreathlin"] + sorted(m.name for m in pkgutil.iter_modules(wreathlin.__path__, "wreathlin."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_docstring_examples_exist():
    counts = {name: doctest.testmod(importlib.import_module(name)).attempted for name in MODULES}
    assert counts["wreathlin.perm"] >= 7 and counts["wreathlin.structure"] >= 2 and counts["wreathlin.basis"] >= 1
    assert counts["wreathlin.pointcloud"] >= 1
