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


def test_voxel_sum_shows_its_two_layouts():
    """The ``voxel_sum`` example pools a voxel-major cloud and a shuffled copy."""
    (found,) = doctest.DocTestFinder().find(importlib.import_module("wreathlin.pointcloud").voxel_sum)
    assert any("permute_points" in example.source for example in found.examples)
