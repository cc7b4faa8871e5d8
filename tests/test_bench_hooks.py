"""The library names the benchmark's traced run wraps still exist.

``perfbench/spans.py`` installs its span wrappers by module and attribute
name and names point-cloud layer spans by class name, so a rename or move in
the library would otherwise show up only as a crashed benchmark run.
"""

import ast
import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np

import wreathlin.pointcloud
from wreathlin.structure import group_of, parse_structure
from wreathlin.train import init_attn_layer, init_set_layer, init_wreath_layer

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_span_target_resolves():
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _, _ in load_spans().TARGETS
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []


def test_orbit_pattern_work_count_reads_the_group_fields():
    """The ``orbit_pattern`` span counts its work as ``degree ** 2`` times the
    number of generators, read as ``a[0].degree`` and ``len(a[0].generators)``."""
    count = next(c for mod, attr, _, c in load_spans().TARGETS if attr == "orbit_pattern")
    group = group_of(parse_structure("wr(S(3),trivial(2))"))
    assert group.degree == 6
    assert len(group.generators) == group.generators.shape[0] == 5
    assert count((group,), None) == 6 ** 2 * 5


def test_layer_kinds_name_the_point_cloud_layer_classes():
    tree = ast.parse(SPANS.read_text())
    kind_fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_layer_kind")
    table = next(n for n in ast.walk(kind_fn) if isinstance(n, ast.Dict))
    names = {key.value for key in table.keys}
    assert all(isinstance(getattr(wreathlin.pointcloud, name, None), type) for name in names)
    assert names == {cls.__name__ for cls in typing.get_args(wreathlin.pointcloud.PCLayer)}


def test_importing_train_loads_basis():
    """``perfbench/worker.py`` reads the pattern cache of ``wreathlin.basis``
    out of ``sys.modules`` after importing only ``wreathlin.pointcloud`` and
    ``wreathlin.train``; the module is there because the package
    ``__init__`` imports it.  Without it the ``segnet_*`` workloads'
    measuring process dies with a ``KeyError``."""
    src = str(Path(wreathlin.pointcloud.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, wreathlin.train; assert 'wreathlin.basis' in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


def test_layer_gradients_are_keyed_by_the_layer_fields():
    """``perfbench/worker.py``'s SGD step passes the keys of ``backward``'s
    gradient dict to ``dataclasses.replace`` on the layer, and
    ``train._block_params`` reads the layer's fields, so for every layer class
    the two must name the same arrays."""
    rng = np.random.default_rng(0)
    pc = wreathlin.pointcloud
    layers = {
        pc.WreathPCLayer: init_wreath_layer(4, 3, 1, rng),
        pc.SetPCLayer: init_set_layer(4, 3, rng),
        pc.AttnPCLayer: init_attn_layer(4, 3, 2, rng),
    }
    assert set(layers) == set(typing.get_args(pc.PCLayer))
    coords, features = rng.uniform(size=(10, 3)), rng.normal(size=(10, 4))
    vox, _ = pc.voxelize(coords, 2)
    for cls, layer in layers.items():
        assert type(layer) is cls
        y, cache = pc.pc_layer_forward(layer, vox, features)
        grads, _ = pc.layer_backward(layer, vox, cache, np.ones_like(y))
        assert set(grads) == {f.name for f in dataclasses.fields(layer)}, cls.__name__


def test_wreath_layer_calls_the_pooled_primitives_through_the_module(monkeypatch):
    """The per-layer metrics ``pointcloud.mean_pool_ms``, ``.conv3d_periodic_ms``
    and ``.gather_to_points_ms`` sum the spans of wrappers installed on
    ``wreathlin.pointcloud``; a layer that inlined one of these, or bound it
    under another name, would leave its metric reading 0."""
    pc = wreathlin.pointcloud
    calls = dict.fromkeys(["mean_pool", "conv3d_periodic", "gather_to_points"], 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pc, name, counting(name, getattr(pc, name)))
    rng = np.random.default_rng(1)
    coords, features = rng.uniform(size=(30, 3)), rng.normal(size=(30, 4))
    vox, _ = pc.voxelize(coords, 4)
    layer = init_wreath_layer(4, 3, 3, rng)
    y, cache = pc.pc_layer_forward(layer, vox, features)
    pc.layer_backward(layer, vox, cache, np.ones_like(y))
    # the forward pools, convolves and gathers once; the backward convolves
    # with the flipped kernel and gathers again
    assert calls == {"mean_pool": 1, "conv3d_periodic": 2, "gather_to_points": 2}
