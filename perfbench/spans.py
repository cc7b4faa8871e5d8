"""Span recorder for the traced run.

Wrappers are installed on the wreathlin module attributes through which
callers look functions up, so the library itself carries no tracing code.
Every call of a wrapped function becomes one span: name, start, end, parent
span and operation id, plus an optional count and error flag.  Spans stay in
memory until the run ends; per-layer figures are computed from them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root span
    op: str  # "setup", "check", or the index of the timed operation
    tag: str = ""  # workload-chosen label, e.g. the apply case
    count: float = 0.0  # work done, for functions that report it
    error: bool = False  # the call raised

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.tag, self.count, self.error]


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    op: str = "setup"
    tag: str = ""
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, fn, args, kwargs, count=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.op, self.tag)
        self.spans.append(span)
        self._stack.append(idx)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if count is not None:
                span.count = float(count(args, result))


def _enumerated(args, result) -> int:
    """Elements an enumeration produced; one that hit its limit produced
    exactly ``limit`` elements before raising."""
    if result is not None:
        return len(result)
    limit = args[1] if len(args) > 1 else None
    return limit if limit is not None else sys.modules["wreathlin.perm"].max_order_limit()


def _layer_kind(args) -> str:
    return {"WreathPCLayer": "wreath", "AttnPCLayer": "attn", "SetPCLayer": "set"}[type(args[0]).__name__]


# (module, attribute, span name or callable naming the span from the args,
#  optional count of work done computed from (args, result); result is None
#  when the call raised)
TARGETS = [
    ("wreathlin.structure", "group_of", "structure.group_of", None),
    ("wreathlin.perm", "enumerate_group", "perm.enumerate_group", _enumerated),
    ("wreathlin.rational", "nullspace", "rational.nullspace", lambda a, r: a[1]),
    ("wreathlin.basis", "pattern_of_structure", "basis.pattern_of_structure", None),
    ("wreathlin.basis", "orbit_pattern", "basis.orbit_pattern",
     lambda a, r: a[0].degree ** 2 * len(a[0].generators)),
    ("wreathlin.basis", "burnside_count", "basis.burnside_count", None),
    ("wreathlin.basis", "commutant_basis", "basis.commutant_basis", None),
    ("wreathlin.layer", "apply", "layer.apply", None),
    ("wreathlin.layer", "equivariance_check", "layer.equivariance_check", None),
    ("wreathlin.pointcloud", "voxelize", "pointcloud.voxelize", None),
    ("wreathlin.pointcloud", "mean_pool", "pointcloud.mean_pool", None),
    ("wreathlin.pointcloud", "conv3d_periodic", "pointcloud.conv3d_periodic", None),
    ("wreathlin.pointcloud", "gather_to_points", "pointcloud.gather_to_points", None),
    ("wreathlin.pointcloud", "pc_layer_forward",
     lambda a: "pointcloud.pc_layer_forward." + _layer_kind(a), None),
    ("wreathlin.train", "loss_ce", "train.loss_ce", None),
    ("wreathlin.train", "net_forward", "train.net_forward", None),
    ("wreathlin.train", "net_backward", "train.net_backward", None),
    ("wreathlin.train", "layer_backward", lambda a: "train.layer_backward." + _layer_kind(a), None),
    ("wreathlin.cli", "main", "cli.main", None),
]


def _wrapper(rec: Recorder, fn, name, count):
    def traced(*args, **kwargs):
        span_name = name(args) if callable(name) else name
        return rec.call(span_name, fn, args, kwargs, count)

    traced.untraced = fn
    return traced


def install(rec: Recorder, targets=TARGETS) -> None:
    """Wrap each target everywhere a loaded wreathlin module binds it.

    Targets in modules the workload has not imported are left alone, so
    tracing imports nothing the untraced run would not.
    """
    for mod_name, attr, name, count in targets:
        if mod_name not in sys.modules:
            continue
        fn = getattr(sys.modules[mod_name], attr)
        traced = _wrapper(rec, fn, name, count)
        for loaded_name, mod in list(sys.modules.items()):
            if loaded_name != "wreathlin" and not loaded_name.startswith("wreathlin."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def outermost(spans: list[Span]) -> list[bool]:
    """Whether each span has no ancestor of the same name (so recursive calls
    are not counted twice in inclusive totals)."""
    flags = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        flags.append(p < 0)
    return flags
