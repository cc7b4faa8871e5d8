"""Metric names, units and the per-layer figures computed from spans.

Per-layer time metrics use one of three phases:

* ``setup`` -- milliseconds spent while the measuring process set up;
* ``op`` -- milliseconds per timed operation (apply round, SGD step,
  inference forward, verify suite);
* ``all`` -- set-up milliseconds plus milliseconds per timed operation, for
  functions that run in set-up on one workload and in the timed loop on
  another (``pattern_of_structure`` fills caches during the first applies but
  runs inside every ``verify``).

A function a workload never calls reads 0 there.
"""

from __future__ import annotations

from statistics import median

from spans import Span, outermost, self_times
from suite import APPLY_GRIDS, APPLY_SETS, VERIFY, slug

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
]

APPLY_SLUGS = [slug(full) for full, _ in APPLY_SETS + APPLY_GRIDS]
VERIFY_SLUGS = [slug(s) for s in VERIFY]

# (metric, unit, span name, phase, what): "incl" sums span durations
# (outermost call of a recursion only), "self" their self times, "count" the
# spans' work counts and "errors" the calls that raised
_SPAN_METRICS = [
    ("layer.equivariance_check_ms", "ms", "layer.equivariance_check", "all", "incl"),
    ("basis.pattern_of_structure_ms", "ms", "basis.pattern_of_structure", "all", "self"),
    ("basis.orbit_pattern_ms", "ms", "basis.orbit_pattern", "all", "incl"),
    ("basis.orbit_pattern_pairs", "count", "basis.orbit_pattern", "all", "count"),
    ("basis.burnside_count_ms", "ms", "basis.burnside_count", "all", "incl"),
    ("basis.commutant_basis_ms", "ms", "basis.commutant_basis", "all", "incl"),
    ("perm.enumerate_group_ms", "ms", "perm.enumerate_group", "all", "incl"),
    ("perm.elements_enumerated", "count", "perm.enumerate_group", "all", "count"),
    ("perm.enumeration_limit_hits", "count", "perm.enumerate_group", "all", "errors"),
    ("rational.nullspace_ms", "ms", "rational.nullspace", "all", "incl"),
    ("rational.unknowns", "count", "rational.nullspace", "all", "count"),
    ("structure.group_of_ms", "ms", "structure.group_of", "all", "incl"),
    ("pointcloud.voxelize_ms", "ms", "pointcloud.voxelize", "setup", "incl"),
    ("train.net_forward_ms", "ms", "train.net_forward", "op", "incl"),
    ("train.net_backward_ms", "ms", "train.net_backward", "op", "incl"),
    ("train.layer_backward_ms.wreath", "ms", "train.layer_backward.wreath", "op", "incl"),
    ("train.layer_backward_ms.attn", "ms", "train.layer_backward.attn", "op", "incl"),
    ("train.loss_ce_ms", "ms", "train.loss_ce", "op", "incl"),
]
for _phase in ("train", "infer"):
    for _fn in ("mean_pool", "conv3d_periodic", "gather_to_points"):
        _SPAN_METRICS.append((f"pointcloud.{_fn}_ms.{_phase}", "ms", f"pointcloud.{_fn}", "op", "incl"))
    for _kind in ("wreath", "attn"):
        _SPAN_METRICS.append((f"pointcloud.pc_layer_forward_ms.{_kind}.{_phase}", "ms",
                              f"pointcloud.pc_layer_forward.{_kind}", "op", "incl"))

# figures the workloads count themselves rather than read from spans
COUNTED = [
    ("basis.pattern_cache_hits", "count"),
    ("basis.pattern_cache_misses", "count"),
    ("cli.legs_skipped", "count"),
    ("cli.legs_failed", "count"),
]

PER_LAYER = (
    [(f"layer.apply_ms.{s}", "ms") for s in APPLY_SLUGS]
    + [(f"layer.first_apply_ms.{s}", "ms") for s in APPLY_SLUGS]
    + [(name, unit) for name, unit, *_ in _SPAN_METRICS]
    + COUNTED
    + [("perm.enumerate_useful_ratio", "ratio"), ("cli.import_ms", "ms")]
    + [(f"cli.verify_ms.{s}", "ms") for s in VERIFY_SLUGS]
    + [(f"trace_overhead.{name}", unit) for name, unit in END_TO_END]
)
UNITS = dict(END_TO_END + PER_LAYER)


def per_layer(workload: str, spans: list[Span], n_ops: int, counted: dict) -> dict:
    """Every per-layer metric (tracing overhead excepted) for one traced run.

    ``counted`` holds the figures of ``COUNTED`` the workload measured; the
    rest come from the spans.  ``n_ops`` is the number of timed operations.
    """
    own = self_times(spans)
    top = outermost(spans)

    def total(name: str, phase: str, what: str) -> float:
        out = 0.0
        for i, s in enumerate(spans):
            if s.name != name or (s.op == "setup") != (phase == "setup") or s.op == "check":
                continue
            if what == "count":
                out += s.count
            elif what == "errors":
                out += s.error
            elif what == "self":
                out += own[i] * 1e3
            elif top[i]:
                out += (s.end - s.start) * 1e3
        return out

    out = {name: 0.0 for name, _ in PER_LAYER if not name.startswith("trace_overhead.")}
    for name, _, span_name, phase, what in _SPAN_METRICS:
        if name.endswith((".train", ".infer")) and not workload.endswith(name.rsplit(".", 1)[1]):
            continue
        value = 0.0
        if phase in ("setup", "all"):
            value += total(span_name, "setup", what)
        if phase in ("op", "all"):
            value += total(span_name, "op", what) / n_ops
        out[name] = value

    first: dict[str, float] = {}
    timed: dict[str, list[float]] = {}
    for s in spans:
        ms = (s.end - s.start) * 1e3
        if s.name == "layer.apply" and s.tag in APPLY_SLUGS and s.op == "setup":
            first.setdefault(f"layer.first_apply_ms.{s.tag}", ms)
        elif s.name == "layer.apply" and s.tag in APPLY_SLUGS and s.op != "check":
            timed.setdefault(f"layer.apply_ms.{s.tag}", []).append(ms)
        elif s.name == "cli.main":
            timed.setdefault(f"cli.verify_ms.{s.tag}", []).append(ms)
        elif s.name == "cli.import":
            timed.setdefault("cli.import_ms", []).append(ms)
    out.update(first)
    out.update({key: median(values) for key, values in timed.items()})

    enum = [s for s in spans if s.name == "perm.enumerate_group" and s.op != "check"]
    enum_s = sum(s.end - s.start for s in enum)
    useful_s = sum(s.end - s.start for s in enum if not s.error)
    out["perm.enumerate_useful_ratio"] = useful_s / enum_s if enum_s > 0 else 0.0
    out.update(counted)
    unknown = set(out) - set(UNITS)
    if unknown:
        raise KeyError(f"metrics outside the declared list: {sorted(unknown)}")
    return out
