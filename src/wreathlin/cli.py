"""Command-line surface: pattern emission, verification suites, and the
synthetic segmentation demo.

Exit codes: 0 success, 1 verification or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .arrays import POOL_BYTES
from .basis import (
    DEFAULT_ORACLE_MAX_DEGREE,
    burnside_count,
    commutant_basis,
    commutes_exactly,
    constant_on_orbits,
    materialize,
    orbit_pattern,
    pattern_csv,
    pattern_of_structure,
    pattern_pgm,
    pattern_summary,
)
from .layer import equivariance_check, random_layer
from .perm import (DEFAULT_MAX_ORDER, MAX_ORDER_ENV_VAR, UNION_CHUNK, EnumerationLimitError, enumerate_group,
                   max_order_limit)
from .structure import (
    Prod,
    Structure,
    Wreath,
    degree,
    format_structure,
    group_of,
    group_order,
    param_count,
    parse_structure,
    reassociate_wreaths,
)

USAGE_ERROR = 2


def _emit(text: str, out: str | None) -> int:
    """Write ``text`` to stdout or to the file ``out``; returns the exit code.

    A path that cannot be written is a usage error: one ``error:`` line, exit 2.
    """
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# Peak bytes of building a pattern, under tracemalloc at N = 2,000.  Per
# entry: 25, the int64 ids and their validation.  Each node builds its ids
# from its two factors' grids and caches no point orbits, so nesting adds
# nothing: S(2000), C(2000), wr(S(40),S(50)), six wrs or six prods nested on
# the outer side, and wr(S(2),wr(S(2),wr(S(5),wr(S(5),S(20))))) all peak at
# 25.0-25.1.  Per orbit: each node's cached orbit index keeps 24, and numbering
# the root's orbits takes 24 more: trivial(2000) peaks at 56 per entry, and
# wr(S(1),wr(S(1),wr(S(1),trivial(2000)))) at 137, 96 of them for four orbit
# indexes of N**2 orbits each.
PATTERN_BYTES_PER_ENTRY = 25
ORBIT_INDEX_BYTES_PER_ORBIT = 24
# Peak bytes of verify's generator-orbit leg beyond the pattern it keeps alive.
# Per entry, perm.orbit_labels's Python ints (8 a pointer, 28 an int) and int64
# result: 52 for trivial(600), 45-48 for S, C and wr at N = 600 to 1,000.  Per
# pair of the first UNION_CHUNK, a chunk's moved pairs and images: 78 (S(128)).
LEG_BYTES_PER_ENTRY = 54
LEG_BYTES_PER_CHUNK_PAIR = 80
# Peak bytes of verify's group-order leg beyond the pattern and the generator
# orbits' pattern (8 per entry) it keeps alive.  perm.enumerate_group holds
# each element as a bytes key, joins the keys and copies the join.  Per
# element: 146-151 for S(8), wr(C(3),S(5)) and wr(S(2),C(12)).  Per byte of an
# element's images, N times the itemsize of the least unsigned dtype holding
# N - 1: 2.6-3.0 from prod(S(7),C(30)) to prod(C(2),C(2000)).
ENUMERATION_BYTES_PER_ELEMENT = 160
ENUMERATION_BYTES_PER_IMAGE_BYTE = 3
# Peak bytes of verify's equivariance leg beyond the pattern, the generator
# orbits' pattern and the tied matrix (8 per entry each) it keeps alive: the
# random layer's weights and, where orbits are single entries, its full map,
# 96-105 per orbit on trivial(100), trivial(300) and prod(trivial(15),trivial(20)).
LAYER_BYTES_PER_ORBIT = 106


def _pattern_bytes(expr: Structure) -> int:
    """Bytes that building ``expr``'s pattern peaks at, at most, from the
    closed-form counts and the constants above."""

    def orbits(e):  # pair orbits, summed over every node's orbit index
        return param_count(e) + (orbits(e.outer) + orbits(e.inner) if isinstance(e, (Prod, Wreath)) else 0)

    return PATTERN_BYTES_PER_ENTRY * degree(expr) ** 2 + ORBIT_INDEX_BYTES_PER_ORBIT * (orbits(expr) + param_count(expr))


def _verify_bytes(expr: Structure) -> int:
    """Bytes that ``verify``'s generator-orbit leg peaks at, at most, the pattern's freed temporaries included."""
    pairs = degree(expr) ** 2
    return _pattern_bytes(expr) + LEG_BYTES_PER_ENTRY * pairs + LEG_BYTES_PER_CHUNK_PAIR * min(pairs, UNION_CHUNK)


def _enumeration_bytes(expr: Structure) -> int:
    """Bytes that ``verify``'s group-order leg peaks at, at most: the group's
    elements enumerated beside the two patterns."""
    n = degree(expr)
    per_element = ENUMERATION_BYTES_PER_ELEMENT + ENUMERATION_BYTES_PER_IMAGE_BYTE * n * np.min_scalar_type(n - 1).itemsize
    return _pattern_bytes(expr) + 8 * n * n + group_order(expr) * per_element


def _equivariance_bytes(expr: Structure) -> int:
    """Bytes that ``verify``'s equivariance leg peaks at, at most: a random
    layer beside the two patterns and the tied matrix."""
    return _pattern_bytes(expr) + 16 * degree(expr) ** 2 + LAYER_BYTES_PER_ORBIT * param_count(expr)


def _check_memory(legs) -> None:
    """Raise ``ValueError`` at the first of the ``(what, count)`` pairs whose
    count of bytes exceeds physical memory; each count is a function of no
    arguments, called only once the legs before it fit."""
    ram = _physical_memory()
    for what, count in legs:
        need = count()
        if need > ram:
            raise ValueError(f"{what} needs {need} bytes, more than the {ram} bytes of physical memory")


def _pattern_structure(text: str) -> Structure:
    """Parse a structure whose ``N x N`` pattern a command will build.

    Raises ``ValueError`` for a malformed expression, and for a structure
    whose pattern, with the temporaries and orbit indexes that building it
    takes, exceeds physical memory, before allocating.
    """
    expr = parse_structure(text)
    n = degree(expr)
    _check_memory([(f"degree {n} is too large: building its {n} x {n} pattern", lambda: _pattern_bytes(expr))])
    return expr


def _check_verify_memory(expr: Structure, max_order: int) -> None:
    """Raise ``ValueError``, before allocating, if a leg ``verify`` runs
    beside the pattern exceeds physical memory: the generator orbits, the
    group's elements when ``max_order`` lets it enumerate them, or the layer."""
    n = degree(expr)
    built = f"building its {n} x {n} pattern and then"
    legs = [(f"degree {n} is too large: {built} its generator orbits", lambda: _verify_bytes(expr)),
            (f"degree {n} is too large: {built} a layer of its {param_count(expr)} weight orbits",
             lambda: _equivariance_bytes(expr))]
    order = group_order(expr)
    if order <= max_order:
        legs.append((f"group order {order} is too large: enumerating it beside its {n} x {n} pattern",
                     lambda: _enumeration_bytes(expr)))
    _check_memory(legs)


def cmd_pattern(args: argparse.Namespace) -> int:
    try:
        expr = _pattern_structure(args.structure)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    pattern = pattern_of_structure(expr)
    if args.format == "csv":
        return _emit(pattern_csv(pattern), args.out)
    if args.format == "pgm":
        return _emit(pattern_pgm(pattern), args.out)
    return _emit(pattern_summary(format_structure(expr), pattern), args.out)


def _order_text(order: int) -> str:
    """``order N``, or the digit count of an order above 15 digits."""
    if order < 10 ** 15:
        return f"order {order}"
    digits = int(math.log10(order))  # within one of the count; exact ints settle it
    while 10 ** digits <= order:
        digits += 1
    while 10 ** (digits - 1) > order:
        digits -= 1
    return f"order has {digits} digits"


def _verify_rows(expr, max_order: int, trials: int):
    """Yield (leg, status, detail) rows; status is 'pass'/'FAIL'/'skip'."""
    group = group_of(expr)
    pattern = pattern_of_structure(expr)
    closed = param_count(expr)

    generated = orbit_pattern(group)
    ok = closed == pattern.num_orbits == generated.num_orbits
    yield ("counts", "pass" if ok else "FAIL",
           f"closed-form={closed} pattern={pattern.num_orbits} generators={generated.num_orbits}")

    yield ("pattern-equality", "pass" if pattern == generated else "FAIL",
           "closed-form pattern matches generator orbits")

    order = group_order(expr)
    if order > max_order:
        yield ("burnside", "skip", f"warning: group order exceeds limit {max_order}: {_order_text(order)}")
    else:
        # one enumeration serves both legs; more elements than the order is a failure
        try:
            elements = enumerate_group(group, limit=order)
        except EnumerationLimitError:
            yield ("group-order", "FAIL", f"generators give more than the closed-form order {order}")
        else:
            yield ("group-order", "pass" if len(elements) == order else "FAIL",
                   f"{len(elements)} elements enumerated, closed-form order {order}")
            b = burnside_count(elements)
            del elements  # the later legs run without it, as the memory guard counts them
            yield ("burnside", "pass" if b == closed else "FAIL", f"average fixed points = {b}")

    if degree(expr) <= DEFAULT_ORACLE_MAX_DEGREE:
        oracle = commutant_basis(group)
        proj_ok = all(constant_on_orbits(b, pattern) for b in oracle)
        yield ("oracle", "pass" if len(oracle) == closed and proj_ok else "FAIL",
               f"nullspace dim = {len(oracle)}, basis constant on orbits: {proj_ok}")
    else:
        yield ("oracle", "skip", f"degree {degree(expr)} > {DEFAULT_ORACLE_MAX_DEGREE}")

    tied = materialize(pattern, np.arange(1, pattern.num_orbits + 1, dtype=np.float64))
    comm = all(commutes_exactly(tied, g) for g in group.generators)
    yield ("commutation", "pass" if comm else "FAIL", "W g = g W for all generators, exact")

    layer = random_layer(expr, c_in=2, c_out=2, rng=np.random.default_rng(0), bias=True)
    report = equivariance_check(layer, trials=trials)
    yield ("equivariance", "pass" if report.passed else "FAIL",
           f"max residual {report.max_residual:.3e} over {trials} random inputs")

    flat = reassociate_wreaths(expr)
    if flat != expr:
        same = pattern_of_structure(flat) == pattern
        yield ("associativity", "pass" if same else "FAIL",
               f"pattern unchanged under {format_structure(flat)}")
    else:
        yield ("associativity", "pass", "no nested wreaths to reassociate")


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        expr = _pattern_structure(args.structure)
        max_order = max_order_limit() if args.max_order is None else args.max_order
        if max_order < 1:
            raise ValueError(f"--max-order must be at least 1, got {max_order}")
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        _check_verify_memory(expr, max_order)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"structure {format_structure(expr)}  degree {degree(expr)}")
    failed = False
    for leg, status, detail in _verify_rows(expr, max_order, args.trials):
        print(f"  {leg:<17} {status:<4} {detail}")
        failed = failed or status == "FAIL"
    print("result: " + ("FAIL" if failed else "pass"))
    return 1 if failed else 0


# Bytes the demo peaks at, under tracemalloc in process with the scratch pool
# emptied first, on 2,000 to 96,000 points.  Each cloud keeps 24 per point
# beside its float64 features (int64 voxel, row and label; 24.0-25.2 measured)
# and 16 per occupied voxel (int64 counts and ids); voxelizing counts all D**3
# voxels in int64.  Beyond these, the tap rows and the cached block outputs, a
# step or the equivariance check held 4.0-5.9 float64 (points, widest channels)
# arrays, the attention backward up to 4 of (latents, points), and the pool its
# step arrays up to arrays.POOL_BYTES.  The count read 1.11-1.41 times the peak
# at D = 8 on 4,000 to 96,000 points (1.82-1.98 on 2,000); its tap rows of
# min(points, D**3) voxels exceed what blob scenes occupy at D = 16 and 32.
CLOUD_BYTES_PER_POINT = 24
CLOUD_BYTES_PER_VOXEL = 16
STEP_ARRAYS = 6
ATTENTION_ARRAYS = 4


def _demo_size_error(args: argparse.Namespace) -> str | None:
    """The first demo size out of range, as an error message, or ``None``.

    The bytes the demo peaks at are counted from its sizes and the constants
    above before anything is allocated, one term per size, and the size whose
    term takes the running sum past physical memory is named.
    """
    # the demo's modules load here, not with the command line, so `verify` and `pattern` skip them
    from .train import FEATURE_CHANNELS, HELD_OUT_CLOUDS, HIDDEN_WIDTH, TRAIN_CLOUDS, kernel_width

    least = {"res": 1, "blocks": 1, "blobs": 1, "points_per_blob": 1, "attention": 0, "epochs": 0,
             "seed": 0}
    for name, low in least.items():
        value = getattr(args, name)
        if value is not None and value < low:
            return f"--{name.replace('_', '-')} must be at least {low}, got {value}"
    if not (np.isfinite(args.noise) and args.noise >= 0):
        return f"--noise must be finite and at least 0, got {args.noise}"
    if args.blobs > args.res ** 3:
        return f"--blobs {args.blobs} exceeds the {args.res ** 3} voxels of a resolution-{args.res} grid"
    n_points = args.blobs * args.points_per_blob
    taps, clouds, width = kernel_width(args.res) ** 3, TRAIN_CLOUDS + HELD_OUT_CLOUDS, HIDDEN_WIDTH
    widest = max(width, args.blobs)  # the logits have one channel per blob
    step = 8 * STEP_ARRAYS * n_points * widest
    sizes = [
        # one count of every voxel; each cloud's occupied voxels; a convolution's tap rows and products
        ("res", "its voxel counts and kernel-tap rows need",
         8 * args.res ** 3 + (clouds * CLOUD_BYTES_PER_VOXEL + 8 * 2 * taps * widest) * min(n_points, args.res ** 3)),
        ("points_per_blob", f"{clouds} clouds of {n_points} points and a training step over them need",
         clouds * (CLOUD_BYTES_PER_POINT + 8 * FEATURE_CHANNELS) * n_points + step + min(POOL_BYTES, step)),
        ("attention", "its interaction weights and soft assignments need",
         8 * args.attention * (args.attention * width ** 2 + ATTENTION_ARRAYS * n_points)),
        # each block holds its point map and kernel taps, and caches its output
        ("blocks", "its weights and cached outputs need",
         8 * args.blocks * ((taps + 1) * width * widest + n_points * width)),
    ]
    ram = _physical_memory()
    total = 0
    for name, what, need in sizes:
        total += need
        if total > ram:
            return (f"--{name.replace('_', '-')} {getattr(args, name)} is too large: {what} "
                    f"{need} bytes, {total} in all, more than the {ram} bytes of physical memory")
    return None


def cmd_demo(args: argparse.Namespace) -> int:
    from .pointcloud import (format_predictions, make_blob_scene, permute_points, shift_assignment,
                             within_voxel_permutation)
    from .train import TrainingDivergedError, net_forward, seg_setup, sgd_train, trace_csv

    error = _demo_size_error(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return USAGE_ERROR
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR
    scene_rng = np.random.default_rng(args.seed)
    centers = make_blob_scene(args.blobs, args.res, scene_rng)
    train, test, blocks = seg_setup(
        centers, args.seed, args.res, args.blocks, args.points_per_blob, args.noise,
        attention_latents=args.attention,
    )
    # the soft-assignment path pools unnormalized sums over points, so its
    # gradients scale with cloud size; a gentler, longer schedule keeps it
    # stable (single-latent softmax is the touchiest case)
    lr = {0: 0.2, 1: 0.001}.get(args.attention, 0.005)
    epochs = args.epochs if args.epochs is not None else (40 if args.attention == 0 else 400)
    try:
        trained, trace = sgd_train(blocks, train, epochs=epochs, lr=lr, seed=args.seed)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (out_dir / "trace.csv").write_text(trace_csv(trace))

    vox, x, labels = test[0]
    logits = net_forward(trained, vox, x)[0]
    (out_dir / "predictions.txt").write_text(format_predictions(logits.argmax(axis=1)))

    check_rng = np.random.default_rng(args.seed + 7)
    y = logits
    worst = 0.0
    for _ in range(3):
        shifts = tuple(int(v) for v in check_rng.integers(0, args.res, size=3))
        y2 = net_forward(trained, shift_assignment(vox, shifts), x)[0]
        order = within_voxel_permutation(vox, check_rng)
        y3 = net_forward(trained, permute_points(vox, order), x[order])[0]
        scale = max(np.abs(y).max(), 1e-12)
        worst = max(
            worst,
            float(np.abs(y2 - y).max() / scale),
            float(np.abs(y3 - y[order]).max() / scale),
        )
    passed = worst <= 1e-10
    acc = float((logits.argmax(axis=1) == labels).mean())
    report = [
        f"task segnet  res={args.res} blocks={args.blocks} attention={args.attention}",
        f"epochs={epochs} seed={args.seed}",
        f"final train loss {trace[-1][1]!r}  held-out accuracy {acc!r}",
        f"equivariance max residual {worst:.3e} -> {'pass' if passed else 'FAIL'}",
    ]
    (out_dir / "equivariance.txt").write_text("\n".join(report) + "\n")
    print("\n".join(report))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathlin",
        description="Equivariant linear maps for nested set/cycle symmetries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="emit the weight-sharing pattern of a structure")
    p.add_argument("--structure", required=True, help='e.g. "wr(S(4),S(3))"')
    p.add_argument("--format", choices=["csv", "pgm", "summary"], default="summary")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(fn=cmd_pattern)

    v = sub.add_parser("verify", help="run the verification suite on a structure")
    v.add_argument("--structure", required=True)
    v.add_argument("--max-order", type=int, default=None,
                   help="group-order cap for exhaustive enumeration "
                        f"(default: ${MAX_ORDER_ENV_VAR}, else {DEFAULT_MAX_ORDER})")
    v.add_argument("--trials", type=int, default=5, help="random inputs per equivariance leg")
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("demo", help="train the toy point-cloud segmentation stack")
    d.add_argument("--task", choices=["segnet"], default="segnet")
    d.add_argument("--res", type=int, default=4, help="voxel grid resolution per axis")
    d.add_argument("--blocks", type=int, default=2)
    d.add_argument("--attention", type=int, default=0, help="latent count, 0 disables")
    d.add_argument("--epochs", type=int, default=None,
                   help="default 40, or 400 when attention is enabled")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument("--blobs", type=int, default=6)
    d.add_argument("--points-per-blob", type=int, default=12)
    d.add_argument("--noise", type=float, default=0.2, help="per-point position noise, voxel units")
    d.set_defaults(fn=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
