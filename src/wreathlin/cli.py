"""Command-line surface: pattern emission, verification suites, and the
synthetic segmentation demo.

Exit codes: 0 success, 1 verification or runtime failure, 2 usage error
or out of memory.  The console script ``wreathlin`` (:func:`run`) caps its
own address space at what it holds plus the memory available when it
starts, so an allocation beyond that fails as one ``error:`` line rather
than a traceback.  Memory that other processes take while it runs is not
counted, and can still bring the kernel's OOM killer.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import sys
from pathlib import Path

import numpy as np

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
from .perm import DEFAULT_MAX_ORDER, MAX_ORDER_ENV_VAR, EnumerationLimitError, enumerate_group, max_order_limit
from .structure import (
    Structure,
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


def _pattern_structure(text: str) -> Structure:
    """Parse a structure whose ``N x N`` pattern a command will build.

    Raises ``ValueError`` for a malformed expression, and for a structure
    whose pattern's 8-byte ids alone exceed physical memory, before allocating.
    """
    expr = parse_structure(text)
    n, ram = degree(expr), _physical_memory()
    if 8 * n * n > ram:
        raise ValueError(f"degree {n} is too large: building its {n} x {n} pattern needs {8 * n * n} bytes, "
                         f"more than the {ram} bytes of physical memory")
    return expr


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
            del elements  # the later legs run without it
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


def _demo_size_error(args: argparse.Namespace) -> str | None:
    """The first demo size out of range, as an error message, or ``None``."""
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
    return None


def cmd_demo(args: argparse.Namespace) -> int:
    from .pointcloud import (format_predictions, make_blob_scene, permute_points, shift_assignment,
                             within_voxel_permutation)
    from .train import TrainingDivergedError, net_forward, seg_setup, sgd_train, trace_csv

    error = _demo_size_error(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
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

    vox, x, labels = test[0]
    logits = net_forward(trained, vox, x)[0]

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
    # the directory is made only once everything is computed, so a run that
    # ends in an error leaves none behind
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR
    (out_dir / "trace.csv").write_text(trace_csv(trace))
    # in the held-out sample's own order, which is voxel order
    (out_dir / "predictions.txt").write_text(format_predictions(logits.argmax(axis=1)))
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
    try:
        return args.fn(args)
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return USAGE_ERROR


def _proc_bytes(path: str, key: str) -> int:
    """The ``key:  N kB`` line of a Linux ``/proc`` file, in bytes."""
    with open(path) as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith(key + ":"))


def _address_space_cap() -> int:
    """The address space this process holds now plus the memory the machine
    has available to it (``MemAvailable``), or physical memory where
    ``/proc`` cannot say."""
    try:
        return _proc_bytes("/proc/self/status", "VmSize") + _proc_bytes("/proc/meminfo", "MemAvailable")
    except (OSError, StopIteration):
        return _physical_memory()


def _limit_address_space() -> None:
    """Lower the soft ``RLIMIT_AS`` to :func:`_address_space_cap`, or to the hard limit if
    lower, so that an allocation past it raises ``MemoryError``; a lower soft limit stays."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = _address_space_cap() if hard == resource.RLIM_INFINITY else min(_address_space_cap(), hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def run() -> None:
    """The console script: :func:`main` under :func:`_limit_address_space`."""
    _limit_address_space()
    sys.exit(main())


if __name__ == "__main__":
    run()
