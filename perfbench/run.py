"""Benchmark of wreathlin: end-to-end and per-layer timings of five workloads.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload apply_sets --seed 1 --seconds 10 --trace 0

The library is imported from ``./src``; nothing is installed.  Each run
starts the set-up several times in fresh processes and reports the median,
then one process runs the workload's operations in a closed loop for
``--seconds`` and checks the results.  With ``--trace 1`` the run is made
twice, untraced and then with span wrappers on the library's public
functions, and reports the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and the run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from metrics import END_TO_END, PER_LAYER, UNITS

HERE = Path(__file__).resolve().parent
WORKLOADS = ["apply_sets", "apply_grids", "verify", "segnet_train", "segnet_infer"]
# set-up is timed this many times per measurement; the last of these
# processes goes on to run the timed loop
SETUPS = 5
# one closed-loop caller; single-threaded BLAS keeps runs steady on a shared
# machine and stays within the core count
BLAS_THREADS = 1
# each workload's operation, and the name its latency goes by in the report
OPERATIONS = {
    "apply_sets": ("apply round", "apply_round_ms"),
    "apply_grids": ("apply round", "apply_round_ms"),
    "verify": ("verify suite, one fresh process per structure", "verify_suite_ms"),
    "segnet_train": ("SGD step", "train_step_ms"),
    "segnet_infer": ("forward pass on the inference cloud", "infer_ms"),
}


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _environment(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("WREATHLIN_MAX_ORDER", None)  # the suite uses the default order cap
    return env


def _start(args, role: str, traced: bool, env: dict) -> tuple[subprocess.Popen, float]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(traced)), "--role", role, "--size", args.size,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    for line in proc.stdout:
        if line.strip() == "READY":
            return proc, time.perf_counter() - t0
    proc.wait()
    raise RuntimeError(f"{role} process exited with code {proc.returncode} before it was ready")


def measure(args, traced: bool, env: dict) -> tuple[list[float], dict]:
    """Set-up times of ``SETUPS`` fresh processes and the last one's result."""
    setups = []
    for _ in range(SETUPS - 1):
        proc, secs = _start(args, "setup", traced, env)
        proc.stdout.read()
        if proc.wait() != 0:
            raise RuntimeError(f"set-up process exited with code {proc.returncode}")
        setups.append(secs)
    proc, secs = _start(args, "measure", traced, env)
    setups.append(secs)
    lines = proc.stdout.read().splitlines()
    if proc.wait() != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise RuntimeError(f"measuring process exited with code {proc.returncode}")
    return setups, json.loads(lines[-1][len("RESULT "):])


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(setups: list[float], result: dict) -> dict:
    ops = result["op_ms"]
    return {
        "setup_s": median(setups),
        "op_ms_p90": _p90(ops),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": 1.0 - result["failed"] / result["attempted"],
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks every input, for the self-test")
    args = p.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "wreathlin" / "__init__.py").is_file():
        print(f"error: {root} has no src/wreathlin; run from the root of a wreathlin checkout",
              file=sys.stderr)
        return 2
    env = _environment(root)
    setups, result = measure(args, False, env)
    e2e = end_to_end(setups, result)
    if args.trace:
        traced_setups, traced = measure(args, True, env)
        traced_e2e = end_to_end(traced_setups, traced)
        metrics = dict(traced["per_layer"])
        for name, _ in END_TO_END:
            metrics[f"trace_overhead.{name}"] = traced_e2e[name] - e2e[name]
        expected = PER_LAYER
    else:
        metrics = e2e
        expected = END_TO_END
    missing = [name for name, _ in expected if name not in metrics]
    if missing or any(not math.isfinite(v) for v in metrics.values()):
        print(f"error: missing or non-finite metrics {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "git_sha": _git_sha(root),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "machine": platform.machine(),
        **result["info"],  # versions, and the computed (not measured) bytes per operation
    }
    print("run record: " + json.dumps(record))
    operation, alias = OPERATIONS[args.workload]
    print(f"operation: {operation}; {len(result['op_ms'])} timed in {args.seconds:g} s; "
          f"set-up timed {len(setups)} times")
    for name, ok, detail in result["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, value in e2e.items():
        print(f"{name} = {value!r} {UNITS[name]}" + (f"  ({alias}_p90)" if name == "op_ms_p90" else ""))
    # not an end-to-end metric: on a shared machine whose speed swings between
    # two levels for seconds at a time, the median follows the mix of levels
    # from run to run while the 90th percentile stays on the slower level
    print(f"{alias}_p50 = {median(result['op_ms'])!r} ms (reported, not gated)")
    if args.trace:
        for name, value in traced_e2e.items():
            print(f"traced {name} = {value!r} {UNITS[name]} (overhead {value - e2e[name]:+.6g})")
        for name, unit in PER_LAYER:
            print(f"  {name} = {metrics[name]!r} {unit}")

    checks = result["checks"] + (traced["checks"] if args.trace else [])
    out = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in expected},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
