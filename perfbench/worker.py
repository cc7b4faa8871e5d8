"""One benchmark process: set up a workload, then time it and check it.

``run.py`` starts this script several times per measurement.  Every process
prints ``READY`` once its set-up is done, so the launcher can time set-up
from process start.  A ``--role setup`` process exits there; the ``measure``
process then runs the workload's operations in a closed loop for
``--seconds``, runs the correctness checks outside the timed loop, and prints
one ``RESULT {json}`` line last.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from spans import Recorder, Span, install
from suite import (
    APPLY_GRIDS,
    APPLY_SETS,
    SEGNET,
    SEGNET_PRETRAIN_STEPS,
    SEGNET_SIZES,
    VERIFY,
    VERIFY_TINY,
    slug,
)
from verify_child import MARKER

HERE = Path(__file__).resolve().parent
CHANNELS = 8
TOL = 1e-10


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _pattern_cache(n_ops: int) -> dict:
    """Exact hits and misses of the pattern cache in this process so far."""
    fn = sys.modules["wreathlin.basis"].pattern_of_structure
    info = getattr(fn, "untraced", fn).cache_info()
    return {"basis.pattern_cache_hits": info.hits, "basis.pattern_cache_misses": info.misses}


def _rng(seed: int, stream: str):
    """An independent generator per input stream, all fixed by the seed."""
    import zlib

    import numpy as np

    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


class ApplyWorkload:
    """Warm ``layer.apply`` at ``c_in = c_out = 8``, round-robin over a ladder."""

    def __init__(self, cases, args, rec: Recorder | None):
        import wreathlin.layer as layer_mod
        from wreathlin.structure import parse_structure

        if rec is not None:
            install(rec)
        self.layer_mod, self.rec, self.args = layer_mod, rec, args
        weight_rng, input_rng = _rng(args.seed, "weights"), _rng(args.seed, "inputs")
        self.items = []
        for full, sibling in cases:
            expr = parse_structure(sibling if args.size == "tiny" else full)
            layer = layer_mod.random_layer(expr, CHANNELS, CHANNELS, weight_rng)
            x = input_rng.standard_normal((layer.degree, CHANNELS))
            self.items.append((slug(full), sibling, layer, x))
        self.first_ms = {}
        for name, _, layer, x in self.items:  # fills the orbit tables
            t = time.perf_counter()
            self._apply(name, layer, x)
            self.first_ms[name] = (time.perf_counter() - t) * 1e3

    def _apply(self, name, layer, x):
        if self.rec is not None:
            self.rec.tag = name
        return self.layer_mod.apply(layer, x)

    def op(self, i: int) -> tuple[int, int]:
        for name, _, layer, x in self.items:
            self._apply(name, layer, x)
        return 1, 0

    def checks(self):
        import numpy as np
        from wreathlin.structure import parse_structure

        lm = self.layer_mod
        check_rng, sib_rng = _rng(self.args.seed, "check"), _rng(self.args.seed, "sibling")
        out = []
        for name, sibling, layer, _ in self.items:
            report = lm.equivariance_check(layer, trials=1, rng=check_rng)
            out.append((f"equivariance {name}", report.passed, f"residual {report.max_residual:.2e}"))
            sib = lm.random_layer(parse_structure(sibling), CHANNELS, CHANNELS, sib_rng)
            x = sib_rng.standard_normal((sib.degree, CHANNELS))
            dense = lm.apply_dense(sib, x)
            rel = float(np.abs(lm.apply(sib, x) - dense).max() / max(np.abs(dense).max(), 1e-300))
            out.append((f"dense {sibling}", rel <= TOL, f"relative difference {rel:.2e}"))
        return out

    counts = staticmethod(_pattern_cache)

    def info(self):
        return {
            "first_apply_ms": self.first_ms,
            "computed_bytes_per_apply": {n: l.degree * CHANNELS * 8 for n, _, l, _ in self.items},
        }


class SegnetWorkload:
    """The `demo --attention 4` network: SGD steps on 4,000-point clouds
    (``train``) or forward passes of the trained net on one 100,000-point
    cloud (``infer``)."""

    def __init__(self, phase: str, args, rec: Recorder | None):
        import wreathlin.pointcloud as pc
        import wreathlin.train as tr

        if rec is not None:
            install(rec)
        self.pc, self.tr, self.phase, self.args = pc, tr, phase, args
        data_rng, init_rng = _rng(args.seed, "data"), _rng(args.seed, "weights")
        order_rng, self.check_rng = _rng(args.seed, "order"), _rng(args.seed, "check")
        self.infer_rng = _rng(args.seed, "inference cloud")
        ppb, res = SEGNET_SIZES[args.size]["train"]
        centers = pc.make_blob_scene(SEGNET["classes"], res, data_rng)
        self.samples = tr.make_seg_samples(centers, SEGNET["train_samples"], ppb, SEGNET["noise"],
                                           SEGNET["feature_noise"], res, data_rng)
        self.order = order_rng.permutation(len(self.samples))
        self.blocks = tr.build_segnet(SEGNET["c_in"], SEGNET["classes"], SEGNET["blocks"],
                                      SEGNET["hidden"], SEGNET["kernel"], init_rng,
                                      attention_latents=SEGNET["latents"])
        self.losses = []
        self.big = None
        if phase == "infer":
            for i in range(SEGNET_PRETRAIN_STEPS[args.size]):
                self._step(i)
            self.big = self._infer_cloud()
            tr.net_forward(self.blocks, *self.big[:2])  # warm-up

    def _infer_cloud(self):
        ppb, res = SEGNET_SIZES[self.args.size]["infer"]
        centers = self.pc.make_blob_scene(SEGNET["classes"], res, self.infer_rng)
        return self.tr.make_seg_samples(centers, 1, ppb, SEGNET["noise"], SEGNET["feature_noise"],
                                        res, self.infer_rng)[0]

    def _step(self, i: int) -> None:
        tr = self.tr
        vox, x, labels = self.samples[self.order[i % len(self.order)]]
        logits, caches = tr.net_forward(self.blocks, vox, x)
        loss, d_logits = tr.loss_ce(logits, labels)
        self.losses.append(loss)
        if not math.isfinite(loss):
            raise tr.TrainingDivergedError(f"non-finite loss {loss} at step {i}")
        grads, _ = tr.net_backward(self.blocks, vox, caches, d_logits)
        lr = SEGNET["lr"]
        self.blocks = [
            replace(b, layer=replace(b.layer, **{k: getattr(b.layer, k) - lr * g for k, g in grad.items()}))
            for b, grad in zip(self.blocks, grads)
        ]

    def op(self, i: int) -> tuple[int, int]:
        if self.phase == "train":
            self._step(i)
        else:
            vox, x, _ = self.big
            logits, _ = self.tr.net_forward(self.blocks, vox, x)
            float(logits[0, 0])
        return 1, 0

    def checks(self):
        """The trained net commutes with grid shifts and within-voxel point
        permutations on the inference cloud (the check `demo` makes)."""
        import numpy as np

        pc, tr, rng = self.pc, self.tr, self.check_rng
        vox, x, _ = self.big if self.big is not None else self._infer_cloud()
        y, _ = tr.net_forward(self.blocks, vox, x)
        scale = max(float(np.abs(y).max()), 1e-12)
        worst = 0.0
        for _ in range(3):
            shifts = tuple(int(v) for v in rng.integers(0, vox.resolution, size=3))
            y2, _ = tr.net_forward(self.blocks, pc.shift_assignment(vox, shifts), x)
            order = pc.within_voxel_permutation(vox, rng)
            y3, _ = tr.net_forward(self.blocks, pc.permute_points(vox, order), x[order])
            worst = max(worst, float(np.abs(y2 - y).max()) / scale, float(np.abs(y3 - y[order]).max()) / scale)
        finite = all(math.isfinite(v) for v in self.losses)
        return [
            ("training losses finite", finite, f"{len(self.losses)} steps"),
            ("equivariance of the trained net", worst <= TOL, f"residual {worst:.2e}"),
        ]

    counts = staticmethod(_pattern_cache)

    def info(self):
        ppb, res = SEGNET_SIZES[self.args.size][self.phase]
        n = ppb * SEGNET["classes"]
        widths = [SEGNET["c_in"]] + [SEGNET["hidden"]] * 2 + [SEGNET["classes"]]
        return {
            "points": n,
            "resolution": res,
            "final_loss": self.losses[-1] if self.losses else None,
            "computed_bytes_per_forward": sum(n * c * 8 for c in widths),
        }


def parse_report(stdout: str, code: int) -> tuple[list[str], bool]:
    """Leg statuses of a `verify` report, and whether the report is well formed:
    exit 0 with every leg pass/skip and ``result: pass``, or exit 1 with a FAIL
    leg and ``result: FAIL``."""
    lines = stdout.splitlines()
    statuses = [ln.split()[1] for ln in lines[1:-1] if len(ln.split()) >= 2]
    failed = "FAIL" in statuses
    well_formed = (
        len(lines) >= 3
        and lines[0].startswith("structure ")
        and set(statuses) <= {"pass", "FAIL", "skip"}
        and lines[-1] == ("result: FAIL" if failed else "result: pass")
        and code == (1 if failed else 0)
    )
    return statuses, well_formed


class VerifyWorkload:
    """`wreathlin verify` in a fresh process per structure, one at a time."""

    def __init__(self, args, rec: Recorder | None):
        import wreathlin.cli  # noqa: F401  (set-up is interpreter start plus this import)

        self.rec, self.args = rec, args
        cases = VERIFY_TINY if args.size == "tiny" else VERIFY
        self.cases = [cases[i] for i in _rng(args.seed, "order").permutation(len(cases))]
        self.legs = {"skip": 0, "FAIL": 0}
        self.cache = [0, 0]
        self.problems = []

    def _command(self, structure: str) -> list[str]:
        if self.rec is None:  # what the `wreathlin` console script runs
            head = [sys.executable, "-c", "from wreathlin.cli import run; run()"]
        else:
            head = [sys.executable, str(HERE / "verify_child.py")]
        return head + ["verify", "--structure", structure]

    def op(self, i: int) -> tuple[int, int]:
        failed = 0
        for structure in self.cases:
            proc = subprocess.run(self._command(structure), capture_output=True, text=True, timeout=150)
            stdout = proc.stdout
            if self.rec is not None:
                stdout, _, payload = stdout.rpartition(MARKER)
                self._merge(json.loads(payload), i, slug(structure))
            statuses, well_formed = parse_report(stdout, proc.returncode)
            for status in self.legs:
                self.legs[status] += statuses.count(status)
            if not well_formed:
                self.problems.append(f"{structure}: exit {proc.returncode}, {proc.stderr.strip()[-300:]}")
            if proc.returncode != 0 or "FAIL" in statuses:
                failed += 1
        return len(self.cases), failed

    def _merge(self, payload: dict, i: int, tag: str) -> None:
        base = len(self.rec.spans)
        for name, start, end, parent, _, _, count, error in payload["spans"]:
            self.rec.spans.append(Span(name, start, end, parent + base if parent >= 0 else -1,
                                       str(i), tag, count, error))
        self.cache[0] += payload["cache"][0]
        self.cache[1] += payload["cache"][1]

    def counts(self, n_ops: int) -> dict:
        """Per suite: pattern-cache figures of the traced children, and legs."""
        return {
            "basis.pattern_cache_hits": self.cache[0] / n_ops,
            "basis.pattern_cache_misses": self.cache[1] / n_ops,
            "cli.legs_skipped": self.legs["skip"] / n_ops,
            "cli.legs_failed": self.legs["FAIL"] / n_ops,
        }

    def checks(self):
        return [("verify reports well formed", not self.problems, "; ".join(self.problems) or "all")]

    def info(self):
        return {"structures": self.cases, "legs": self.legs}


WORKLOADS = {
    "apply_sets": lambda a, r: ApplyWorkload(APPLY_SETS, a, r),
    "apply_grids": lambda a, r: ApplyWorkload(APPLY_GRIDS, a, r),
    "verify": VerifyWorkload,
    "segnet_train": lambda a, r: SegnetWorkload("train", a, r),
    "segnet_infer": lambda a, r: SegnetWorkload("infer", a, r),
}


def _versions() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--role", choices=["setup", "measure"], required=True)
    p.add_argument("--size", choices=["full", "tiny"], required=True)
    args = p.parse_args()

    rec = Recorder() if args.trace else None
    wl = WORKLOADS[args.workload](args, rec)
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    import wreathlin

    src = Path(wreathlin.__file__).resolve().parent.parent
    if src != Path.cwd().resolve() / "src":
        print(f"error: imported wreathlin from {src}, not from ./src", file=sys.stderr)
        return 2

    op_ms = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        if rec is not None:
            rec.op = str(i)
        t = time.perf_counter()
        try:
            a, f = wl.op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation {i} failed: {exc!r}", file=sys.stderr)
            a, f = 1, 1
        op_ms.append((time.perf_counter() - t) * 1e3)
        attempted += a
        failed += f
        i += 1
        if time.perf_counter() >= deadline:
            break

    rss = _rss_mb(resource.RUSAGE_CHILDREN if args.workload == "verify" else resource.RUSAGE_SELF)
    counted = wl.counts(len(op_ms))
    if rec is not None:
        rec.op = "check"
    checks = wl.checks()
    attempted += len(checks)
    failed += sum(not ok for _, ok, _ in checks)
    result = {
        "op_ms": op_ms,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "peak_rss_mb": rss,
        "info": {**wl.info(), **_versions()},
    }
    if rec is not None:
        from metrics import per_layer

        result["per_layer"] = per_layer(args.workload, rec.spans, len(op_ms), counted)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
