"""Self-test of the benchmark at a tiny size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER
from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "0.2") -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", seconds, "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_the_metrics_the_code_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_unit_and_finite_value(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert list(out["metrics"]) == [name for name, _ in expected]
    for name, unit in expected:
        assert out["metrics"][name]["unit"] == unit
        assert math.isfinite(out["metrics"][name]["value"])
    if not trace:
        assert all(out["metrics"][name]["value"] != 0 for name, _ in END_TO_END)


def test_known_failing_verify_structures_are_counted_as_failed():
    # the tiny suite holds two passing and two intransitive structures that
    # `verify` reports as FAIL; one suite fits in the run, plus one check
    proc = _run("verify", 0, seconds="0.01")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (out["attempted"], out["failed"]) == (5, 2)
    assert out["metrics"]["ok_share"]["value"] == pytest.approx(3 / 5)


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("apply_sets", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
