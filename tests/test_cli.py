"""End-to-end tests for the command-line entry points, driven through main()."""

import math
import os
import resource

import pytest

import wreathlin.cli
from wreathlin.basis import pattern_of_structure
from wreathlin.cli import main
from wreathlin.structure import MAX_NESTING, parse_structure

from memory import traced_peak, under_address_limit


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- pattern ---


def test_pattern_summary_golden(capsys):
    code, out, _ = run_cli(capsys, ["pattern", "--structure", "wr(S(4),S(3))"])
    assert code == 0
    assert out == "structure=wr(S(4),S(3)) N=12 orbits=3\n"


def test_pattern_summary_product(capsys):
    code, out, _ = run_cli(capsys, ["pattern", "--structure", "prod(C(4),C(3))"])
    assert code == 0
    assert out == "structure=prod(C(4),C(3)) N=12 orbits=12\n"


def test_pattern_summary_one_point(capsys):
    code, out, _ = run_cli(capsys, ["pattern", "--structure", "S(1)"])
    assert code == 0
    assert out == "structure=S(1) N=1 orbits=1\n"


def test_pattern_csv_golden(capsys):
    code, out, _ = run_cli(capsys, ["pattern", "--structure", "S(3)", "--format", "csv"])
    assert code == 0
    assert out == "0,1,1\n1,0,1\n1,1,0\n"


def test_pattern_pgm_golden(capsys):
    code, out, _ = run_cli(capsys, ["pattern", "--structure", "wr(S(2),C(2))", "--format", "pgm"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["P2", "4 4", "255"]
    assert lines[3] == "0 127 255 255"
    assert len(lines) == 7


def test_pattern_out_file(tmp_path, capsys):
    target = tmp_path / "pattern.csv"
    code, out, _ = run_cli(
        capsys, ["pattern", "--structure", "S(3)", "--format", "csv", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "0,1,1\n1,0,1\n1,1,0\n"


@pytest.mark.parametrize("where", ["missing", "under_file", "directory"])
def test_pattern_unwritable_out_exits_two(tmp_path, capsys, where):
    (tmp_path / "file").write_text("")
    target = {
        "missing": tmp_path / "no_such_dir" / "p.csv",
        "under_file": tmp_path / "file" / "p.csv",
        "directory": tmp_path,
    }[where]
    code, out, err = run_cli(capsys, ["pattern", "--structure", "S(2)", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_pattern_parse_error_exit_two(capsys):
    code, out, err = run_cli(capsys, ["pattern", "--structure", "wr(S(2),"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_structure_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pattern"])
    assert exc.value.code == 2


# --- verify ---


def test_verify_passes_wreath(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--structure", "wr(S(2),S(3))"])
    assert code == 0
    assert out.startswith("structure wr(S(2),S(3))  degree 6\n")
    assert "counts            pass closed-form=3 pattern=3 generators=3" in out
    assert out.rstrip().endswith("result: pass")
    assert "FAIL" not in out


def test_verify_unconstrained_counts(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--structure", "trivial(2)"])
    assert code == 0
    assert "closed-form=4 pattern=4 generators=4" in out


def test_verify_reports_reassociation(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--structure", "wr(wr(S(2),C(2)),C(2))"])
    assert code == 0
    assert "pattern unchanged under wr(S(2),wr(C(2),C(2)))" in out


def test_verify_burnside_skips_above_cap(capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a group over the cap was enumerated")

    monkeypatch.setattr(wreathlin.cli, "enumerate_group", no_enumeration)
    code, out, _ = run_cli(capsys, ["verify", "--structure", "S(5)", "--max-order", "100"])
    assert code == 0
    assert "burnside          skip warning: group order exceeds limit 100: order 120\n" in out
    assert "group-order" not in out
    assert out.rstrip().endswith("result: pass")


SUITE_ORDERS = {
    "S(5)": 120,
    "C(7)": 7,
    "prod(S(3),C(4))": 24,
    "wr(C(3),S(2))": 18,
    "prod(C(6),C(8))": 48,
    "wr(S(4),S(3))": 82_944,
    "wr(trivial(2),C(3))": 3,
    "wr(S(3),trivial(2))": 36,
}


@pytest.mark.parametrize("text", SUITE_ORDERS)
def test_verify_group_order_leg_passes(capsys, text):
    code, out, _ = run_cli(capsys, ["verify", "--structure", text])
    order = SUITE_ORDERS[text]
    assert f"  group-order       pass {order} elements enumerated, closed-form order {order}\n" in out
    assert "  burnside          pass " in out
    assert code == 0 and "FAIL" not in out and "skip" not in out


@pytest.mark.parametrize("claimed, detail", [
    (60, "generators give more than the closed-form order 60"),
    (240, "120 elements enumerated, closed-form order 240"),
])
def test_verify_group_order_leg_fails_on_a_wrong_order(capsys, monkeypatch, claimed, detail):
    monkeypatch.setattr(wreathlin.cli, "group_order", lambda expr: claimed)
    code, out, _ = run_cli(capsys, ["verify", "--structure", "S(5)"])
    assert code == 1
    assert f"  group-order       FAIL {detail}\n" in out
    assert out.rstrip().endswith("result: FAIL")


def _off_pattern(basis):
    bad = basis.copy()
    bad[0, 0, 1] += 1  # one off-diagonal entry now differs from the others
    return bad


@pytest.mark.parametrize("corrupt, detail", [
    (_off_pattern, "nullspace dim = 2, basis constant on orbits: False"),
    (lambda basis: basis[1:], "nullspace dim = 1, basis constant on orbits: True"),
], ids=["matrix-off-pattern", "vector-missing"])
def test_verify_oracle_leg_fails_on_a_wrong_basis(capsys, monkeypatch, corrupt, detail):
    real = wreathlin.cli.commutant_basis
    monkeypatch.setattr(wreathlin.cli, "commutant_basis", lambda group: corrupt(real(group)))
    code, out, _ = run_cli(capsys, ["verify", "--structure", "S(3)"])
    assert code == 1
    assert f"  oracle            FAIL {detail}\n" in out
    assert out.count("FAIL") == 2 and out.rstrip().endswith("result: FAIL")


def test_verify_skip_names_the_digit_count_of_a_long_order(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--structure", "wr(S(2),S(40))"])
    digits = len(str(2 ** 40 * math.factorial(40)))
    assert digits > 15
    assert f"skip warning: group order exceeds limit 200000: order has {digits} digits\n" in out
    assert code == 0


@pytest.mark.parametrize("order, text", [
    (10 ** 15 - 1, "order 999999999999999"),
    (10 ** 15, "order has 16 digits"),
    (10 ** 41, "order has 42 digits"),
    (math.factorial(8) ** 9, "order has 42 digits"),
    (10 ** 5000 - 1, "order has 5000 digits"),  # beyond int-to-str conversion's default limit
], ids=["15-digits", "16-digits", "42-digits", "wr-S8-S8", "5000-digits"])
def test_order_text(order, text):
    assert wreathlin.cli._order_text(order) == text


def test_verify_cap_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("WREATHLIN_MAX_ORDER", "100")
    code, out, _ = run_cli(capsys, ["verify", "--structure", "S(5)"])
    assert code == 0
    assert "skip warning: group order exceeds limit 100" in out


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "1e5"])
def test_malformed_max_order_env_exits_two(monkeypatch, capsys, raw):
    monkeypatch.setenv("WREATHLIN_MAX_ORDER", raw)
    code, out, err = run_cli(capsys, ["verify", "--structure", "S(3)"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: WREATHLIN_MAX_ORDER") and err.count("\n") == 1
    # pattern never enumerates a group, so the variable does not concern it
    assert run_cli(capsys, ["pattern", "--structure", "S(3)"])[:2] == (0, "structure=S(3) N=3 orbits=2\n")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_max_order_exits_two(capsys, value):
    code, out, err = run_cli(capsys, ["verify", "--structure", "S(3)", f"--max-order={value}"])
    assert code == 2
    assert out == ""
    assert err == f"error: --max-order must be at least 1, got {value}\n"


@pytest.mark.parametrize("command", ["pattern", "verify"])
@pytest.mark.parametrize("text", ["S(100000000000)", "wr(S(10000000),C(1000000))"])
def test_oversize_degree_exits_two_before_allocating(capsys, command, text):
    code, out, err = run_cli(capsys, [command, "--structure", text])
    assert code == 2
    assert out == ""
    assert err.startswith("error: degree ") and err.count("\n") == 1
    assert "physical memory" in err


def test_pattern_peak_does_not_grow_with_nesting():
    """Each node builds its ids from its two factors' grids, so six nested
    ``wr``s peak as one leaf of the same degree does, but for a few kilobytes."""
    peaks = []
    for text in ["S(300)", "wr(S(1),wr(S(1),wr(S(1),wr(S(1),wr(S(1),wr(S(1),S(300)))))))"]:
        pattern_of_structure.cache_clear()
        peaks.append(traced_peak(pattern_of_structure, parse_structure(text))[1])
    assert peaks[1] <= 1.05 * peaks[0] + 2 ** 14


MiB = 2 ** 20
OUT_OF_MEMORY_LIMIT = 300 * MiB  # three times what the interpreter and the library take with one BLAS thread


@pytest.mark.parametrize("argv, leg", [
    (["pattern", "--structure", "trivial(4000)"], None),  # 128 MB of ids, and twice that to check them
    (["verify", "--structure", "S(3500)"], None),  # the pattern or its generator orbits, at twice the limit too
    (["verify", "--structure", "S(10)", "--max-order", "4000000"], "pattern-equality"),  # 3,628,800 elements
], ids=["pattern", "verify", "enumeration"])
def test_out_of_memory_exits_two_with_one_error_line(argv, leg):
    """Past the address-space limit, the console script prints one
    ``error:`` line and exits 2; ``verify`` keeps the legs that finished."""
    proc = under_address_limit(argv, OUT_OF_MEMORY_LIMIT)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()[1:]][-1:] == ([leg] if leg else [])


READ_LIMIT = ("import resource; from wreathlin import cli; cli._address_space_cap = lambda: 3 << 30; "
              "cli.main = lambda: print(resource.getrlimit(resource.RLIMIT_AS)[0]) or 0; cli.run()")


def test_run_caps_its_address_space_at_the_available_memory():
    """``run`` lowers an unlimited soft limit to the cap, or to the hard
    limit, and keeps a lower soft limit as it is."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
    assert int(under_address_limit([], hard, READ_LIMIT).stdout) == cap
    assert int(under_address_limit([], 512 * MiB, READ_LIMIT).stdout) == 512 * MiB


def test_the_cap_is_the_address_space_held_plus_the_memory_available():
    held = wreathlin.cli._proc_bytes("/proc/self/status", "VmSize")
    available = wreathlin.cli._proc_bytes("/proc/meminfo", "MemAvailable")
    # other processes move MemAvailable between the reads
    assert abs(wreathlin.cli._address_space_cap() - held - available) < 256 * MiB


@pytest.mark.parametrize("error", [OSError, StopIteration])
def test_the_cap_is_physical_memory_where_proc_cannot_say(monkeypatch, error):
    def unreadable(path, key):
        raise error(path)

    monkeypatch.setattr(wreathlin.cli, "_proc_bytes", unreadable)
    assert wreathlin.cli._address_space_cap() == wreathlin.cli._physical_memory()


def test_main_leaves_the_address_space_limit_as_it_found_it(capsys):
    before = resource.getrlimit(resource.RLIMIT_AS)
    assert run_cli(capsys, ["verify", "--structure", "S(3)"])[0] == 0
    assert resource.getrlimit(resource.RLIMIT_AS) == before


@pytest.mark.parametrize("value", ["0", "-2"])
def test_nonpositive_trials_exits_two(capsys, value):
    code, out, err = run_cli(capsys, ["verify", "--structure", "S(3)", f"--trials={value}"])
    assert code == 2
    assert out == ""
    assert err == f"error: --trials must be at least 1, got {value}\n"


def test_verify_parse_error_exit_two(capsys):
    code, _, err = run_cli(capsys, ["verify", "--structure", "nosuch(3)"])
    assert code == 2
    assert err.startswith("error:")


def nested_wreath(depth):
    return "wr(" * depth + "S(1)" + ",S(1))" * depth


@pytest.mark.parametrize("command", ["pattern", "verify"])
def test_nesting_bound(capsys, command):
    """At the bound both commands run; one level deeper is one error line and
    exit 2, where hashing the nested tree would otherwise overflow the stack
    a few hundred levels further down."""
    code, _, _ = run_cli(capsys, [command, "--structure", nested_wreath(MAX_NESTING)])
    assert code == 0
    code, out, err = run_cli(capsys, [command, "--structure", nested_wreath(MAX_NESTING + 1)])
    assert code == 2
    assert out == ""
    assert err == f"error: structure nests deeper than {MAX_NESTING} prod/wr levels\n"


# --- demo ---

DEMO_ARGS = [
    "demo", "--res", "2", "--blobs", "3", "--points-per-blob", "6",
    "--epochs", "2", "--seed", "0",
]


def test_demo_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, DEMO_ARGS + ["--out", str(out_dir)])
    assert code == 0
    trace = (out_dir / "trace.csv").read_text()
    assert trace.splitlines()[0] == "epoch,loss,accuracy"
    assert len(trace.splitlines()) == 4  # header + initial + 2 epochs
    preds = (out_dir / "predictions.txt").read_text()
    assert all(line.isdigit() for line in preds.splitlines())
    assert len(preds.splitlines()) == 18  # 3 blobs x 6 points
    report = (out_dir / "equivariance.txt").read_text()
    assert "-> pass" in report
    assert "epochs=2 seed=0" in report
    assert report.rstrip("\n") == out.rstrip("\n")


def test_demo_zero_epochs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, DEMO_ARGS[:-4] + ["--epochs", "0", "--out", str(out_dir)])
    assert code == 0
    assert len((out_dir / "trace.csv").read_text().splitlines()) == 2


def test_demo_reproducible_bytes(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, DEMO_ARGS + ["--out", str(dir_a)])[0] == 0
    assert run_cli(capsys, DEMO_ARGS + ["--out", str(dir_b)])[0] == 0
    for name in ("trace.csv", "predictions.txt", "equivariance.txt"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_demo_attention_path(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, DEMO_ARGS + ["--attention", "2", "--out", str(out_dir)])
    assert code == 0
    assert "attention=2" in out
    assert (out_dir / "trace.csv").exists()


@pytest.mark.parametrize("bad, message", [
    (["--res", "0"], "--res must be at least 1, got 0"),
    (["--blocks", "0"], "--blocks must be at least 1, got 0"),
    (["--blobs", "0"], "--blobs must be at least 1, got 0"),
    (["--points-per-blob", "0"], "--points-per-blob must be at least 1, got 0"),
    (["--res", "1", "--blobs", "3"], "--blobs 3 exceeds the 1 voxels of a resolution-1 grid"),
    (["--attention", "-2"], "--attention must be at least 0, got -2"),
    (["--epochs", "-1"], "--epochs must be at least 0, got -1"),
    (["--noise", "nan"], "--noise must be finite and at least 0, got nan"),
    (["--noise", "inf"], "--noise must be finite and at least 0, got inf"),
    (["--noise", "-1"], "--noise must be finite and at least 0, got -1.0"),
    (["--seed", "-1"], "--seed must be at least 0, got -1"),
])
def test_demo_bad_sizes_exit_two_before_writing(tmp_path, capsys, bad, message):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, DEMO_ARGS + bad + ["--out", str(out_dir)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


def test_demo_oversize_res_exits_two_before_writing(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, DEMO_ARGS + ["--res", "100000", "--epochs", "0", "--out", str(out_dir)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
    assert not out_dir.exists()


def test_demo_out_of_memory_leaves_an_existing_directory(tmp_path, capsys):
    (tmp_path / "kept").write_text("")
    code, _, _ = run_cli(capsys, DEMO_ARGS + ["--res", "100000", "--epochs", "0", "--out", str(tmp_path)])
    assert code == 2
    assert (tmp_path / "kept").exists()


def test_demo_out_of_memory_exits_two_before_writing(tmp_path):
    out_dir = tmp_path / "run"
    argv = ["demo", "--res", "16", "--blobs", "8", "--points-per-blob", "50000", "--out", str(out_dir)]
    proc = under_address_limit(argv, OUT_OF_MEMORY_LIMIT)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("where", ["under_file", "is_file"])
def test_demo_unwritable_out_exits_two(tmp_path, capsys, where):
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "run" if where == "under_file" else tmp_path / "file"
    code, out, err = run_cli(capsys, DEMO_ARGS[:-4] + ["--epochs", "0", "--out", str(out_dir)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot create {out_dir}: ") and err.count("\n") == 1
