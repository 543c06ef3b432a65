import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qftadd
from qftadd import (
    AdderSpec,
    Mode,
    classical_oracle,
    cli,
    parse_digit_text,
    required_ancillas,
    resources,
)
from qftadd.cli import main
from qftadd.core import MAX_AMPLITUDES

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_add_case_study_summary(capsys, tmp_path):
    out_file = tmp_path / "hist.json"
    code, out, err = run_cli(
        ["add", "--base", "2", "--digits", "2", "--inputs", "3,2,1,2",
         "--shots", "1024", "--output", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out.strip() == "result=1000 value=8"
    assert out_file.read_bytes() == (GOLDEN / "case_qubit.json").read_bytes()


def test_add_ququart_case_study(capsys, tmp_path):
    out_file = tmp_path / "hist.json"
    code, out, _ = run_cli(
        ["add", "--base", "4", "--digits", "1", "--inputs", "3,2,1,2",
         "--output", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out.strip() == "result=20 value=8"
    assert out_file.read_bytes() == (GOLDEN / "case_ququart.json").read_bytes()
    # above base 10 the digits are dash-separated
    code, out, _ = run_cli(
        ["add", "--base", "11", "--digits", "1", "--inputs", "3,4"], capsys
    )
    assert code == 0
    assert out.strip().endswith("result=0-7 value=7")


@pytest.mark.parametrize(
    "args, golden, summary",
    [
        (["--base", "2", "--digits", "3", "--inputs", "5,6,7", "--noise", "0.05",
          "--seed", "7", "--shots", "4096"], "noisy_qubit.json", "result=10010 value=18"),
        # dash-separated base-12 keys in value order: "1-0-9" before "1-0-10"
        (["--base", "12", "--digits", "2", "--inputs", "100,43,7", "--noise", "0.1",
          "--seed", "3", "--shots", "2048"], "noisy_d12.json", "result=1-0-6 value=150"),
    ],
)
def test_add_seeded_noise_golden(args, golden, summary, capsys, tmp_path):
    out_file = tmp_path / "hist.json"
    code, out, _ = run_cli(["add", *args, "--output", str(out_file)], capsys)
    assert code == 0
    assert out.strip() == summary
    assert out_file.read_bytes() == (GOLDEN / golden).read_bytes()


def test_sub_to_zero(capsys):
    code, out, _ = run_cli(
        ["sub", "--base", "2", "--digits", "2", "--inputs", "3,3"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "result=000 value=0"
    payload = json.loads("\n".join(lines[:-1]))
    assert payload["counts"] == {"000": 1024}


def test_inputs_base_flag(capsys):
    # the same case study, inputs written as base-2 digit strings
    code, out, _ = run_cli(
        ["add", "--base", "2", "--digits", "2", "--inputs", "11,10,01,10",
         "--inputs-base", "2", "--output", "-"],
        capsys,
    )
    assert code == 0
    assert out.strip().endswith("result=1000 value=8")


def test_seeded_run_is_byte_reproducible(capsys, tmp_path):
    args = ["add", "--base", "2", "--digits", "2", "--inputs", "3,2,1,2",
            "--shots", "4096", "--noise", "0.05", "--seed", "123"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_cli(args + ["--output", str(first)], capsys)[0] == 0
    assert run_cli(args + ["--output", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_noisy_majority(capsys):
    code, out, _ = run_cli(
        ["add", "--base", "2", "--digits", "2", "--inputs", "3,2,1,2",
         "--shots", "4096", "--noise", "0.05", "--seed", "7"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1].startswith("result=1000")
    payload = json.loads("\n".join(lines[:-1]))
    assert payload["counts"]["1000"] > 2048
    # noisy base-12 keys such as "0-7" and "11-10" differ in length
    code, out, _ = run_cli(
        ["add", "--base", "12", "--digits", "1", "--inputs", "3,4", "--noise", "0.5"],
        capsys,
    )
    assert code == 0
    assert out.strip().endswith("value=7")


def test_validation_failures_name_the_flag(capsys):
    # each case names its flag and the reason the library or int() gave
    cases = [
        (["add", "--base", "2", "--digits", "2", "--inputs", "5,1"], "--inputs",
         "input 0 is 5"),
        (["add", "--base", "2", "--digits", "2", "--inputs", "1,-2"], "--inputs",
         "input 1 is -2"),
        (["add", "--base", "1", "--digits", "2", "--inputs", "0"], "--base",
         "base must be"),
        (["add", "--base", "2", "--digits", "0", "--inputs", "0"], "--digits",
         "digits_per_input must be"),
        (["add", "--base", "2", "--digits", "1", "--inputs", "1", "--shots", "0"],
         "--shots", "must be >= 1"),
        (["add", "--base", "2", "--digits", "1", "--inputs", "1", "--noise", "1.5"],
         "--noise", "readout_flip_probability must be"),
        (["add", "--base", "2", "--digits", "1", "--inputs", "1", "--seed", "-1"],
         "--seed", "seed must fit"),
        (["add", "--base", "2", "--digits", "1", "--inputs", "xy"], "--inputs",
         "invalid literal"),
        (["gate-count", "--base", "2", "--digits", "1", "--num-inputs", "0"],
         "--num-inputs", "num_inputs must be"),
        (["gate-count", "--base", "2", "--digits", "0", "--num-inputs", "2"],
         "--digits", "digits_per_input must be >= 1, got 0"),
        (["sweep", "--bases", "2,zz", "--max-capacity", "16"], "--bases",
         "invalid literal"),
        # an empty token is no input and no base: refused, not dropped
        (["add", "--base", "2", "--digits", "2", "--inputs", "1,,2"], "--inputs",
         "invalid literal"),
        (["add", "--base", "2", "--digits", "2", "--inputs", "1,2,"], "--inputs",
         "invalid literal"),
        # int() reads radix 0 as "guess", and no radix past 36
        *((["add", "--base", "2", "--digits", "2", "--inputs", "1", "--inputs-base", radix],
           "--inputs-base", f"must be in [2, 36], got {radix}") for radix in ("0", "1", "37")),
        (["sweep", "--bases", "2,,4", "--max-capacity", "16"], "--bases",
         "invalid literal"),
        (["sweep", "--bases", "1", "--max-capacity", "16"], "--bases",
         "base must be >= 2"),
        (["sweep", "--bases", "2", "--max-capacity", "0"], "--max-capacity",
         "max_capacity must be"),
        # over the shot limit, rejected before the state or samples exist
        (["add", "--base", "2", "--digits", "1", "--inputs", "1,1",
          "--shots", str(2**24)], "--shots", f"{2**25} digits"),
        # and before any base**digits is built: 3**10**8 would take minutes
        (["add", "--base", "3", "--digits", str(10**8), "--inputs", "1"], "--shots",
         f"{1024 * 10**8} digits"),
        # a bound past Python's 4,300-digit limit on int text, as base**digits
        (["add", "--base", "10", "--digits", "5000", "--inputs=-1"], "--base/--digits/--inputs",
         "input 0 is -1, must be in [0, 10**5000) for 5000 base-10 digits"),
        # and an input past it, which int() reads in a power-of-two radix, as its size
        (["add", "--base", "10", "--digits", "3", "--inputs", "1" * 20000, "--inputs-base", "2"],
         "--base/--digits/--inputs", "input 0 is <20000-bit int>, must be in [0, 10**3)"),
    ]
    for args, flag, reason in cases:
        code, _, err = run_cli(args, capsys)
        assert code == 2, args
        assert flag in err and reason in err, (args, err)
        assert "Exceeds the limit" not in err, (args, err)


def test_parser_is_built_once_and_a_failed_call_leaves_it_as_new(capsys):
    args = ["add", "--base", "3", "--digits", "2", "--inputs", "4,5", "--noise", "0.1"]
    cli.build_parser.cache_clear()
    first = run_cli(args, capsys)
    assert first[0] == 0 and cli.build_parser() is cli.build_parser()
    # one call that argparse rejects and one that the library rejects
    with pytest.raises(SystemExit) as exited:
        main(["add", "--base", "3", "--digits", "two", "--inputs", "4"])
    assert exited.value.code == 2
    assert run_cli(["add", "--base", "3", "--digits", "2", "--inputs", "9,0"], capsys)[0] == 2
    assert run_cli(args, capsys) == first


def test_add_bounds_the_span_not_the_layout(capsys):
    # 17 base-4 inputs of 2 digits: 37 qudits, but a span of 4**5 amplitudes
    inputs = tuple(range(16)) + (0,)
    spec = AdderSpec(4, 2, 17, Mode.ADD, inputs)
    assert 4**spec.layout.total_qudits > MAX_AMPLITUDES >= 4**spec.result_width
    code, out, err = run_cli(
        ["add", "--base", "4", "--digits", "2",
         "--inputs", ",".join(map(str, inputs)), "--shots", "16"],
        capsys,
    )
    assert code == 0, err
    assert classical_oracle(spec) == 120
    assert out.strip().endswith("value=120")


def test_add_runs_the_1030_qudit_design(capsys):
    # 64 inputs of 16 bits: 1030 qubits and a 2**22 span, which ``execute``
    # holds as digits and phase ramps, never as a dense part
    rng = np.random.default_rng(1030)
    inputs = tuple(int(v) for v in rng.integers(0, 2**16, 64))
    spec = AdderSpec(2, 16, 64, Mode.ADD, inputs)
    assert spec.layout.total_qudits == 1030 and spec.result_width == 22
    code, out, err = run_cli(
        ["add", "--base", "2", "--digits", "16", "--inputs", ",".join(map(str, inputs))],
        capsys,
    )
    assert code == 0, err
    assert out.strip().endswith(f"value={classical_oracle(spec)}")


@pytest.mark.parametrize("seed", [0, 1])
def test_add_at_a_large_base_fails_only_on_its_spec_flags(capsys, seed):
    # 50 base-1000 inputs of 2 digits: d*N is 5e4.  The CLI runs them from
    # digits, or names the spec flags; it never reports an internal error
    rng = np.random.default_rng(seed)
    inputs = ",".join(str(v) for v in rng.integers(0, 10**6, 50))
    code, out, err = run_cli(
        ["add", "--base", "1000", "--digits", "2", "--inputs", inputs, "--shots", "16"], capsys
    )
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: --base/--digits/--inputs: "), err
        assert "--shots" not in err


@pytest.mark.parametrize("command, value", [("add", 49999950), ("sub", 952000048)])
def test_add_sub_at_a_large_base_and_many_inputs_print_the_oracle(capsys, command, value):
    # fifty base-1000 inputs of 2 digits, each 999999: every ramp snaps exactly
    inputs = ",".join(["999999"] * 50)
    code, out, err = run_cli(
        [command, "--base", "1000", "--digits", "2", "--inputs", inputs, "--shots", "16"], capsys
    )
    assert code == 0, err
    assert out.strip().endswith(f"value={value}")
    mode = Mode.ADD if command == "add" else Mode.SUB
    assert classical_oracle(AdderSpec(1000, 2, 50, mode, (999999,) * 50)) == value


@pytest.mark.parametrize(
    "args, flags",
    [
        (["add", "--inputs", "1,2"], "--base/--digits"),
        (["sub", "--inputs", "1,2"], "--base/--digits"),
        (["export-circuit", "--inputs", "1,2"], "--base/--digits"),
        (["gate-count", "--num-inputs", "2", "--verify"], "--base/--digits/--num-inputs"),
    ],
)
def test_a_span_past_the_float_range_names_the_spec_flags(capsys, args, flags):
    # a 111-qudit base-1000 span: 1000**111 is over 2**1022
    code, out, err = run_cli([*args, "--base", "1000", "--digits", "110"], capsys)
    assert code == 2 and not out
    assert err.startswith(f"error: {flags}: a Fourier span of 111 base-1000 qudits"), err
    assert "2**1022" in err


def test_sweep_size_checked_before_any_row(capsys, monkeypatch):
    # 2**40 at base 2 is about 2**40 rows
    def refuse(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(resources, "_gate_count", refuse)
    monkeypatch.setattr(resources, "SweepRow", refuse)
    code, _, err = run_cli(
        ["sweep", "--bases", "2", "--max-capacity", str(2**40)], capsys
    )
    assert code == 2
    assert "--max-capacity" in err and f"limit of {resources.MAX_SWEEP_ROWS}" in err


def test_size_checked_before_building(capsys, monkeypatch):
    # building 2 inputs of 600 digits takes seconds; the guards must not wait
    def refuse(spec):
        raise AssertionError("the circuit was built")

    monkeypatch.setattr(cli, "build_full_adder", refuse)
    for command in ("add", "sub"):
        args = [command, "--base", "2", "--digits", "600", "--inputs", "1,1"]
        # with noise or without, the op count holds
        for extra in (["--noise", "0.1"], []):
            code, _, err = run_cli([*args, *extra], capsys)
            assert code == 2
            assert "--digits/--inputs" in err and f"{cli.MAX_OPS}" in err, err


def test_add_reads_a_noisy_span_past_the_cap(capsys):
    # (2,30,3) has a 32-qubit span and (100000,2,2) a 100000**3 one: both over
    # the dense limit, read as digits without noise and drawn per digit with
    # it.  (100000,1,1)'s span is under it, but its 100000 x 100000 channel
    # is not: a readout of known digits builds one flip column per digit.
    cases = [
        ("2", "30", "1,2,3", "0.01", 6), ("100000", "2", "1,2", "0.1", 3),
        ("100000", "1", "7", "0.1", 7),
    ]
    for base, digits, inputs, noise, value in cases:
        args = ["add", "--base", base, "--digits", digits, "--inputs", inputs, "--shots", "64"]
        code, out, err = run_cli(args, capsys)
        assert code == 0, err
        assert out.strip().endswith(f"value={value}")
        noisy = [*args, "--noise", noise, "--seed", "5"]
        code, out, err = run_cli(noisy, capsys)
        assert code == 0, err
        lines = out.strip().split("\n")
        assert lines[-1].endswith(f"value={value}")
        payload = json.loads("\n".join(lines[:-1]))
        assert payload["shots"] == 64 and len(payload["counts"]) > 1
        # seeded: the same flags give the same output
        assert run_cli(noisy, capsys)[1] == out


def test_op_count_checked_before_building(capsys, monkeypatch):
    # 2 inputs of 300 digits make about 137k ops, over cli.MAX_OPS
    def refuse(*args):
        raise AssertionError("the circuit was built")

    monkeypatch.setattr(cli, "build_full_adder", refuse)
    monkeypatch.setattr(cli, "resource_report", refuse)
    for args in (
        ["export-circuit", "--base", "2", "--digits", "300", "--inputs", "1,1"],
        ["gate-count", "--base", "2", "--digits", "300", "--num-inputs", "2", "--verify"],
    ):
        code, _, err = run_cli(args, capsys)
        assert code == 2, args
        assert "--digits" in err and f"limit of {cli.MAX_OPS}" in err, err
    # without --verify the closed form alone runs, at any size
    code, out, _ = run_cli(
        ["gate-count", "--base", "2", "--digits", "300", "--num-inputs", "2"], capsys
    )
    assert code == 0 and out.startswith("formula=")


def test_add_sub_check_the_op_count_before_building(capsys, monkeypatch):
    # 2**14 one-digit inputs: a 2**15 span, but about 262k ops
    def refuse(spec):
        raise AssertionError("the circuit was built")

    monkeypatch.setattr(cli, "build_full_adder", refuse)
    inputs = ",".join(["1"] * 2**14)
    for command in ("add", "sub"):
        code, _, err = run_cli(
            [command, "--base", "2", "--digits", "1", "--inputs", inputs], capsys
        )
        assert code == 2
        assert "--digits/--inputs" in err and f"limit of {cli.MAX_OPS}" in err, err


@st.composite
def _small_specs(draw):
    """An adder of d in 2..16, n in 1..3 and N in 1..5 with a span d**(t+n) <= 2**16."""
    d = draw(st.integers(2, 16))
    designs = [
        (n, count)
        for n in range(1, 4)
        for count in range(1, 6)
        if d ** (required_ancillas(count, d) + n) <= 2**16
    ]
    n, count = draw(st.sampled_from(designs))
    mode = draw(st.sampled_from(Mode))
    inputs = draw(st.lists(st.integers(0, d**n - 1), min_size=count, max_size=count))
    return AdderSpec(d, n, count, mode, tuple(inputs))


@settings(max_examples=100, deadline=None)
@given(_small_specs())
def test_add_sub_print_the_oracle_for_any_base(spec):
    argv = [spec.mode.value, "--base", str(spec.base),
            "--digits", str(spec.digits_per_input),
            "--inputs", ",".join(map(str, spec.inputs)), "--shots", "32"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    *body, last = out.getvalue().strip().split("\n")
    result, value = last.split()
    assert value == f"value={classical_oracle(spec)}"
    payload = json.loads("\n".join(body))
    assert result.removeprefix("result=") in payload["counts"]
    assert payload["base"] == spec.base
    assert sum(payload["counts"].values()) == 32
    for key in payload["counts"]:
        assert parse_digit_text(key, spec.base).width == spec.result_width


@pytest.mark.parametrize("args", [
    ["add", "--base", "2", "--digits", "2", "--inputs", "3,2"],
    ["sub", "--base", "3", "--digits", "2", "--inputs", "8,2"],
    ["sweep", "--bases", "2,4", "--max-capacity", "64"],
    ["export-circuit", "--base", "2", "--digits", "2", "--inputs", "3,2"],
], ids=["add", "sub", "sweep", "export-circuit"])
def test_an_unwritable_output_names_the_flag(args, capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "out"
    code, _, err = run_cli([*args, "--output", str(missing)], capsys)
    assert code == 2
    assert err.startswith("error: --output: ") and str(missing) in err, err
    assert not missing.parent.exists()


def test_a_failed_stdout_write_exits_1(capsys):
    # an OSError that names no flag, such as a closed pipe, is no internal error
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with contextlib.redirect_stdout(ClosedPipe()):
        code = main(["gate-count", "--base", "4", "--digits", "1", "--num-inputs", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: [Errno 32] Broken pipe\n", err


def test_gate_count_plain(capsys):
    code, out, _ = run_cli(
        ["gate-count", "--base", "4", "--digits", "1", "--num-inputs", "4"], capsys
    )
    assert code == 0
    assert out.strip() == "formula=14"


def test_gate_count_verify(capsys):
    code, out, _ = run_cli(
        ["gate-count", "--base", "2", "--digits", "2", "--num-inputs", "4",
         "--verify"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "formula=45 tally=45 MATCH"


def test_sweep_golden(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["sweep", "--bases", "2,4", "--max-capacity", "64",
         "--output", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out_file.read_bytes() == (GOLDEN / "sweep_small.csv").read_bytes()


def test_export_circuit_golden(capsys, tmp_path):
    out_file = tmp_path / "circ.json"
    code, _, _ = run_cli(
        ["export-circuit", "--base", "2", "--digits", "2", "--inputs", "3,2,1,2",
         "--output", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out_file.read_bytes() == (GOLDEN / "adder_d2_circuit.json").read_bytes()
    payload = json.loads(out_file.read_text())
    # 45 formula-counted gates plus one shift per nonzero input digit
    assert len(payload["ops"]) == 50
    shifts = [op for op in payload["ops"] if op["kind"] == "SHIFT"]
    assert len(shifts) == 5


def test_export_circuit_qasm_requires_base_two(capsys):
    code, _, err = run_cli(
        ["export-circuit", "--base", "4", "--digits", "1", "--inputs", "1,2",
         "--format", "qasm"],
        capsys,
    )
    assert code == 2
    assert "--format" in err


def test_export_circuit_qasm_output(capsys):
    code, out, _ = run_cli(
        ["export-circuit", "--base", "2", "--digits", "1", "--inputs", "1,1",
         "--format", "qasm"],
        capsys,
    )
    assert code == 0
    assert out.startswith("OPENQASM 2.0;")
    assert "h " in out


def test_export_circuit_single_input(capsys):
    code, out, _ = run_cli(
        ["export-circuit", "--base", "2", "--digits", "2", "--inputs", "0",
         "--format", "text"],
        capsys,
    )
    assert code == 0
    assert "component" not in out
    assert "# qft" in out and "# iqft" in out


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["add", "--digits", "2", "--inputs", "1,1"])
    assert excinfo.value.code == 2


def test_console_entry_point_runs():
    # the child imports the same qftadd as the tests, installed or not
    src = str(Path(qftadd.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "qftadd", "gate-count", "--base", "2",
         "--digits", "2", "--num-inputs", "4"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "formula=45"
