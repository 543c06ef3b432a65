import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qftadd import (
    AdderSpec,
    GateKind,
    Mode,
    build_full_adder,
    capacity,
    cli,
    gate_count_formula,
    required_ancillas,
    resource_report,
    resources,
    sweep,
    sweep_to_csv,
)


def test_formula_examples():
    assert gate_count_formula(2, 4, 2) == 45
    assert gate_count_formula(1, 4, 1) == 14
    assert gate_count_formula(2, 2, 1) == 19  # odd t+n loses one swap


def test_formula_rejects_bad_args():
    with pytest.raises(ValueError):
        gate_count_formula(0, 2, 1)
    with pytest.raises(ValueError):
        gate_count_formula(1, 0, 1)
    with pytest.raises(ValueError):
        gate_count_formula(1, 1, -1)


@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 30))
def test_formula_always_integral(n, N, t):
    # n*(n+1) is even, so the half term is an integer; checked against the
    # formula written out term by term
    value = gate_count_formula(n, N, t)
    base = (N + 1) * n * (n + 1) // 2 + (N + 1) * n * t + t * t + 2 * t + n
    assert value == base - (1 if (t + n) % 2 else 0)


@given(st.integers(1, 8), st.integers(2, 20), st.integers(0, 8))
def test_formula_monotone_in_inputs(n, N, t):
    assert gate_count_formula(n, N + 1, t) > gate_count_formula(n, N, t)


def test_capacity_examples():
    assert capacity(2, 2, 2) == 16
    assert capacity(1, 1, 4) == 16
    assert capacity(1, 0, 2) == 2
    with pytest.raises(ValueError):
        capacity(0, 1, 2)


def test_report_reconciles_case_studies():
    qubit = resource_report(2, 2, 4)
    assert qubit.formula_count == 45
    assert qubit.tally_count == 45
    assert qubit.reconciled
    assert qubit.capacity == 16
    ququart = resource_report(4, 1, 4)
    assert ququart.formula_count == 14
    assert ququart.reconciled
    assert ququart.capacity == 16


def test_report_excludes_shift_gates():
    report = resource_report(2, 2, 4)
    assert report.tally.get(GateKind.SHIFT, 0) == 0  # zero inputs, no encodings
    assert (
        report.tally[GateKind.HADAMARD]
        + report.tally[GateKind.CPHASE]
        + report.tally[GateKind.SWAP]
        == report.tally_count
    )


def test_reconciliation_grid():
    """Formula equals built tally across bases, digit widths and input counts."""
    for d in (2, 3, 4):
        for n in (1, 2, 3):
            for N in range(2, 9):
                t = required_ancillas(N, d)
                if t + (N + 1) * n > 14:
                    continue
                report = resource_report(d, n, N)
                assert report.reconciled, (d, n, N, report.formula_count, report.tally_count)


def test_report_tally_is_the_built_adders():
    # criterion 8's grid (d in 2..5, n in 1..2, N in 1..5), widened to d in
    # 2..16 and n in 1..3: building alone has no amplitude cap
    for d in range(2, 17):
        for n in (1, 2, 3):
            for N in range(1, 6):
                built = build_full_adder(AdderSpec(d, n, N, Mode.ADD, (0,) * N)).tally()
                tally = resource_report(d, n, N).tally
                assert tally == built and list(tally) == list(built), (d, n, N)


def test_a_report_owns_its_tally():
    # the design's tally is counted once and shared; each report holds a copy
    first = resource_report(3, 2, 4)
    want = dict(first.tally)
    first.tally[GateKind.CPHASE] += 1
    del first.tally[GateKind.SWAP]
    assert resource_report(3, 2, 4).tally == want
    assert resource_report(3, 2, 4).reconciled


def test_sweep_sorted_and_bounded():
    rows = sweep([2, 4], 256)
    assert rows
    assert all(row.capacity <= 256 for row in rows)
    keys = [(r.d, r.capacity, r.n, r.N) for r in rows]
    assert keys == sorted(keys)
    assert all(row.N >= 2 for row in rows)


def test_sweep_contains_case_study_comparison():
    rows = sweep([2, 4], 16)
    qubit = [r for r in rows if r.d == 2 and r.capacity == 16 and r.N == 4 and r.n == 2]
    ququart = [r for r in rows if r.d == 4 and r.capacity == 16 and r.N == 4 and r.n == 1]
    assert qubit and qubit[0].gate_count == 45
    assert ququart and ququart[0].gate_count == 14


def test_sweep_empty_when_capacity_below_base():
    assert sweep([5], 4) == []


def test_sweep_rejects_bad_bases():
    with pytest.raises(ValueError):
        sweep([], 16)
    with pytest.raises(ValueError):
        sweep([1], 16)
    with pytest.raises(ValueError, match="max_capacity must be"):
        sweep([2], 0)


def refuse_rows(monkeypatch):
    """Make building any sweep row fail."""

    def refuse(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(resources, "_gate_count", refuse)
    monkeypatch.setattr(resources, "SweepRow", refuse)


def test_sweep_row_count_is_checked_before_any_row(monkeypatch):
    refuse_rows(monkeypatch)
    with pytest.raises(ValueError, match=f"limit of {resources.MAX_SWEEP_ROWS}"):
        sweep([2], 2**40)
    # the closed-form count at base 2, caps 2**16 and 2**20
    monkeypatch.setattr(resources, "MAX_SWEEP_ROWS", 0)
    with pytest.raises(ValueError, match="has 65519 rows"):
        sweep([2], 2**16)
    with pytest.raises(ValueError, match="has 1048555 rows"):
        sweep([2], 2**20)


SWEEP_CAPS = [1, 2, 3, 4, 8, 9, 26, 27, 63, 64, 100, 256, 343, 1000, 4096]


@pytest.mark.parametrize("bases", [[2], [3], [2, 4], [2, 3, 5], [7, 16]])
def test_sweep_row_count_matches_the_rows(bases, monkeypatch):
    # the closed-form count is exact: the sweep builds at that limit, not below
    for cap in SWEEP_CAPS:
        rows = len(sweep(bases, cap))
        monkeypatch.setattr(resources, "MAX_SWEEP_ROWS", rows)
        assert len(sweep(bases, cap)) == rows
        monkeypatch.setattr(resources, "MAX_SWEEP_ROWS", rows - 1)
        with pytest.raises(ValueError, match=f"has {rows} rows"):
            sweep(bases, cap)
        monkeypatch.undo()


def test_csv_format():
    rows = sweep([2], 8)
    text = sweep_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "d,n,N,t,capacity,gate_count"
    assert lines[-1] == ""  # trailing LF
    assert "\r" not in text
    first = lines[1].split(",")
    assert len(first) == 6
    assert all(field.isdigit() for field in first)


def reference_sweep(d_values, max_capacity):
    """The sweep ``sweep`` replaced: every (d, n, N) under the cap, then sorted."""
    rows = []
    for d in sorted(set(d_values)):
        k = required_ancillas(max_capacity + 1, d) - 1
        for n in range(1, k):
            for N in range(2, d ** (k - n) + 1):
                t = required_ancillas(N, d)
                rows.append(
                    resources.SweepRow(
                        d, n, N, t, capacity(n, t, d), gate_count_formula(n, N, t)
                    )
                )
    rows.sort(key=lambda r: (r.d, r.capacity, r.n, r.N))
    return rows


def reference_csv(rows):
    """The CSV writer ``sweep_to_csv`` replaced."""
    out = io.StringIO()
    out.write("d,n,N,t,capacity,gate_count\n")
    for row in rows:
        out.write(f"{row.d},{row.n},{row.N},{row.t},{row.capacity},{row.gate_count}\n")
    return out.getvalue()


@pytest.mark.parametrize("bases", [[2], [3], [2, 4], [2, 3, 5], [7, 16], [2, 3, 4, 5, 8]])
def test_sweep_and_csv_match_the_reference(bases, capsys):
    for cap in SWEEP_CAPS:
        rows = sweep(bases, cap)
        assert rows == reference_sweep(bases, cap), (bases, cap)
        assert sweep_to_csv(rows) == reference_csv(rows), (bases, cap)
        # the CLI writes the same CSV a block at a time, with no rows
        argv = ["sweep", "--bases", ",".join(map(str, bases)), "--max-capacity", str(cap)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == sweep_to_csv(rows), (bases, cap)


def test_sweep_row_is_an_immutable_tuple_of_its_fields():
    row = resources.SweepRow(2, 2, 4, 2, 16, 45)
    assert row == (2, 2, 4, 2, 16, 45)
    assert row._fields == ("d", "n", "N", "t", "capacity", "gate_count")
    with pytest.raises(AttributeError):
        row.gate_count = 0
