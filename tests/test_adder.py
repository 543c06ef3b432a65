import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_dense
from qftadd import (
    AdderSpec,
    Circuit,
    DigitString,
    GateKind,
    GateOp,
    Mode,
    RegisterLayout,
    adder_layout,
    basis_state,
    build_adder_component,
    build_full_adder,
    build_iqft,
    build_qft,
    classical_oracle,
    concat,
    execute,
    from_integer,
    measure,
    parse_digit_text,
    required_ancillas,
    to_integer,
    zero_state,
)
from qftadd.adder import _design_body
from qftadd.circuit import _shift


def result_probability(spec, state, value):
    """Marginal probability that the output register reads ``value``."""
    width = spec.result_width
    probs = state.probabilities().reshape(spec.base**width, -1).sum(axis=1)
    return probs[value]


def test_required_ancillas_examples():
    assert required_ancillas(4, 2) == 2
    assert required_ancillas(4, 4) == 1
    assert required_ancillas(1, 7) == 0
    assert required_ancillas(5, 2) == 3


@given(st.integers(1, 10**6), st.integers(2, 16))
def test_required_ancillas_is_minimal(num_inputs, base):
    t = required_ancillas(num_inputs, base)
    assert base**t >= num_inputs
    assert t == 0 or base ** (t - 1) < num_inputs


def test_required_ancillas_rejects_bad_args():
    with pytest.raises(ValueError):
        required_ancillas(0, 2)
    with pytest.raises(ValueError):
        required_ancillas(3, 1)


def test_adder_layout_shape():
    layout = adder_layout(2, 2, 4)
    assert layout.registers == (("anc", 2), ("a0", 2), ("a1", 2), ("a2", 2), ("a3", 2))
    layout1 = adder_layout(5, 3, 1)
    assert layout1.registers == (("anc", 0), ("a0", 3))


def test_spec_validation():
    with pytest.raises(ValueError):
        AdderSpec(base=2, digits_per_input=2, num_inputs=2, mode=Mode.ADD, inputs=(4, 0))
    with pytest.raises(ValueError):
        AdderSpec(base=2, digits_per_input=2, num_inputs=3, mode=Mode.ADD, inputs=(1, 0))
    with pytest.raises(ValueError):
        AdderSpec(base=2, digits_per_input=0, num_inputs=1, mode=Mode.ADD, inputs=(0,))
    with pytest.raises(ValueError, match="num_inputs must be >= 1, got 0"):
        AdderSpec(base=2, digits_per_input=2, num_inputs=0, mode=Mode.ADD, inputs=())
    with pytest.raises(ValueError, match="mode must be a Mode, got 'add'"):
        AdderSpec(base=2, digits_per_input=2, num_inputs=1, mode="add", inputs=(1,))


def test_component_tally():
    # n*( (n+1)/2 + t ) phase gates per component, nothing else
    for d, t, n in [(2, 2, 2), (3, 1, 2), (4, 1, 1), (2, 0, 3)]:
        layout = RegisterLayout(d, (("anc", t), ("a0", n), ("b", n)))
        comp = build_adder_component(layout, 2, +1)
        tally = comp.tally()
        expected = sum(t + n - j for j in range(n))
        assert tally[GateKind.CPHASE] == expected
        assert tally[GateKind.HADAMARD] == 0
        assert tally[GateKind.SWAP] == 0
    assert expected == 6  # the last case: t=0, n=3 gives 3+2+1


def test_component_seven_gates_for_case_study_sizes():
    layout = RegisterLayout(2, (("anc", 2), ("a0", 2), ("b", 2)))
    comp = build_adder_component(layout, 2, +1)
    assert comp.num_ops == 7


def test_component_rejects_fourier_span_sources():
    layout = RegisterLayout(2, (("anc", 1), ("a0", 1), ("b", 1)))
    for bad in (0, 1):
        with pytest.raises(ValueError):
            build_adder_component(layout, bad, +1)
    with pytest.raises(IndexError):
        build_adder_component(layout, 3, +1)
    with pytest.raises(ValueError):
        build_adder_component(layout, 2, 2)
    empty = RegisterLayout(2, (("anc", 1), ("a0", 1), ("b", 0)))
    with pytest.raises(ValueError, match="source register 2 is empty"):
        build_adder_component(empty, 2, +1)


def digit_rows(d, layout, joint_index):
    """Split a global basis index into one DigitString per register."""
    row = []
    rest = joint_index
    for _ in range(layout.total_qudits):
        row.append(rest % d)
        rest //= d
    row.reverse()
    digits = []
    pos = 0
    for _, size in layout.registers:
        digits.append(DigitString(d, tuple(row[pos : pos + size])))
        pos += size
    return digits


def test_a_span_past_the_float_range_is_refused_before_building():
    # two 110-digit base-1000 inputs: a span of 111 qudits, and 1000**111 is
    # over 2**1022, so no angle 2*pi/1000**111 is a normal float
    spec = AdderSpec(1000, 110, 2, Mode.ADD, (1, 2))
    with pytest.raises(ValueError, match=r"111 base-1000 qudits .* 2\*\*1022"):
        build_full_adder(spec)
    with pytest.raises(ValueError, match=r"111 base-1000 qudits .* 2\*\*1022"):
        build_adder_component(spec.layout, 2, 1)
    # and with no power built: 3**10**7 alone takes seconds and 2 MB
    wide = RegisterLayout(3, (("anc", 0), ("a0", 10**7), ("b", 1)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"10000000 base-3 qudits .* 3\*\*10000000 is over"):
            build_adder_component(wide, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_component_shifts_fourier_state():
    """QFT, one component, IQFT moves |S> to |S+b> for every S and b."""
    d, t, n = 2, 2, 2
    layout = RegisterLayout(d, (("anc", t), ("a0", n), ("b", n)))
    span = range(t + n)
    dim = d ** (t + n)
    for sign in (+1, -1):
        frag = concat(
            [
                build_qft(layout, span),
                build_adder_component(layout, 2, sign),
                build_iqft(layout, span),
            ]
        )
        for s_val in range(dim):
            for b_val in range(d**n):
                joint = s_val * (d**n) + b_val
                want = ((s_val + sign * b_val) % dim) * (d**n) + b_val
                # b held as digits, or every qudit dense on the gate kernels
                init = basis_state(layout, digit_rows(d, layout, joint))
                for start in (init, as_dense(init)):
                    state = execute(frag, start)
                    assert abs(state.amplitudes[want]) > 1 - 1e-9


def test_full_adder_from_basis_state_ends_as_digits():
    # the inputs loaded as a basis state, without the encode span: every
    # qudit ends as a digit with a one-amplitude dense part, as on the
    # default path
    rng = np.random.default_rng(13)
    for d in range(2, 17):
        for n, count in [(1, 2), (1, 3), (2, 2), (2, 3)]:
            mode = Mode.ADD if (d + n + count) % 2 else Mode.SUB
            inputs = tuple(int(rng.integers(0, d**n)) for _ in range(count))
            spec = AdderSpec(d, n, count, mode, inputs)
            layout, width = spec.layout, spec.result_width
            adder = build_full_adder(spec)
            name, _, hi = adder.labels[0]
            assert name == "encode"
            loaded = [from_integer(v, d, n) for v in inputs]
            start = basis_state(layout, [from_integer(0, d, spec.ancillas), *loaded])
            assert start.dense.size == 1
            state = execute(Circuit(d, layout, adder.ops[hi:]), start)
            assert state.dense.size == 1
            top = measure(state, range(width), 64).top_outcome()
            assert to_integer(parse_digit_text(top, d)) == classical_oracle(spec)
            # the default path: zero_state, then the encode span's SHIFTs
            want = execute(adder)
            assert state.digits == want.digits
            assert np.max(np.abs(state.dense - want.dense)) <= 1e-12


def test_zero_state_of_the_widest_design_allocates_nothing():
    # 1030 qubits: d**q amplitudes would be 2**1030
    state = zero_state(adder_layout(2, 16, 64))
    assert state.num_qudits == 1030 and state.dense.size == 1
    assert state.digits == dict.fromkeys(range(1030), 0)


def test_full_adder_qubit_case_study():
    spec = AdderSpec(base=2, digits_per_input=2, num_inputs=4, mode=Mode.ADD, inputs=(3, 2, 1, 2))
    state = execute(build_full_adder(spec))
    assert classical_oracle(spec) == 8
    assert result_probability(spec, state, 8) > 1 - 1e-9


def test_full_adder_ququart_case_study():
    spec = AdderSpec(base=4, digits_per_input=1, num_inputs=4, mode=Mode.ADD, inputs=(3, 2, 1, 2))
    state = execute(build_full_adder(spec))
    assert classical_oracle(spec) == 8
    assert result_probability(spec, state, 8) > 1 - 1e-9


@pytest.mark.parametrize("d", range(2, 17))
@pytest.mark.parametrize("N", [1, 4])
def test_full_adder_labels_tile_the_ops(d, N):
    spec = AdderSpec(d, 2, N, Mode.SUB, tuple(d**2 - 1 - i for i in range(N)))
    circ = build_full_adder(spec)
    components = [f"component a{i}" for i in range(1, N)]
    assert [name for name, _, _ in circ.labels] == ["encode", "qft", *components, "iqft"]
    # contiguous spans that cover every op exactly once
    ends = [0] + [hi for _, _, hi in circ.labels]
    assert [lo for _, lo, _ in circ.labels] == ends[:-1] and ends[-1] == len(circ.ops)
    parts = {name: circ.ops[lo:hi] for name, lo, hi in circ.labels}
    layout, span = spec.layout, range(spec.result_width)
    assert parts["encode"] and {op.kind for op in parts["encode"]} == {GateKind.SHIFT}
    assert parts["qft"] == build_qft(layout, span).ops
    for i in range(1, N):
        assert parts[f"component a{i}"] == build_adder_component(layout, i + 1, -1).ops
    assert parts["iqft"] == build_iqft(layout, span).ops


@pytest.mark.parametrize("d", [2, 3, 5, 11, 16])
def test_full_adder_equals_the_checked_circuit(d):
    # ``build_full_adder`` assembles its Circuit unchecked; the checked
    # constructor accepts the same parts and builds an equal circuit
    for n, count in [(1, 1), (2, 3), (3, 5)]:
        for mode in Mode:
            spec = AdderSpec(d, n, count, mode, tuple(i % d**n for i in range(count)))
            c = build_full_adder(spec)
            assert c == Circuit(c.base, c.layout, c.ops, c.labels)
            assert c.layout is adder_layout(d, n, count) == spec.layout


def test_fans_are_built_once_per_design():
    d, n = 3, 2

    def fans(N, mode, inputs):
        circ = build_full_adder(AdderSpec(d, n, N, mode, inputs))
        return circ, [op for name, lo, hi in circ.labels if name.startswith("component")
                      for op in circ.ops[lo:hi]]

    circ, first = fans(3, Mode.ADD, (1, 2, 3))
    _, again = fans(3, Mode.ADD, (8, 0, 5))
    assert first and all(a is b for a, b in zip(first, again, strict=True))
    # the cache is keyed by the whole design: mode and input count matter
    _, sub = fans(3, Mode.SUB, (1, 2, 3))
    _, wider = fans(4, Mode.ADD, (1, 2, 3, 4))
    assert not {id(op) for op in first} & {id(op) for op in sub}
    assert not {id(op) for op in first} & {id(op) for op in wider}
    spans = {name: circ.ops[lo:hi] for name, lo, hi in circ.labels}
    for i in (2, 3):
        assert build_adder_component(circ.layout, i, +1).ops == spans[f"component a{i - 1}"]
    assert _design_body.cache_info().maxsize == 256
    # a one-input design has no fans: its body is the two ladders alone
    layout = adder_layout(d, n, 1)
    body = _design_body(d, n, 1, 1)
    ops = body.ops
    assert ops == build_qft(layout, range(n)).ops + build_iqft(layout, range(n)).ops
    assert body.labels == (("qft", 0, len(ops) // 2), ("iqft", len(ops) // 2, len(ops)))


def _ladder_and_fan_adder(spec):
    """The adder assembled from its public parts: encoding shifts from the
    input digits, then the QFT, one fan per extra input and the IQFT, each
    built on its own, with labels counted as they join."""
    layout, d, n, t = spec.layout, spec.base, spec.digits_per_input, spec.ancillas
    encode = [
        GateOp(GateKind.SHIFT, (t + i * n + pos,), k=digit)
        for i, value in enumerate(spec.inputs)
        for pos, digit in enumerate(from_integer(value, d, n).digits)
        if digit
    ]
    span = range(t + n)
    parts = [("encode", tuple(encode)), ("qft", build_qft(layout, span).ops)]
    for i in range(1, spec.num_inputs):
        parts.append((f"component a{i}", build_adder_component(layout, i + 1, spec.mode.sign).ops))
    parts.append(("iqft", build_iqft(layout, span).ops))
    ops, labels = [], []
    for name, part in parts:
        labels.append((name, len(ops), len(ops) + len(part)))
        ops.extend(part)
    return tuple(ops), tuple(labels)


@pytest.mark.parametrize("d", [2, 3, 7, 11, 16])
def test_cached_body_equals_the_ladder_and_fan_construction(d):
    rng = np.random.default_rng(d)
    for n in (1, 2, 3):
        for N in (1, 2, 4):
            for mode in Mode:
                inputs = tuple(int(x) for x in rng.integers(0, d**n, N))
                spec = AdderSpec(d, n, N, mode, inputs)
                circ = build_full_adder(spec)
                assert (circ.ops, circ.labels) == _ladder_and_fan_adder(spec)
                # a second spec of the design, with no shifts, holds the same
                # body objects
                k = circ.labels[0][2]  # the end of "encode"
                other = build_full_adder(AdderSpec(d, n, N, mode, (0,) * N))
                assert other.labels[0] == ("encode", 0, 0)
                assert len(other.ops) == len(circ.ops) - k
                assert all(a is b for a, b in zip(other.ops, circ.ops[k:]))


def test_encoding_shifts_are_shared_where_input_digits_agree():
    def encoding(spec):
        circ = build_full_adder(spec)
        (lo, hi), = [(lo, hi) for name, lo, hi in circ.labels if name == "encode"]
        return circ.ops[lo:hi]

    # base 3, t = 1, inputs on qudits 1-2, 3-4 and 5-6: 5 = 12, 7 = 21, 2 = 02
    # and 8 = 22; the shifts depend on the digits alone, not on the design
    first = encoding(AdderSpec(3, 2, 3, Mode.ADD, (5, 7, 2)))
    again = encoding(AdderSpec(3, 2, 3, Mode.SUB, (5, 2, 8)))
    assert first == tuple(
        GateOp(GateKind.SHIFT, (qi,), k=k) for qi, k in [(1, 1), (2, 2), (3, 2), (4, 1), (6, 2)]
    )
    shared = [(a, b) for a in first for b in again if a == b]
    assert [op.qudits[0] for op, _ in shared] == [1, 2, 6]
    assert all(a is b for a, b in shared)
    assert _shift.cache_info().maxsize == 4096


def test_full_adder_single_input_is_identity_pipeline():
    spec = AdderSpec(base=3, digits_per_input=2, num_inputs=1, mode=Mode.ADD, inputs=(5,))
    circ = build_full_adder(spec)
    tally = circ.tally()
    assert tally[GateKind.CPHASE] == 2  # one per QFT and IQFT, no components
    state = execute(circ)
    assert result_probability(spec, state, 5) > 1 - 1e-9


def test_full_adder_sub_wraps_modulo():
    spec = AdderSpec(base=2, digits_per_input=2, num_inputs=2, mode=Mode.SUB, inputs=(1, 3))
    state = execute(build_full_adder(spec))
    assert classical_oracle(spec) == 6
    assert result_probability(spec, state, 6) > 1 - 1e-9


def test_full_adder_preserves_other_registers():
    spec = AdderSpec(base=2, digits_per_input=2, num_inputs=3, mode=Mode.ADD, inputs=(2, 3, 1))
    state = execute(build_full_adder(spec))
    # joint outcome: result 6 in the span, inputs 3 and 1 still encoded behind it
    width = spec.result_width
    joint = (6 * 4 + 3) * 4 + 1
    assert abs(state.amplitudes[joint]) > 1 - 1e-9


def test_classical_oracle_examples():
    add = AdderSpec(base=2, digits_per_input=2, num_inputs=4, mode=Mode.ADD, inputs=(3, 2, 1, 2))
    assert classical_oracle(add) == 8
    zeros = AdderSpec(base=2, digits_per_input=2, num_inputs=4, mode=Mode.ADD, inputs=(0, 0, 0, 0))
    assert classical_oracle(zeros) == 0
    sub = AdderSpec(base=2, digits_per_input=2, num_inputs=2, mode=Mode.SUB, inputs=(1, 3))
    assert classical_oracle(sub) == 6


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_full_adder_matches_oracle_random(data):
    d = data.draw(st.integers(2, 4), label="base")
    n = data.draw(st.integers(1, 2), label="digits")
    max_inputs = 4 if d == 2 else 3
    count = data.draw(st.integers(1, max_inputs), label="inputs")
    t = required_ancillas(count, d)
    if t + (count + 1) * n > 10:  # keep the dense state small
        count = 2
        t = required_ancillas(count, d)
    values = tuple(
        data.draw(st.integers(0, d**n - 1), label=f"a{i}") for i in range(count)
    )
    mode = data.draw(st.sampled_from([Mode.ADD, Mode.SUB]), label="mode")
    spec = AdderSpec(
        base=d, digits_per_input=n, num_inputs=count, mode=mode, inputs=values
    )
    state = execute(build_full_adder(spec))
    assert result_probability(spec, state, classical_oracle(spec)) > 1 - 1e-9


def test_sum_never_overflows_capacity():
    for d in (2, 3, 4, 5):
        for n in (1, 2, 3):
            for count in (1, 2, 5, 9):
                t = required_ancillas(count, d)
                worst = count * (d**n - 1)
                assert worst < d ** (t + n)
