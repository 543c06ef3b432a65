import dataclasses
import pickle
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qftadd import (
    AdderSpec,
    Circuit,
    DigitString,
    GateKind,
    GateOp,
    Histogram,
    Mode,
    NoiseConfig,
    RegisterLayout,
    StateVector,
    basis_state,
    build_qft,
    capacity,
    execute,
    from_integer,
    gate_count_formula,
    measure,
    parse_digit_text,
    required_ancillas,
    resource_report,
    sweep,
    to_integer,
    zero_state,
)
from qftadd.core import _below

_PAIR = zero_state(RegisterLayout(2, (("r", 2),)))

# each takes one integer argument, valid at 1
_INTEGER_ARGUMENTS = {
    "AdderSpec base": lambda x: AdderSpec(x + 1, 2, 2, Mode.ADD, (1, 1)),
    "AdderSpec digits_per_input": lambda x: AdderSpec(2, x, 2, Mode.ADD, (1, 1)),
    "AdderSpec num_inputs": lambda x: AdderSpec(2, 2, x, Mode.ADD, (1,)),
    "AdderSpec inputs": lambda x: AdderSpec(2, 2, 2, Mode.ADD, (x, 1)),
    "required_ancillas num_inputs": lambda x: required_ancillas(x + 1, 2),
    "required_ancillas base": lambda x: required_ancillas(3, x + 1),
    "gate_count_formula n": lambda x: gate_count_formula(x, 2, 1),
    "gate_count_formula N": lambda x: gate_count_formula(1, x, 1),
    "gate_count_formula t": lambda x: gate_count_formula(1, 2, x),
    "capacity n": lambda x: capacity(x, 0, 2),
    "capacity t": lambda x: capacity(1, x, 2),
    "capacity d": lambda x: capacity(1, 0, x + 1),
    "resource_report base": lambda x: resource_report(x + 1, 2, 2),
    "resource_report digits_per_input": lambda x: resource_report(2, x, 2),
    "resource_report num_inputs": lambda x: resource_report(2, 2, x + 1),
    "sweep bases": lambda x: sweep([x + 1], 16),
    "sweep max_capacity": lambda x: sweep([2], 16 * x),
    "from_integer value": lambda x: from_integer(x, 2, 2),
    "from_integer base": lambda x: from_integer(3, x + 1, 2),
    "from_integer width": lambda x: from_integer(3, 2, 3 - x),  # 3 fits in 2 digits, not in 1.5
    "DigitString base": lambda x: DigitString(x + 1, (1, 0)),
    "DigitString digits": lambda x: DigitString(2, (x, 0)),
    "Histogram base": lambda x: Histogram(x + 1, 1, {1: 3}),
    "Histogram width": lambda x: Histogram(2, x, {1: 3}),
    "GateOp qudits": lambda x: GateOp(GateKind.SHIFT, (x,), k=1),
    "GateOp k": lambda x: GateOp(GateKind.SHIFT, (0,), k=x),
    "build_qft targets": lambda x: build_qft(RegisterLayout(2, (("r", 3),)), [x, 2]),
    "RegisterLayout base": lambda x: RegisterLayout(x + 1, (("r", 1),)),
    "RegisterLayout size": lambda x: RegisterLayout(2, (("r", x),)),
    "StateVector base": lambda x: StateVector(x + 1, 1, [1, 0]),
    "StateVector num_qudits": lambda x: StateVector(2, x, [1, 0]),
    "StateVector digit qudit": lambda x: StateVector(2, 2, [1, 0], {x: 0}),
    "StateVector digit level": lambda x: StateVector(2, 2, [1, 0], {0: x}),
    "measure qudits": lambda x: measure(_PAIR, [x], 4),
    "measure shots": lambda x: measure(_PAIR, [0], x),
    "NoiseConfig seed": lambda x: NoiseConfig(seed=x),
}


def test_digit_string_basics():
    ds = DigitString(2, (1, 0, 0, 0))
    assert ds.width == 4
    assert ds.to_string() == "1000"
    assert to_integer(ds) == 8


def test_digit_string_rejects_out_of_range():
    with pytest.raises(ValueError):
        DigitString(2, (0, 2))
    with pytest.raises(ValueError):
        DigitString(1, (0,))
    with pytest.raises(ValueError):
        DigitString(4, (-1,))


def test_from_integer_msb_first():
    assert from_integer(8, 2, 4).digits == (1, 0, 0, 0)
    assert from_integer(8, 4, 2).digits == (2, 0)
    assert from_integer(0, 3, 3).digits == (0, 0, 0)


def test_from_integer_overflow():
    with pytest.raises(ValueError):
        from_integer(4, 2, 2)
    with pytest.raises(ValueError):
        from_integer(-1, 2, 4)
    with pytest.raises(ValueError, match="base must be >= 2, got 1"):
        from_integer(0, 1, 2)
    with pytest.raises(ValueError, match="width must be >= 0, got -1"):
        from_integer(0, 2, -1)
    # the bound is exact where base**width has the value's bits or twice them
    assert from_integer(3**40 - 1, 3, 40).digits == (2,) * 40
    with pytest.raises(ValueError, match="does not fit in 40 base-3 digit"):
        from_integer(3**40, 3, 40)


_HUGE = 10**5000  # 5,001 decimal digits, past Python's 4,300-digit limit on int text


@pytest.mark.parametrize(
    "call, cause",
    [
        (lambda: from_integer(_HUGE, 10, 5000), "value <16610-bit int> does not fit in 5000 base-10"),
        (lambda: AdderSpec(10, 3, 1, Mode.ADD, (_HUGE,)), r"is <16610-bit int>, must be in [0, 10**3)"),
        (lambda: Histogram(10, 3, {_HUGE: 1}), "outcome <16610-bit int> out of range [0, 10**3)"),
        (lambda: DigitString(10, (_HUGE,)), "digit <16610-bit int> out of range for base 10"),
        (lambda: StateVector(2, 1, np.array([1, 0j]), {0: _HUGE}), "digit <16610-bit int> out of range"),
        (lambda: NoiseConfig(0.0, _HUGE), "seed must fit in 64 unsigned bits, got <16610-bit int>"),
        (lambda: NoiseConfig(_HUGE), "must be in [0,1], got <16610-bit int>"),
        (lambda: RegisterLayout(2, (("a", -_HUGE),)), "'a' has negative size -<16610-bit int>"),
        (lambda: RegisterLayout(2, ((_HUGE, 1),)), "register name must be a str, got <16610-bit int>"),
        (lambda: RegisterLayout(2, ((5, 1),)), "register name must be a str, got 5"),
        (lambda: GateOp(GateKind.SHIFT, (0,), k=-_HUGE), "non-negative, got -<16610-bit int>"),
        (lambda: GateOp(GateKind.CPHASE, (0, 1), theta=_HUGE), "theta must be finite, got <16610-bit int>"),
        (lambda: GateOp(GateKind.SWAP, (_HUGE, _HUGE)), "distinct, got (<16610-bit int>, <16610-bit int>)"),
        (lambda: measure(_PAIR, [_HUGE], 1), "qudit <16610-bit int> out of range for 2"),
        (lambda: measure(_PAIR, [0], _HUGE), "<16610-bit int> shots of 1 digit(s) need <16610-bit int>"),
        (lambda: sweep([2], -_HUGE), "max_capacity must be >= 1, got -<16610-bit int>"),
        (lambda: sweep([2], _HUGE), "the sweep has <16609-bit int> rows"),
        (lambda: required_ancillas(-_HUGE, 2), "num_inputs must be >= 1, got -<16610-bit int>"),
        (lambda: capacity(-_HUGE, 1, 2), "invalid sizes n=-<16610-bit int>, t=1, d=2"),
        (lambda: gate_count_formula(-_HUGE, 1, 1), "digits_per_input must be >= 1, got -<16610-bit int>"),
        (lambda: StateVector(_HUGE, 1, np.ones(3)), "expected <16610-bit int>**1 amplitudes"),
    ],
)
def test_a_message_names_its_cause_past_the_limit_on_int_text(call, cause):
    # an int past the limit is written as its size, not left to str(),
    # whose own ValueError would hide the cause
    with pytest.raises((ValueError, IndexError, TypeError)) as raised:
        call()
    message = str(raised.value)
    assert cause in message and "Exceeds the limit" not in message, message


@pytest.mark.parametrize("base", [2, 3, 4, 7, 8, 10, 16, 255, 256, 257, 2**64 + 13])
def test_below_is_value_under_the_power(base):
    for width in range(7):
        power = base**width
        for value in (-power - 1, -1, 0, 1, power - 1, power, power + 1, 2 * power, power**2):
            assert _below(value, base, width) == (value < power), (value, width)


def test_a_huge_width_builds_no_power():
    # at 10**6 digits, 3**10**6 alone takes 198 KB; each check, the error
    # message included, stays far under it, and a power past Python's
    # 4,300-digit limit on int text is written as base**width
    cases = [
        (lambda: AdderSpec(3, 10**6, 1, Mode.ADD, (1,)), None),
        (lambda: AdderSpec(3, 10**6, 2, Mode.ADD, (1, -1)), r"input 1 is -1, must be in \[0, 3\*\*1000000\)"),
        (lambda: Histogram(3, 10**6, {5: 2}), None),
        (lambda: Histogram(3, 10**6, {-1: 1}), r"outcome -1 out of range \[0, 3\*\*1000000\)"),
        (lambda: StateVector(3, 10**6, np.ones(1)), r"expected 3\*\*1000000 amplitudes"),
    ]
    for call, message in cases:
        tracemalloc.start()
        try:
            if message is None:
                call()
            else:
                with pytest.raises(ValueError, match=message):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, (message, peak)
    # the repros at widths whose power has over 4,300 decimal digits
    with pytest.raises(ValueError, match=r"must be in \[0, 10\*\*5000\) for 5000 base-10 digits"):
        AdderSpec(10, 5000, 1, Mode.ADD, (-1,))
    with pytest.raises(ValueError, match=r"expected 3\*\*10000 amplitudes for 10000 base-3 qudits, got 1"):
        StateVector(3, 10**4, np.ones(1))
    with pytest.raises(ValueError, match=r"outcome -1 out of range \[0, 10\*\*5000\)"):
        Histogram(10, 5000, {-1: 1})


@given(st.integers(2, 16), st.integers(1, 12), st.data())
def test_round_trip(base, width, data):
    value = data.draw(st.integers(0, base**width - 1))
    ds = from_integer(value, base, width)
    assert ds.width == width
    assert to_integer(ds) == value
    assert parse_digit_text(ds.to_string(), base) == ds


def test_parse_digit_text_wide_base():
    # bases above ten use dash-separated digits
    ds = DigitString(12, (11, 0, 3))
    assert ds.to_string() == "11-0-3"
    assert parse_digit_text("11-0-3", 12) == ds


@pytest.mark.parametrize("base", [2, 10, 11, 37])
def test_round_trip_at_width_zero(base):
    # the empty text is the width-0 string on both sides of the separator rule
    ds = from_integer(0, base, 0)
    assert ds.to_string() == ""
    assert parse_digit_text("", base) == ds == DigitString(base, ())


@pytest.mark.parametrize(
    "text, base",
    [
        ("1--2", 12), ("-1", 12), ("1-", 12), ("1-x", 37), ("1-2", 10), ("1x", 2),
        # tokens int() reads, but no digit text: an underscore, a space and a
        # sign, and a non-ASCII decimal digit
        ("1_0-3", 12), (" 1-+2", 12), ("\u0663", 10),
        # a token past int()'s 4,300-digit limit on decimal text
        pytest.param("1" * 5000 + "-2", 12, id="5000 ones-2-12"),
    ],
)
def test_parse_digit_text_quotes_a_malformed_text(text, base):
    with pytest.raises(ValueError, match=re.escape(f"digit text {text!r}")):
        parse_digit_text(text, base)


@pytest.mark.parametrize("name", list(_INTEGER_ARGUMENTS))
def test_integer_arguments_reject_floats(name):
    build = _INTEGER_ARGUMENTS[name]
    build(np.int64(1))  # numpy integers pass
    with pytest.raises(TypeError):
        build(1.5)  # not truncated to 1


def test_register_layout_indexing():
    layout = RegisterLayout(2, (("anc", 2), ("a0", 2), ("a1", 2)))
    assert layout.total_qudits == 6
    assert layout.register_start(0) == 0
    assert layout.register_start(2) == 4
    assert list(layout.register_range(1)) == [2, 3]


def test_register_layout_zero_width_register():
    # one-input adders have no ancilla but keep the register slot
    layout = RegisterLayout(3, (("anc", 0), ("a0", 2)))
    assert layout.total_qudits == 2
    assert list(layout.register_range(0)) == []
    assert layout.register_start(1) == 0


def test_register_start_sums_the_sizes_before_any_index():
    sizes = [0, 3, 0, 0, 2, 5, 0, 1]
    layout = RegisterLayout(2, tuple((f"r{i}", size) for i, size in enumerate(sizes)))
    R = len(sizes)
    for i in range(-R - 2, R + 3):  # negative and past-the-end, as a slice reads them
        assert layout.register_start(i) == sum(sizes[:i]), i


def test_register_offsets_are_summed_once():
    # summed per call, the offsets of 20,001 registers took seconds to read
    registers = (("anc", 0), *((f"a{i}", 3) for i in range(20000)))
    start = time.perf_counter()
    layout = RegisterLayout(2, registers)
    starts = [layout.register_start(i) for i in range(len(registers))]
    ranges = [layout.register_range(i) for i in range(len(registers))]
    elapsed = time.perf_counter() - start
    assert starts == [0, *range(0, 60000, 3)] and ranges[-1] == range(59997, 60000)
    assert layout.total_qudits == 60000
    assert elapsed < 1, elapsed


def test_register_layout_width_is_cached_without_changing_the_dataclass():
    def observe(layout):
        copy = pickle.loads(pickle.dumps(layout))
        wider = dataclasses.replace(layout, registers=(("x", 4),))
        return (
            layout == RegisterLayout(3, (("anc", 1), ("a0", 2))),
            hash(layout),
            repr(layout),
            [f.name for f in dataclasses.fields(layout)],
            (copy, hash(copy), copy.total_qudits),
            (dataclasses.replace(layout), dataclasses.replace(layout, base=5)),
            (wider, wider.total_qudits),
        )

    layout = RegisterLayout(3, (("anc", 1), ("a0", 2)))
    before = observe(layout)
    assert layout.total_qudits == 3
    assert observe(layout) == before
    assert before[-1][1] == 4  # a replaced layout sums its own registers
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.total_qudits = 7


def test_register_layout_duplicate_names():
    with pytest.raises(ValueError):
        RegisterLayout(2, (("a", 1), ("a", 2)))
    with pytest.raises(ValueError, match="base must be >= 2, got 1"):
        RegisterLayout(1, (("a", 1),))
    with pytest.raises(ValueError, match="register 'b' has negative size -1"):
        RegisterLayout(2, (("a", 1), ("b", -1)))


def test_state_vector_validation():
    with pytest.raises(ValueError, match=r"expected 2\*\*2 amplitudes for 2 base-2 qudits, got 3"):
        StateVector(2, 2, np.zeros(3))
    for size in (0, 1, 5, 8):
        with pytest.raises(ValueError, match=f"got {size}$"):
            StateVector(2, 2, np.ones(size))
    with pytest.raises(ValueError, match="base must be >= 2, got 1"):
        StateVector(1, 2, np.ones(1))
    state = StateVector(2, 2, np.array([1, 0, 0, 0]))
    assert state.dense.size == 4
    assert state.norm_error() < 1e-12


def test_state_vector_with_digits():
    # three base-3 qudits: qudit 1 holds digit 2, qudits 0 and 2 are dense
    dense = np.zeros(9)
    dense[1 * 3 + 1] = 1  # qudits 0 and 2 at level 1
    state = StateVector(3, 3, dense, {1: 2})
    assert state.norm_error() < 1e-12
    full = state.amplitudes
    assert full.shape == (27,) and not full.flags.writeable
    assert full[1 * 9 + 2 * 3 + 1] == 1 and np.count_nonzero(full) == 1
    assert state.probabilities()[1 * 9 + 2 * 3 + 1] == 1
    with pytest.raises(ValueError):
        StateVector(3, 3, np.zeros(27), {1: 2})  # dense part sized for 3 qudits
    with pytest.raises(ValueError):
        StateVector(3, 3, dense, {3: 0})
    with pytest.raises(ValueError):
        StateVector(3, 3, dense, {1: 3})
    # each read builds a new buffer and leaves the state's digits as they are
    wide = state.amplitudes
    assert wide is not full and np.array_equal(wide, full)
    assert state.digits == {1: 2} and state.dense.shape == (9,)


def test_state_vector_from_read_only_amplitudes_runs():
    # a state with digits hands out its full vector read-only
    layout = RegisterLayout(2, (("r", 2),))
    source = zero_state(layout).amplitudes
    assert not source.flags.writeable
    state = StateVector(2, 2, source)
    phased = execute(Circuit(2, layout, (GateOp(GateKind.CPHASE, (0, 1), theta=0.5),)), state)
    assert phased.dense.flags.writeable
    assert np.array_equal(phased.dense, [1, 0, 0, 0])
    # and one without digits, whose full vector is a view of its dense part:
    # a write through it would change the state behind its norm check
    plain = StateVector(2, 1, np.array([1, 0j]))
    with pytest.raises(ValueError, match="read-only"):
        plain.amplitudes[0] = 5
    assert np.array_equal(plain.dense, [1, 0]) and plain.norm_error() == 0.0


def test_state_vector_shares_no_buffer_with_its_source():
    layout = RegisterLayout(2, (("r", 2),))
    other = StateVector(2, 2, np.array([0, 0, 0, 1]))  # no digits: amplitudes is dense
    twin = StateVector(2, 2, other.amplitudes)
    assert not np.shares_memory(twin.dense, other.dense)
    execute(Circuit(2, layout, (GateOp(GateKind.CPHASE, (0, 1), theta=np.pi),)), twin)
    assert np.allclose(twin.dense, [0, 0, 0, -1])
    assert np.array_equal(other.dense, [0, 0, 0, 1])


def test_basis_state_indexing():
    layout = RegisterLayout(2, (("anc", 2), ("a0", 2)))
    state = basis_state(layout, [DigitString(2, (0, 1)), DigitString(2, (1, 0))])
    # held as its digits, one per qudit, and one amplitude
    assert state.digits == {0: 0, 1: 1, 2: 1, 3: 0} and state.dense.size == 1
    # global digits 0,1,1,0 -> index 6, qudit 0 most significant
    assert np.argmax(np.abs(state.amplitudes)) == 6
    assert state.amplitudes[6] == 1


def test_basis_state_wrong_width():
    layout = RegisterLayout(2, (("anc", 1), ("a0", 1)))
    with pytest.raises(ValueError):
        basis_state(layout, [DigitString(2, (0, 0)), DigitString(2, (0,))])
    with pytest.raises(ValueError, match="layout has 2 register"):
        basis_state(layout, [DigitString(2, (0,))])
    with pytest.raises(ValueError, match="'anc' has base 3, layout has base 2"):
        basis_state(layout, [DigitString(3, (0,)), DigitString(2, (0,))])


def test_zero_state():
    layout = RegisterLayout(5, (("r", 3),))
    state = zero_state(layout)
    assert state.digits == {0: 0, 1: 0, 2: 0} and state.dense.size == 1
    assert state.amplitudes[0] == 1
    assert np.count_nonzero(state.amplitudes) == 1
    assert state.amplitudes.size == 125
