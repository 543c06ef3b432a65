import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qftadd import (
    DigitString,
    RegisterLayout,
    StateVector,
    basis_state,
    from_integer,
    parse_digit_text,
    to_integer,
    zero_state,
)


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


def test_register_layout_indexing():
    layout = RegisterLayout(2, (("anc", 2), ("a0", 2), ("a1", 2)))
    assert layout.total_qudits == 6
    assert layout.register_start(0) == 0
    assert layout.register_start(2) == 4
    assert list(layout.register_range(1)) == [2, 3]
    assert list(layout.register_named("a1")) == [4, 5]


def test_register_layout_zero_width_register():
    # one-input adders have no ancilla but keep the register slot
    layout = RegisterLayout(3, (("anc", 0), ("a0", 2)))
    assert layout.total_qudits == 2
    assert list(layout.register_range(0)) == []
    assert layout.register_start(1) == 0


def test_register_layout_duplicate_names():
    with pytest.raises(ValueError):
        RegisterLayout(2, (("a", 1), ("a", 2)))


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(2, 2, np.zeros(3))
    state = StateVector(2, 2, np.array([1, 0, 0, 0]))
    assert state.dim == 4
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
    # widening builds a new buffer and leaves the state's digits as they are
    wide = state.widened([1])
    assert wide.flags.writeable and np.array_equal(wide, full)
    assert state.widened([]) is state.dense
    assert state.digits == {1: 2} and state.dense.shape == (9,)


def test_basis_state_indexing():
    layout = RegisterLayout(2, (("anc", 2), ("a0", 2)))
    state = basis_state(layout, [DigitString(2, (0, 1)), DigitString(2, (1, 0))])
    # global digits 0,1,1,0 -> index 6, qudit 0 most significant
    assert np.argmax(np.abs(state.amplitudes)) == 6
    assert state.amplitudes[6] == 1


def test_basis_state_wrong_width():
    layout = RegisterLayout(2, (("anc", 1), ("a0", 1)))
    with pytest.raises(ValueError):
        basis_state(layout, [DigitString(2, (0, 0)), DigitString(2, (0,))])


def test_zero_state():
    layout = RegisterLayout(5, (("r", 3),))
    state = zero_state(layout)
    assert state.amplitudes[0] == 1
    assert np.count_nonzero(state.amplitudes) == 1
    assert state.dim == 125
