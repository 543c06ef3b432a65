"""Qudit register primitives: digit strings, register layouts, state vectors.

Conventions used throughout the package:

* Digit strings are most-significant-digit-first.  A classical register
  read out as ``1000`` in base 2 is the integer 8.
* Qudit 0 of a register stack is the most significant.  The global basis
  index of a computational-basis state is
  ``sum(digit[g] * d**(q - 1 - g) for g in range(q))``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

# Largest state that may be allocated: 2**26 complex128 amplitudes take
# 1 GiB, and a gate briefly holds two states.  Sizes are checked before
# any buffer exists, so an oversized request fails with a ValueError
# instead of exhausting memory.
MAX_AMPLITUDES = 2**26


def _check_size(base: int, num_qudits: int) -> None:
    """Raise ValueError if ``base**num_qudits`` exceeds MAX_AMPLITUDES."""
    if base**num_qudits > MAX_AMPLITUDES:
        raise ValueError(
            f"{num_qudits} base-{base} qudits need {base}**{num_qudits} "
            f"amplitudes, over the limit of {MAX_AMPLITUDES}"
        )


@dataclass(frozen=True)
class DigitString:
    """An unsigned integer as base-d digits, most significant digit first."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", operator.index(self.base))
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        object.__setattr__(self, "digits", tuple(map(operator.index, self.digits)))
        for dig in self.digits:
            if not 0 <= dig < self.base:
                raise ValueError(f"digit {dig} out of range for base {self.base}")

    @property
    def width(self) -> int:
        return len(self.digits)

    def to_string(self) -> str:
        """One character per digit for base <= 10, dash-separated above."""
        if self.base <= 10:
            return "".join(str(dig) for dig in self.digits)
        return "-".join(str(dig) for dig in self.digits)


def from_integer(value: int, base: int, width: int) -> DigitString:
    """Expand ``value`` into ``width`` base-``base`` digits, MSB first."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if width < 0:
        raise ValueError(f"width must be >= 0, got {width}")
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if value >= base**width:
        raise ValueError(
            f"value {value} does not fit in {width} base-{base} digit(s)"
        )
    digits = []
    for _ in range(width):
        value, rem = divmod(value, base)
        digits.append(rem)
    return DigitString(base, tuple(reversed(digits)))


def parse_digit_text(text: str, base: int) -> DigitString:
    """Inverse of :meth:`DigitString.to_string` for the same base."""
    if base <= 10:
        digits = tuple(int(ch) for ch in text)
    else:
        digits = tuple(int(part) for part in text.split("-"))
    return DigitString(base, digits)


def to_integer(digit_string: DigitString) -> int:
    """Inverse of :func:`from_integer`."""
    value = 0
    for dig in digit_string.digits:
        value = value * digit_string.base + dig
    return value


@dataclass(frozen=True)
class RegisterLayout:
    """Named qudit registers packed side by side.

    Register order fixes the global qudit indices: the first register
    occupies indices ``0..size0-1`` (the most significant positions), the
    next register follows, and so on.  Zero-width registers are allowed so
    that structural slots (e.g. an ancilla block that happens to be empty)
    keep their position.
    """

    base: int
    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", operator.index(self.base))
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        regs = tuple((str(name), operator.index(size)) for name, size in self.registers)
        object.__setattr__(self, "registers", regs)
        names = [name for name, _ in regs]
        if len(set(names)) != len(names):
            raise ValueError(f"register names must be unique, got {names}")
        for name, size in regs:
            if size < 0:
                raise ValueError(f"register {name!r} has negative size {size}")

    @property
    def total_qudits(self) -> int:
        return sum(size for _, size in self.registers)

    def register_start(self, index: int) -> int:
        """Global index of the first qudit of register ``index``."""
        return sum(size for _, size in self.registers[:index])

    def register_range(self, index: int) -> range:
        start = self.register_start(index)
        return range(start, start + self.registers[index][1])


@dataclass
class StateVector:
    """A state of ``num_qudits`` base-``base`` qudits, some of them known digits.

    ``digits`` maps each qudit held in a known computational-basis level
    to that level; ``dense`` holds the ``base**(num_qudits - len(digits))``
    amplitudes of the other qudits, in increasing qudit order.  The full
    state is their tensor product.  With no digits, ``dense`` is the whole
    state.  The state takes a copy of the ``dense`` it is given.

    ``amplitudes`` is the full ``base**num_qudits`` vector.  With digits,
    each read builds it anew with :meth:`widened`, and returns it
    read-only.  ``execute`` may hold further qudits as factors while it
    runs, but a state it returns has only digits and a dense part.
    """

    base: int
    num_qudits: int
    dense: np.ndarray = field(repr=False)
    digits: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.base, self.num_qudits = operator.index(self.base), operator.index(self.num_qudits)
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        self.digits = {
            operator.index(qi): operator.index(level) for qi, level in self.digits.items()
        }
        for qi, level in self.digits.items():
            if not 0 <= qi < self.num_qudits:
                raise ValueError(f"digit qudit {qi} out of range for {self.num_qudits}")
            if not 0 <= level < self.base:
                raise ValueError(f"digit {level} out of range for base {self.base}")
        # its own writable copy: the caller's array may be read-only, or another state's
        self.dense = np.array(self.dense, dtype=np.complex128).reshape(-1)
        free = self.num_qudits - len(self.digits)
        if self.dense.shape[0] != self.base**free:
            raise ValueError(
                f"expected {self.base**free} amplitudes for {free} "
                f"base-{self.base} qudits, got {self.dense.shape[0]}"
            )
        if not np.isfinite(self.dense).all():
            raise ValueError("amplitudes must be finite, got NaN or infinity")

    @property
    def amplitudes(self) -> np.ndarray:
        full = self.widened()
        if self.digits:
            full.flags.writeable = False
        return full

    def widened(self) -> np.ndarray:
        """The full ``base**num_qudits`` vector, each digit qudit at its digit.

        With no digits this is ``dense`` itself; otherwise a new buffer,
        whose size is checked against ``MAX_AMPLITUDES`` before allocating.
        """
        d, q = self.base, self.num_qudits
        if not self.digits:
            return self.dense
        _check_size(d, q)
        full = np.zeros((d,) * q, dtype=np.complex128)
        index = tuple(self.digits.get(qi, slice(None)) for qi in range(q))
        full[index] = self.dense.reshape((d,) * (q - len(self.digits)))
        return full.reshape(-1)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm_error(self) -> float:
        """Absolute deviation of the squared-magnitude sum from 1."""
        return abs(_weight(self.dense) - 1.0)


def _weight(dense: np.ndarray) -> float:
    """The sum of squared magnitudes; one amplitude is read without numpy."""
    if dense.size == 1:
        return abs(complex(dense[0])) ** 2
    return float(np.sum(np.abs(dense) ** 2))


def basis_state(layout: RegisterLayout, register_digits: list[DigitString]) -> StateVector:
    """Computational-basis state with one digit string per layout register.

    Held as its digits and a one-amplitude dense part: it allocates nothing.
    """
    if len(register_digits) != len(layout.registers):
        raise ValueError(
            f"layout has {len(layout.registers)} register(s), "
            f"got {len(register_digits)} digit string(s)"
        )
    for (name, size), ds in zip(layout.registers, register_digits):
        if ds.base != layout.base:
            raise ValueError(
                f"digit string for register {name!r} has base {ds.base}, "
                f"layout has base {layout.base}"
            )
        if ds.width != size:
            raise ValueError(
                f"register {name!r} holds {size} qudit(s), "
                f"got a width-{ds.width} digit string"
            )
    digits = [dig for ds in register_digits for dig in ds.digits]
    return StateVector(layout.base, len(digits), np.ones(1), dict(enumerate(digits)))


def zero_state(layout: RegisterLayout) -> StateVector:
    """All-zero computational-basis state for ``layout``, held as digits.

    Built without the constructor's checks, from digits it makes itself.
    """
    q = layout.total_qudits
    state = object.__new__(StateVector)
    state.base, state.num_qudits = layout.base, q
    state.dense, state.digits = np.ones(1, dtype=np.complex128), dict.fromkeys(range(q), 0)
    return state
