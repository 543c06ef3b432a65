"""Qudit register primitives: digit strings, register layouts, state vectors.

Conventions used throughout the package:

* Digit strings are most-significant-digit-first.  A classical register
  read out as ``1000`` in base 2 is the integer 8.
* Qudit 0 of a register stack is the most significant.  The global basis
  index of a computational-basis state is
  ``sum(digit[g] * d**(q - 1 - g) for g in range(q))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# Accumulated floating-point error over hundreds of gates stays well below
# this; a violation indicates a construction bug, not round-off.
NORM_ATOL = 1e-9

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
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        object.__setattr__(self, "digits", tuple(int(x) for x in self.digits))
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
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        regs = tuple((str(name), int(size)) for name, size in self.registers)
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

    def register_named(self, name: str) -> range:
        for i, (reg_name, _) in enumerate(self.registers):
            if reg_name == name:
                return self.register_range(i)
        raise KeyError(f"no register named {name!r}")


@dataclass
class StateVector:
    """A state of ``num_qudits`` base-``base`` qudits, some of them known digits.

    ``digits`` maps each qudit held in a known computational-basis level
    to that level; ``dense`` holds the ``base**(num_qudits - len(digits))``
    amplitudes of the other qudits, in increasing qudit order.  The full
    state is their tensor product.  With no digits, ``dense`` is the whole
    state.

    ``amplitudes`` is the full ``base**num_qudits`` vector.  With digits,
    each read builds it anew with :meth:`widened`, and returns it
    read-only.
    """

    base: int
    num_qudits: int
    dense: np.ndarray = field(repr=False)
    digits: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        self.digits = {int(qi): int(level) for qi, level in self.digits.items()}
        for qi, level in self.digits.items():
            if not 0 <= qi < self.num_qudits:
                raise ValueError(f"digit qudit {qi} out of range for {self.num_qudits}")
            if not 0 <= level < self.base:
                raise ValueError(f"digit {level} out of range for base {self.base}")
        self.dense = np.asarray(self.dense, dtype=np.complex128).reshape(-1)
        free = self.num_qudits - len(self.digits)
        if self.dense.shape[0] != self.base**free:
            raise ValueError(
                f"expected {self.base**free} amplitudes for {free} "
                f"base-{self.base} qudits, got {self.dense.shape[0]}"
            )

    @property
    def amplitudes(self) -> np.ndarray:
        if not self.digits:
            return self.dense
        full = self.widened(self.digits)
        full.flags.writeable = False
        return full

    def widened(self, qudits: Iterable[int]) -> np.ndarray:
        """The dense buffer widened by the digit qudits ``qudits``, each at its digit.

        With no ``qudits`` this is ``dense`` itself; otherwise a new buffer,
        whose size is checked against ``MAX_AMPLITUDES`` before allocating.
        """
        d, placed = self.base, {qi: self.digits[qi] for qi in qudits}
        if not placed:
            return self.dense
        kept = [qi for qi in range(self.num_qudits) if qi in placed or qi not in self.digits]
        _check_size(d, len(kept))
        full = np.zeros((d,) * len(kept), dtype=np.complex128)
        index = tuple(placed.get(qi, slice(None)) for qi in kept)
        full[index] = self.dense.reshape((d,) * (len(kept) - len(placed)))
        return full.reshape(-1)

    @property
    def dim(self) -> int:
        return self.base**self.num_qudits

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm_error(self) -> float:
        """Absolute deviation of the squared-magnitude sum from 1."""
        return abs(float(np.sum(np.abs(self.dense) ** 2)) - 1.0)

    def copy(self) -> "StateVector":
        return StateVector(self.base, self.num_qudits, self.dense.copy(), self.digits)


def basis_state(layout: RegisterLayout, register_digits: list[DigitString]) -> StateVector:
    """Computational-basis state with one digit string per layout register."""
    if len(register_digits) != len(layout.registers):
        raise ValueError(
            f"layout has {len(layout.registers)} register(s), "
            f"got {len(register_digits)} digit string(s)"
        )
    index = 0
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
        for dig in ds.digits:
            index = index * layout.base + dig
    q = layout.total_qudits
    _check_size(layout.base, q)
    amplitudes = np.zeros(layout.base**q, dtype=np.complex128)
    amplitudes[index] = 1.0
    return StateVector(layout.base, q, amplitudes)


def zero_state(layout: RegisterLayout) -> StateVector:
    """All-zero computational-basis state for ``layout``."""
    zeros = [
        DigitString(layout.base, (0,) * size) for _, size in layout.registers
    ]
    return basis_state(layout, zeros)
