"""Qudit register primitives: digit strings and register layouts.

Conventions used throughout the package:

* Digit strings are most-significant-digit-first.  A classical register
  read out as ``1000`` in base 2 is the integer 8.
* Qudit 0 of a register stack is the most significant.  The global basis
  index of a computational-basis state is
  ``sum(digit[g] * d**(q - 1 - g) for g in range(q))``.

State vectors live in ``simulator``.  This module imports no numpy, so
neither does building, costing or exporting a circuit.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

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

    @functools.cached_property
    def total_qudits(self) -> int:
        """Summed once per layout: ``zero_state``, ``execute`` and ``Circuit``
        each read it, and adder layouts are shared per design."""
        return sum(size for _, size in self.registers)

    def register_start(self, index: int) -> int:
        """Global index of the first qudit of register ``index``."""
        return sum(size for _, size in self.registers[:index])

    def register_range(self, index: int) -> range:
        start = self.register_start(index)
        return range(start, start + self.registers[index][1])
