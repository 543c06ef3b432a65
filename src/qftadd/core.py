"""Qudit register primitives: digit strings and register layouts.

Conventions used throughout the package:

* Digit strings are most-significant-digit-first.  A classical register
  read out as ``1000`` in base 2 is the integer 8.
* Qudit 0 of a register stack is the most significant.  The global basis
  index of a computational-basis state is
  ``sum(digit[g] * d**(q - 1 - g) for g in range(q))``.

* A digit string's text is its digits in decimal, MSB first, with no
  separator up to base 10, where each digit is one character, and ``-``
  between digits above it.  ``DigitString.to_string``,
  ``parse_digit_text`` and the histogram keys all follow ``_separator``.

State vectors live in ``simulator``.  This module imports no numpy, so
neither does building, costing or exporting a circuit.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable

# Largest state that may be allocated: 2**26 complex128 amplitudes take
# 1 GiB, and a gate briefly holds two states.  Sizes are checked before
# any buffer exists, so an oversized request fails with a ValueError
# instead of exhausting memory.
MAX_AMPLITUDES = 2**26


def _show(value: object) -> str:
    """``repr(value)`` for an error message, except that an int past Python's
    limit on int text (4,300 decimal digits by default), alone or in a tuple
    or list, is written as its size, ``<16610-bit int>`` for ``10**5000``, so
    that the message still names its own cause.  Called only on a path that
    raises."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
        return f"({', '.join(map(_show, value))})"


def _below(value: int, base: int, width: int) -> bool:
    """``value < base**width`` for ``base >= 2`` and ``width >= 0``, with no
    power built past twice ``value``'s bits.  ``base**width`` is at least
    ``2**(width * (b - 1))``, where ``b`` is ``base.bit_length()``, so a
    value of at most that many bits is below it; a longer value has over
    half the power's at most ``width * b`` bits, and is compared with it.
    So a huge width costs nothing when ``value`` is small, where building
    ``3**(3 * 10**7)`` takes about 20 s (2-core VM, Python 3.11)."""
    return value.bit_length() <= width * (base.bit_length() - 1) or value < base**width


def _check_size(base: int, num_qudits: int) -> None:
    """Raise ValueError if ``base**num_qudits`` exceeds MAX_AMPLITUDES."""
    if _below(MAX_AMPLITUDES, base, num_qudits):
        d, n = _show(base), _show(num_qudits)
        raise ValueError(
            f"{n} base-{d} qudits need {d}**{n} amplitudes, over the limit of {MAX_AMPLITUDES}"
        )


@dataclass(frozen=True)
class DigitString:
    """An unsigned integer as base-d digits, most significant digit first."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", operator.index(self.base))
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {_show(self.base)}")
        object.__setattr__(self, "digits", tuple(map(operator.index, self.digits)))
        for dig in self.digits:
            if not 0 <= dig < self.base:
                raise ValueError(f"digit {_show(dig)} out of range for base {_show(self.base)}")

    @property
    def width(self) -> int:
        return len(self.digits)

    def to_string(self) -> str:
        """One character per digit for base <= 10, dash-separated above."""
        return _separator(self.base).join(map(str, self.digits))


def _separator(base: int) -> str:
    """The text between two digits of a base-``base`` digit string."""
    return "" if base <= 10 else "-"


def _digit_text(base: int, width: int) -> Callable[[int], str]:
    """The text of a value's ``width`` base-``base`` digits,
    ``from_integer(value, base, width).to_string()``, joined from digit texts
    each rendered on its first use by the returned function.

    The digit texts are kept because ``str`` per digit is most of the
    cost: 207,027 keys (d=2, width 20) take 0.47 s with them and 0.95 s
    with ``join(map(str, ...))`` (2-core VM, Python 3.11).  A dict, not a
    ``range(base)`` table, so a huge base costs only the digits used."""
    positions, join = range(width), _separator(base).join
    digits: dict[int, str] = {}

    def text(value: int) -> str:
        chars = []
        for _ in positions:  # LSB first
            value, rem = divmod(value, base)
            try:
                chars.append(digits[rem])
            except KeyError:
                chars.append(digits.setdefault(rem, str(rem)))
        chars.reverse()
        return join(chars)

    return text


def from_integer(value: int, base: int, width: int) -> DigitString:
    """Expand ``value`` into ``width`` base-``base`` digits, MSB first."""
    value, base, width = map(operator.index, (value, base, width))
    if base < 2:
        raise ValueError(f"base must be >= 2, got {_show(base)}")
    if width < 0:
        raise ValueError(f"width must be >= 0, got {_show(width)}")
    if value < 0:
        raise ValueError(f"value must be non-negative, got {_show(value)}")
    if not _below(value, base, width):
        raise ValueError(
            f"value {_show(value)} does not fit in {_show(width)} base-{_show(base)} digit(s)"
        )
    digits = []
    for _ in range(width):
        value, rem = divmod(value, base)
        digits.append(rem)
    return DigitString(base, tuple(reversed(digits)))


def parse_digit_text(text: str, base: int) -> DigitString:
    """Inverse of :meth:`DigitString.to_string` for the same base.

    The empty text is the width-0 string at any base.  Raises ValueError,
    quoting ``text``, unless each digit token is a run of ASCII decimal
    digits that ``int`` reads: not the empty token of ``"1--2"``, nor a
    sign, a space, an underscore or a non-ASCII digit, all of which ``int``
    accepts, nor a token past its limit on decimal digits (4,300 by
    default), which it refuses.
    """
    separator = _separator(base)
    tokens = text.split(separator) if separator and text else text
    try:
        if not text.isascii() or not all(map(str.isdigit, tokens)):
            raise ValueError
        digits = tuple(map(int, tokens))
    except ValueError:
        raise ValueError(f"malformed base-{_show(base)} digit text {text!r}") from None
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
            raise ValueError(f"base must be >= 2, got {_show(self.base)}")
        regs = []
        for name, size in self.registers:
            if not isinstance(name, str):
                raise TypeError(f"register name must be a str, got {_show(name)}")
            regs.append((str(name), operator.index(size)))
        object.__setattr__(self, "registers", tuple(regs))
        names = [name for name, _ in regs]
        if len(set(names)) != len(names):
            raise ValueError(f"register names must be unique, got {names}")
        for name, size in regs:
            if size < 0:
                raise ValueError(f"register {name!r} has negative size {_show(size)}")
        # plain attributes, not fields: each register's first qudit, then the width
        starts = tuple(itertools.accumulate((size for _, size in regs), initial=0))
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "total_qudits", starts[-1])

    def register_start(self, index: int) -> int:
        """Global index of the first qudit of register ``index``: for any int
        index, the sizes of ``registers[:index]`` summed, read from offsets
        the layout sums once when it is built."""
        return self._starts[len(range(len(self.registers))[:index])]

    def register_range(self, index: int) -> range:
        start = self.register_start(index)
        return range(start, start + self.registers[index][1])
