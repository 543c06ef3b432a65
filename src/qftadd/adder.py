"""N-input, n-digit adder and subtractor circuits in the Fourier basis.

Layout convention: one ancilla register of t qudits, then N input
registers of n qudits each, all MSB first.  The ancilla plus the first
input register form the Fourier span (qudits 0..t+n-1); inputs 1..N-1
are added into (or subtracted from) it via controlled-phase fans, then
stay untouched in the computational basis.  t is sized so the N-way sum
never overflows the span.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

from .circuit import Circuit, GateKind, GateOp, _qft_ladder
from .core import RegisterLayout


class Mode(Enum):
    ADD = "add"
    SUB = "sub"

    @property
    def sign(self) -> int:
        return 1 if self is Mode.ADD else -1


def required_ancillas(num_inputs: int, base: int) -> int:
    """Smallest t with base**t >= num_inputs, exactly.

    t extra carry qudits guarantee the sum of num_inputs values below
    base**n fits in t+n digits.  Computed by integer search, never via
    floating-point logarithms.
    """
    num_inputs, base = operator.index(num_inputs), operator.index(base)
    if num_inputs < 1:
        raise ValueError(f"num_inputs must be >= 1, got {num_inputs}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    t = 0
    power = 1
    while power < num_inputs:
        t += 1
        power *= base
    return t


def adder_layout(base: int, digits_per_input: int, num_inputs: int) -> RegisterLayout:
    """Ancilla register "anc" (possibly width 0) then inputs "a0".."a{N-1}"."""
    t = required_ancillas(num_inputs, base)
    registers = [("anc", t)]
    registers += [(f"a{i}", digits_per_input) for i in range(num_inputs)]
    return RegisterLayout(base, tuple(registers))


@dataclass(frozen=True)
class AdderSpec:
    """Problem statement for one adder/subtractor instance."""

    base: int
    digits_per_input: int
    num_inputs: int
    mode: Mode
    inputs: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("base", "digits_per_input", "num_inputs"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "inputs", tuple(map(operator.index, self.inputs)))
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.digits_per_input < 1:
            raise ValueError(
                f"digits_per_input must be >= 1, got {self.digits_per_input}"
            )
        if self.num_inputs < 1:
            raise ValueError(f"num_inputs must be >= 1, got {self.num_inputs}")
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")
        if len(self.inputs) != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} inputs, got {len(self.inputs)}"
            )
        limit = self.base**self.digits_per_input
        for i, value in enumerate(self.inputs):
            if not 0 <= value < limit:
                raise ValueError(
                    f"input {i} is {value}, must be in [0, {limit}) for "
                    f"{self.digits_per_input} base-{self.base} digits"
                )

    @property
    def ancillas(self) -> int:
        return required_ancillas(self.num_inputs, self.base)

    @property
    def result_width(self) -> int:
        """Width of the measured output register: ancillas + one input."""
        return self.ancillas + self.digits_per_input

    @property
    def layout(self) -> RegisterLayout:
        return adder_layout(self.base, self.digits_per_input, self.num_inputs)


def _fan(d: int, q_f: int, source: range, sign: int) -> list[GateOp]:
    """The CPHASE fan adding the digits on ``source`` into span qudits 0..q_f-1."""
    width = len(source)
    ops = []
    for offset, control in enumerate(source):
        j = width - 1 - offset
        for l in range(j + 1, q_f + 1):
            theta = sign * 2.0 * math.pi * d ** (j - l)
            ops.append(GateOp(GateKind.CPHASE, (control, l - 1), theta=theta))
    return ops


# One entry costs about 200 B per op: the fans of (2,16,64) are 14,616 ops,
# about 3.0 MB traced.
@functools.lru_cache(maxsize=128)
def _design_fans(d: int, n: int, num_inputs: int, sign: int) -> tuple[GateOp, ...]:
    """The fans of registers 2..num_inputs of one adder design, in order.

    Each fan holds ``n*t + n*(n+1)//2`` ops.  Cached per design, so every
    adder of one design holds the same ``GateOp`` objects; at most 128
    designs' fans are kept.
    """
    layout = adder_layout(d, n, num_inputs)
    q_f = layout.register_start(2)
    ops: list[GateOp] = []
    for register in range(2, num_inputs + 1):
        ops.extend(_fan(d, q_f, layout.register_range(register), sign))
    return tuple(ops)


def build_adder_component(
    layout: RegisterLayout, source_register: int, sign: int
) -> Circuit:
    """Phase fan adding one source register into the Fourier span.

    The span (registers 0 and 1, global qudits 0..q_F-1) is assumed to
    hold a Fourier-encoded value.  The source digit of weight d**j
    controls a phase sign*2*pi*d**(j-l) on span position l (1-based from
    the MSB) for l = j+1..q_F; shallower positions would only pick up
    whole multiples of 2*pi.  Gate count: sum over j of (q_F - j).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not 0 <= source_register < len(layout.registers):
        raise IndexError(f"no register {source_register} in layout")
    if source_register in (0, 1):
        raise ValueError(
            "source register overlaps the Fourier span (registers 0 and 1)"
        )
    source = layout.register_range(source_register)
    if len(source) == 0:
        raise ValueError(f"source register {source_register} is empty")
    ops = _fan(layout.base, layout.register_start(2), source, sign)
    return Circuit(layout.base, layout, tuple(ops))


# One entry per (qudit, level) in use, about 310 B each: 4096 (1.3 MB) fits
# every benchmarked layout, whose workloads use at most about 750.
@functools.lru_cache(maxsize=4096)
def _shift(qudit: int, k: int) -> GateOp:
    """The SHIFT by ``k`` on ``qudit``, built and validated once while cached."""
    return GateOp(GateKind.SHIFT, (qudit,), k=k)


def _encoding_ops(spec: AdderSpec) -> list[GateOp]:
    """One shared ``_shift`` per nonzero input digit, MSB first; ``spec``
    checked every input."""
    ops = []
    d, t, n = spec.base, spec.ancillas, spec.digits_per_input
    for i, value in enumerate(spec.inputs):
        digits = []
        for _ in range(n):
            value, digit = divmod(value, d)
            digits.append(digit)
        start = t + i * n  # of register i + 1, after t ancillas and i inputs
        for offset, digit in enumerate(reversed(digits)):
            if digit:
                ops.append(_shift(start + offset, digit))
    return ops


def build_full_adder(spec: AdderSpec) -> Circuit:
    """Encoding shifts, QFT on the span, one component per extra input, IQFT.

    Measuring the span (qudits 0..t+n-1) afterwards yields the sum of
    all inputs in ADD mode, or inputs[0] minus the rest modulo d**(t+n)
    in SUB mode.  Registers 1..N-1 pass through unchanged.  The QFT, IQFT
    and fans are cached per design and the encoding shifts per (qudit,
    level), so two adders of one design share every op, their shifts
    wherever their input digits agree.
    """
    layout = spec.layout
    d, n, w = spec.base, spec.digits_per_input, spec.result_width
    parts = [("encode", _encoding_ops(spec)), ("qft", _qft_ladder(d, 0, w, 1))]
    # a one-input design has no fans, and takes no cache slot
    fans = _design_fans(d, n, spec.num_inputs, spec.mode.sign) if spec.num_inputs > 1 else ()
    size = n * (w - n) + n * (n + 1) // 2  # ops per fan: n*t + n*(n+1)/2
    for i in range(1, spec.num_inputs):
        parts.append((f"component a{i}", fans[(i - 1) * size : i * size]))
    parts.append(("iqft", _qft_ladder(d, 0, w, -1)))
    ops: list[GateOp] = []
    labels = []
    for name, part in parts:
        labels.append((name, len(ops), len(ops) + len(part)))
        ops.extend(part)
    return Circuit(spec.base, layout, ops, labels)


def classical_oracle(spec: AdderSpec) -> int:
    """Reference result by plain integer arithmetic, reduced mod d**(t+n)."""
    modulus = spec.base**spec.result_width
    if spec.mode is Mode.ADD:
        total = sum(spec.inputs)
    else:
        total = spec.inputs[0] - sum(spec.inputs[1:])
    return total % modulus
