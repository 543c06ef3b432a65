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
import operator
from dataclasses import dataclass
from enum import Enum

from .circuit import (
    _CPHASE, Circuit, GateOp, _Body, _check_span, _circuit, _qft_ladder, _shift, _turn,
)
from .core import RegisterLayout, _below, _show


class Mode(Enum):
    ADD = "add"
    SUB = "sub"

    @property
    def sign(self) -> int:
        return 1 if self is _ADD else -1  # a module name, not a class lookup


_ADD = Mode.ADD


def required_ancillas(num_inputs: int, base: int) -> int:
    """Smallest t with base**t >= num_inputs, exactly.

    t extra carry qudits guarantee the sum of num_inputs values below
    base**n fits in t+n digits.  Computed by integer search, never via
    floating-point logarithms.
    """
    num_inputs, base = operator.index(num_inputs), operator.index(base)
    if num_inputs < 1:
        raise ValueError(f"num_inputs must be >= 1, got {_show(num_inputs)}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {_show(base)}")
    t = 0
    power = 1
    while power < num_inputs:
        t += 1
        power *= base
    return t


@functools.lru_cache(maxsize=128, typed=True)
def adder_layout(base: int, digits_per_input: int, num_inputs: int) -> RegisterLayout:
    """Ancilla register "anc" (possibly width 0) then inputs "a0".."a{N-1}".

    Cached per design; a ``RegisterLayout`` is frozen, so callers may share it.
    """
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
            raise ValueError(f"base must be >= 2, got {_show(self.base)}")
        if self.digits_per_input < 1:
            raise ValueError(
                f"digits_per_input must be >= 1, got {_show(self.digits_per_input)}"
            )
        if self.num_inputs < 1:
            raise ValueError(f"num_inputs must be >= 1, got {_show(self.num_inputs)}")
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {_show(self.mode)}")
        if len(self.inputs) != self.num_inputs:
            raise ValueError(
                f"expected {_show(self.num_inputs)} inputs, got {len(self.inputs)}"
            )
        d, n = self.base, self.digits_per_input
        for i, value in enumerate(self.inputs):
            if value < 0 or not _below(value, d, n):
                d, n = _show(d), _show(n)
                raise ValueError(
                    f"input {i} is {_show(value)}, must be in [0, {d}**{n}) for {n} base-{d} digits"
                )

    @property
    def ancillas(self) -> int:
        return self.layout.registers[0][1]  # t, from the cached layout

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
    thetas = [sign * _turn(d, k)[1] for k in range(q_f + 1)]  # by l - j
    ops = []
    for offset, control in enumerate(source):
        j = width - 1 - offset
        for l in range(j + 1, q_f + 1):
            ops.append(GateOp(_CPHASE, (control, l - 1), theta=thetas[l - j]))
    return ops


# Most ops one adder may hold.  The op count grows as digits squared and
# linearly in the inputs: two 200-digit qubit inputs make 61,102 ops, which
# ``qftadd export-circuit`` writes as JSON in a fresh process in 0.32 to
# 0.34 s and 44 MB of peak RSS (2-core VM, Python 3.11).  The largest
# benchmarked export has about 15,600.
MAX_OPS = 2**17


def _gate_count(n: int, N: int, t: int) -> int:
    """``resources.gate_count_formula`` on arguments already checked."""
    return (N + 1) * (n * (n + 1) // 2 + n * t) + t * t + 2 * t + n - (t + n) % 2


# One entry holds the design's fans, about 200 B per op, and a reference to
# each op of its QFT and IQFT, which ``_qft_ladder`` keeps: the fans of
# (2,16,64) are 14,616 ops, about 3.0 MB traced.  Once the design is
# exported the entry also holds the JSON text of its body, about 120 B per
# op (1.9 MB for (2,16,64)), and of its header, about 50 B per register.
# 256 entries, because perfbench's batch-small builds 151 and 157 bodies
# (a design and sign each) from its 300 specs at seeds 1 and 7919, and a
# 128-entry cache, missing on every one of them in turn, doubled their build.
@functools.lru_cache(maxsize=256)
def _design_body(d: int, n: int, num_inputs: int, sign: int) -> _Body:
    """Every op of one adder design after its encoding shifts, their labels
    and kind tally, and the JSON texts once the design is exported.

    The ops are the QFT on the span, the fan of each of registers
    2..num_inputs (``n*t + n*(n+1)//2`` ops each) and the IQFT; the labels
    ``qft``, ``component a1``.. and ``iqft`` count from the body's first op.
    Raises ValueError before anything is built, its layout included, if an
    adder of the design may hold over ``MAX_OPS`` ops: the closed-form
    count plus one SHIFT per input digit.  Cached per design, so every
    adder of one design holds the same ``GateOp`` objects; at most 256
    designs' bodies are kept.
    """
    count = _gate_count(n, num_inputs, required_ancillas(num_inputs, d)) + num_inputs * n
    if count > MAX_OPS:
        raise ValueError(f"the circuit may need {_show(count)} ops, over the limit of {MAX_OPS}")
    layout = adder_layout(d, n, num_inputs)
    w = layout.register_start(2)
    parts = [("qft", _qft_ladder(d, 0, w, 1))]
    for register in range(2, num_inputs + 1):
        fan = _fan(d, w, layout.register_range(register), sign)
        parts.append((f"component a{register - 1}", fan))
    parts.append(("iqft", _qft_ladder(d, 0, w, -1)))
    ops: list[GateOp] = []
    labels = []
    for name, part in parts:
        labels.append((name, len(ops), len(ops) + len(part)))
        ops.extend(part)
    return _Body(tuple(ops), tuple(labels))


def build_adder_component(
    layout: RegisterLayout, source_register: int, sign: int
) -> Circuit:
    """Phase fan adding one source register into the Fourier span.

    The span (registers 0 and 1, global qudits 0..q_F-1) is assumed to
    hold a Fourier-encoded value.  The source digit of weight d**j
    controls a phase sign*2*pi*d**(j-l) on span position l (1-based from
    the MSB) for l = j+1..q_F; shallower positions would only pick up
    whole multiples of 2*pi.  Gate count: sum over j of (q_F - j).
    Raises ValueError if ``d**q_F`` exceeds 2**1022, as ``build_qft`` does.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {_show(sign)}")
    if not 0 <= source_register < len(layout.registers):
        raise IndexError(f"no register {_show(source_register)} in layout")
    if source_register in (0, 1):
        raise ValueError(
            "source register overlaps the Fourier span (registers 0 and 1)"
        )
    source = layout.register_range(source_register)
    if len(source) == 0:
        raise ValueError(f"source register {_show(source_register)} is empty")
    _check_span(layout.base, layout.register_start(2))
    ops = _fan(layout.base, layout.register_start(2), source, sign)
    return Circuit(layout.base, layout, tuple(ops))


def _encoding_ops(spec: AdderSpec, t: int) -> list[GateOp]:
    """One shared SHIFT from ``circuit._shift`` per nonzero input digit, MSB
    first, below ``t`` ancillas; ``spec`` checked every input."""
    ops, shift = [], _shift
    d, n = spec.base, spec.digits_per_input
    end = t + len(spec.inputs) * n  # past the last register's last digit
    for value in reversed(spec.inputs):  # each LSB first, then all reversed
        qudit, end = end, end - n
        while value:  # a zero input divmods nothing
            qudit -= 1
            value, digit = divmod(value, d)
            if digit:
                ops.append(shift(qudit, digit)[0])
    ops.reverse()
    return ops


def build_full_adder(spec: AdderSpec) -> Circuit:
    """Encoding shifts, QFT on the span, one component per extra input, IQFT.

    Measuring the span (qudits 0..t+n-1) afterwards yields the sum of
    all inputs in ADD mode, or inputs[0] minus the rest modulo d**(t+n)
    in SUB mode.  Registers 1..N-1 pass through unchanged.  Everything
    after the encoding shifts is one body cached per design, and the
    shifts are cached per (qudit, level), so two adders of one design
    share every op, their shifts wherever their input digits agree.
    Raises ValueError before any op is built if the adder may hold over
    ``MAX_OPS`` ops, or if ``d**(t+n)`` exceeds 2**1022.
    """
    body = _design_body(spec.base, spec.digits_per_input, spec.num_inputs, spec.mode.sign)
    layout = spec.layout  # read once: each read is an ``adder_layout`` call
    encode = _encoding_ops(spec, layout.registers[0][1])
    k = len(encode)
    labels = (("encode", 0, k), *[(name, lo + k, hi + k) for name, lo, hi in body.labels])
    return _circuit(layout, tuple(encode) + body.ops, labels, body)


def classical_oracle(spec: AdderSpec) -> int:
    """Reference result by plain integer arithmetic, reduced mod d**(t+n)."""
    modulus = spec.base**spec.result_width
    if spec.mode is Mode.ADD:
        total = sum(spec.inputs)
    else:
        total = spec.inputs[0] - sum(spec.inputs[1:])
    return total % modulus
