"""State vectors, the gate kernels, circuit execution and shot-based measurement.

This is the only module that imports numpy.  The package imports it on
first use of one of its names, so building, costing and exporting
circuits never load numpy.

``execute`` holds each qudit as a digit, a phase ramp (one integer
numerator over a power of d) or an axis of the dense part, so an adder run from
digits (Draper's phi-ADD on a product state) never builds its Fourier span:
each angle the builders write is looked up to its exact numerator, and a
ramp snaps back to a digit by integer division alone.  A SWAP only renames
qudits; other ops on the dense part run on the gate kernels, :func:`phase`
and :func:`apply_op`.  Each takes ``psi``, the ``d**m`` amplitudes of the
dense part, and the positions of its targets in it, repeats none of the
checks that ``GateOp``, ``Circuit`` and ``execute`` make, and works on a
reshaped view of at most five axes, never on a ``d**m x d**m`` operator.

Measurement samples from the exact marginal of the selected qudits and
never collapses the state, so repeated calls on one state are allowed.
All randomness flows through one numpy Generator (PCG64) seeded from
NoiseConfig, making every histogram reproducible bit for bit.  A readout of
known digits, which ends every adder run from digits, builds no exact
marginal.  Without noise it draws nothing: every shot reads those digits,
as the draw would.  With noise, its marginal is the outer product of one
flip column per digit, or, past the amplitude cap, each digit of each shot
is drawn on its own.  The d x d channel and its per-axis passes exist only
when a measured qudit is in the dense part; the channel and the Hadamard
are sized against ``core.MAX_AMPLITUDES`` before they are built.

A full vector placed around digits, as ``probabilities()`` and
``amplitudes`` return, comes from a private anonymous map once it is
large: only its written pages are resident.

A histogram holds outcomes as integers; digit text is rendered, by
``core._digit_text``, only where text is asked for: by ``counts``,
``top_outcome`` and ``histogram_to_json``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import math
import mmap
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .circuit import _CPHASE, _HADAMARD, _MAX_TURN, _SHIFT, _SWAP, Circuit, GateOp, _turn
from .core import MAX_AMPLITUDES, DigitString, RegisterLayout, _below, _check_size
from .core import _digit_text, _show

FINAL_NORM_ATOL = 1e-9
# Most shots x width digits ``measure`` may sample.  A histogram has at most
# ``shots`` outcomes, so this bounds the digit text rendered from one.
MAX_SHOT_DIGITS = 2**24
# The dense part of a state held all as digits; read-only, so each state
# takes a copy, which costs less than building it with ``np.ones``.
_ONE = np.ones(1, dtype=np.complex128)
_ONE.flags.writeable = False


@dataclass
class StateVector:
    """A state of ``num_qudits`` base-``base`` qudits, some of them known digits.

    ``digits`` maps each qudit held in a known computational-basis level
    to that level; ``dense`` holds the ``base**(num_qudits - len(digits))``
    amplitudes of the other qudits, in increasing qudit order.  The full
    state is their tensor product.  With no digits, ``dense`` is the whole
    state.  The state takes a copy of the ``dense`` it is given.

    ``amplitudes`` is the full ``base**num_qudits`` vector, read-only in
    every form: with no digits a view of ``dense``, with digits built anew
    on each read, each digit qudit at its digit.  :meth:`probabilities`
    never builds it: it is the marginal of all qudits, one float buffer.
    ``execute`` may hold further qudits as phase ramps while it runs, but
    a state it returns has only digits and a dense part.
    """

    base: int
    num_qudits: int
    dense: np.ndarray = field(repr=False)
    digits: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.base, self.num_qudits = operator.index(self.base), operator.index(self.num_qudits)
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {_show(self.base)}")
        self.digits = {
            operator.index(qi): operator.index(level) for qi, level in self.digits.items()
        }
        for qi, level in self.digits.items():
            if not 0 <= qi < self.num_qudits:
                raise ValueError(
                    f"digit qudit {_show(qi)} out of range for {_show(self.num_qudits)}"
                )
            if not 0 <= level < self.base:
                raise ValueError(f"digit {_show(level)} out of range for base {_show(self.base)}")
        # its own writable copy: the caller's array may be read-only, or another state's
        self.dense = np.array(self.dense, dtype=np.complex128).reshape(-1)
        free, size = self.num_qudits - len(self.digits), self.dense.shape[0]
        # size != base**free, building no power past twice size's bits
        if _below(size, self.base, free) or not _below(size - 1, self.base, free):
            d, free = _show(self.base), _show(free)
            raise ValueError(
                f"expected {d}**{free} amplitudes for {free} base-{d} qudits, got {size}"
            )
        if not np.isfinite(self.dense).all():
            raise ValueError("amplitudes must be finite, got NaN or infinity")

    @property
    def amplitudes(self) -> np.ndarray:
        full = _placed(self.dense, self.base, range(self.num_qudits), self.digits).view()
        full.flags.writeable = False
        return full

    def probabilities(self) -> np.ndarray:
        """``|amplitudes|**2``, the full ``base**num_qudits`` float64 vector.

        The marginal of every qudit in order: the dense part squared into
        one float buffer, each digit qudit at its digit, so no complex full
        vector is built: 8 bytes per amplitude, not 24.  A zero amplitude
        squares to 0.0, so the values are those of ``np.abs(amplitudes) ** 2``
        bit for bit.  With digits, the size is checked against
        ``MAX_AMPLITUDES`` before the full buffer is allocated.
        """
        return _marginal(self, range(self.num_qudits))

    def norm_error(self) -> float:
        """Absolute deviation of the squared-magnitude sum from 1."""
        return abs(_weight(self.dense) - 1.0)


def _weight(dense: np.ndarray) -> float:
    """The sum of squared magnitudes, as one dot product with no temporary;
    one amplitude is read without numpy."""
    if dense.size == 1:
        return abs(dense.item()) ** 2
    return float(np.vdot(dense, dense).real)


def _placed(
    values: np.ndarray, d: int, qudits: Sequence[int], digits: Mapping[int, int]
) -> np.ndarray:
    """The flat ``d**len(qudits)`` vector over ``qudits``, in order, that is
    ``values`` (over the qudits not in ``digits``, in order) where each qudit
    in ``digits`` is at its level, and zero elsewhere.

    With no qudit in ``digits`` that is ``values`` itself; otherwise a new
    buffer of its dtype, whose size is checked before allocating, from
    ``_zeros``: only the pages ``values`` is written to are resident.
    """
    index = tuple(digits.get(qi, slice(None)) for qi in qudits)
    free = index.count(slice(None))
    if free == len(index):
        return values
    _check_size(d, len(index))
    full = _zeros((d,) * len(index), values.dtype)
    full[index] = values.reshape((d,) * free)
    return full.reshape(-1)


# Zero buffers of at least this many bytes are mapped, not taken from the
# heap.  Once glibc's sliding mmap threshold has risen past a buffer, as it
# does after the first large one is freed, ``np.zeros`` takes it from the
# heap and writes every page.  perfbench's dense-sim reads five one-hot
# vectors of 1 to 16 MB; mapping them took its peak RSS from 55 to 42 MB
# (BENCH_43.json), while batch-small and readout-design, whose placed
# buffers are all under 128 KB, did not move (2-core VM, Python 3.11,
# numpy 2.4).
_MAP_BYTES = 2**21


def _zeros(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """``np.zeros(shape, dtype)``; from ``_MAP_BYTES`` on, a view of a
    private anonymous map, writable and unmapped with its last view.

    A page of the map is backed only once written: a read of any other
    maps the kernel's zero page and adds nothing to the resident set.  The
    huge-page advice, where the platform has it, makes that one fault per
    huge page, not per 4 KiB page, so a full read costs what it did from
    the heap; a platform that refuses the advice keeps small pages.
    """
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes < _MAP_BYTES:
        return np.zeros(shape, dtype)
    buffer = mmap.mmap(-1, nbytes, access=mmap.ACCESS_COPY)
    advice = getattr(mmap, "MADV_HUGEPAGE", None)
    if advice is not None:
        with contextlib.suppress(OSError):
            buffer.madvise(advice)
    return np.frombuffer(buffer, dtype).reshape(shape)


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
                f"digit string for register {name!r} has base {_show(ds.base)}, "
                f"layout has base {_show(layout.base)}"
            )
        if ds.width != size:
            raise ValueError(
                f"register {name!r} holds {_show(size)} qudit(s), "
                f"got a width-{ds.width} digit string"
            )
    digits = [dig for ds in register_digits for dig in ds.digits]
    return StateVector(layout.base, len(digits), _ONE, dict(enumerate(digits)))


def zero_state(layout: RegisterLayout) -> StateVector:
    """All-zero computational-basis state for ``layout``, held as digits.

    Built without the constructor's checks, from digits it makes itself.
    """
    q = layout.total_qudits
    state = object.__new__(StateVector)
    state.base, state.num_qudits = layout.base, q
    state.dense, state.digits = _ONE.copy(), dict.fromkeys(range(q), 0)
    return state


@dataclass(frozen=True)
class NoiseConfig:
    """Readout-error model: each measured digit flips, with probability
    ``readout_flip_probability``, to a uniformly random different level.

    Also carries the sampling seed, so a single config fixes the whole
    stochastic behavior of a measurement.
    """

    readout_flip_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        p = self.readout_flip_probability
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"readout_flip_probability must be in [0,1], got {_show(p)}")
        object.__setattr__(self, "seed", operator.index(self.seed))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {_show(self.seed)}")


@dataclass(frozen=True)
class Histogram:
    """Shot counts of ``width`` measured base-``base`` digits.

    ``tallies`` maps each drawn outcome, its digits read MSB first as an
    integer, to its count; it is stored read-only, in increasing value, so
    that ``counts`` (cached) and ``shots`` cannot disagree.  ``counts`` is
    the same map keyed by digit text (``DigitString.to_string``).  The
    constructor checks every outcome and count; ``measure`` builds its
    histograms from tallies it made sorted and in range, unchecked.
    """

    base: int
    width: int
    tallies: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", operator.index(self.base))
        object.__setattr__(self, "width", operator.index(self.width))
        if self.base < 2 or self.width < 1:
            raise ValueError(
                f"need base >= 2 and width >= 1, got {_show(self.base)}, {_show(self.width)}"
            )
        tallies = {operator.index(v): operator.index(c) for v, c in self.tallies.items()}
        if not tallies:
            raise ValueError("a histogram needs at least one outcome")
        d, width = self.base, self.width
        for value, count in tallies.items():
            if value < 0 or not _below(value, d, width):
                raise ValueError(
                    f"outcome {_show(value)} out of range [0, {_show(d)}**{_show(width)})"
                )
            if count < 1:
                raise ValueError(
                    f"count for outcome {_show(value)} must be >= 1, got {_show(count)}"
                )
        object.__setattr__(self, "tallies", MappingProxyType(dict(sorted(tallies.items()))))

    @property
    def shots(self) -> int:
        return sum(self.tallies.values())

    @functools.cached_property
    def counts(self) -> dict[str, int]:
        """The tallies keyed by digit text, in increasing value; rendered once."""
        text = _digit_text(self.base, self.width)
        return {text(value): count for value, count in self.tallies.items()}

    def top_outcome(self) -> str:
        """Digit text of the most frequent outcome; ties break toward the smaller value."""
        # max keeps the first of equal counts, and tallies run in increasing value
        return _digit_text(self.base, self.width)(max(self.tallies, key=self.tallies.__getitem__))


def _histogram(base: int, width: int, tallies: dict[int, int]) -> Histogram:
    """The ``Histogram`` of tallies ``measure`` drew: int keys in range and in
    increasing value, int counts >= 1, so none of the constructor's checks."""
    histogram = object.__new__(Histogram)
    histogram.__dict__.update(base=base, width=width, tallies=MappingProxyType(tallies))
    return histogram


# One entry per (base, layout width): the 300 specs of perfbench's
# batch-small hold 70, and a 64-entry cache thrashed on them.
@functools.lru_cache(maxsize=256)
def _numerators(d: int, q: int) -> tuple[int, dict[float, int]]:
    """``D = d**e`` and each float a builder writes for +-2*pi/d**k, k = 1..e,
    mapped to its numerator +-d**(e-k) over D: the angles a ramp adds exactly.

    A circuit on q qudits writes no other angle, so e is q, or the largest k
    with ``d**k <= _MAX_TURN`` if that is less: D stays within 2**1022.
    """
    e = max(k for k in range(min(q + 1, _MAX_TURN.bit_length())) if d**k <= _MAX_TURN)
    turns = ((k, theta) for k in range(1, e + 1) for theta in _turn(d, k))
    return d**e, {s * theta: s * d ** (e - k) for k, theta in turns for s in (1, -1)}


def execute(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit's ops in order to ``initial``, updating and returning it.

    The default start is ``zero_state(circuit.layout)``.  While it runs,
    each qudit is a digit, a phase ramp ``exp(2*pi*i*m*k/D)/sqrt(d)`` at
    level k held as its integer numerator m over a power D of d, or an
    axis of the dense part.  A HADAMARD turns a digit x into the ramp
    m = +-x*D/d, and snaps a ramp back to the digit -+m/(D/d) mod d when
    D/d divides m.  A SHIFT adds to a digit; a SWAP renames its two
    qudits, whatever their forms.  A CPHASE with a digit end at level 0 is
    the identity; with a digit end at level x, a ramp end and an angle bit
    for bit one the builders write for +-2*pi/d**k (``circuit._turn``), it
    adds x times that angle's numerator +-D/d**k to m (phi-ADD).  Every
    other op first widens its ramps into trailing axes of the dense part
    and runs its kernel.  A CPHASE kernel reads a digit end as its level
    and builds the d levels only for a dense end, so one between two
    nonzero digits multiplies the dense part by one phase, at any base.
    Ramps left at the end are widened the same way, and the dense axes
    are put in increasing qudit order.  So an adder run from digits ends
    all digits, at any base and width, and one without digits runs every
    other op on its kernel: the tests' reference.

    Raises ValueError, before allocating, if a widening would exceed
    ``core.MAX_AMPLITUDES``, even by one ramp: no ramp's vector, nor its
    d levels, is built before the check.  ``initial`` is then unchanged
    if no op had reached its dense part, a CPHASE between two nonzero
    digits among them; otherwise its ``digits`` are as given and its
    ``dense`` is the dense part at the refused op: no longer one state.
    Raises RuntimeError if the final norm drifts from 1 by more than 1e-9:
    an ``initial`` that was not normalized, or a broken gate.
    """
    d, q = circuit.base, circuit.layout.total_qudits
    state = zero_state(circuit.layout) if initial is None else initial
    if state.base != d:
        raise ValueError(f"state base {_show(state.base)} != circuit base {_show(d)}")
    if state.num_qudits != q:
        raise ValueError(f"state has {state.num_qudits} qudits, circuit layout has {_show(q)}")
    digits = dict(state.digits)
    dense = [qi for qi in range(q) if qi not in digits]  # the axes of psi, in order
    # qudit -> numerator m of its phase ramp exp(2*pi*i*m*k/D)/sqrt(d)
    factors: dict[int, int] = {}
    psi = state.dense
    D, table = _numerators(d, q)
    column = D // d  # the numerator of 2*pi/d
    HADAMARD, CPHASE, SWAP, SHIFT = _HADAMARD, _CPHASE, _SWAP, _SHIFT  # local names, read per op
    for op in circuit.ops:
        kind, qs, t = op.kind, op.qudits, op.qudits[0]
        if kind is CPHASE:
            x, y = digits.get(t), digits.get(qs[1])
            if x == 0 or y == 0:  # a digit end at level 0: identity
                continue
            end, level = (t, y) if x is None else (qs[1], x)
            if level is not None and end in factors and (m := table.get(op.theta)):  # phi-ADD
                factors[end] += m * level
                continue
        elif kind is SWAP:
            a, b = qs
            for held in (digits, factors):  # each entry to the other qudit
                u, v = held.pop(a, None), held.pop(b, None)
                if u is not None:
                    held[b] = u
                if v is not None:
                    held[a] = v
            if dense:
                dense = [qs[qi == t] if qi in qs else qi for qi in dense]
            continue
        elif t in digits:
            if kind is SHIFT:
                digits[t] = (digits[t] + op.k) % d
            else:
                factors[t] = (-column if op.dagger else column) * digits.pop(t)
            continue
        elif kind is HADAMARD and t in factors and not factors[t] % column:
            # the DFT column j, under a DFT of sign s, is the digit -s*j
            j = factors.pop(t) // column
            digits[t] = (j if op.dagger else -j) % d
            continue
        # the kernel, on the dense part widened by this op's ramps
        if ramps := {qi: factors.pop(qi) for qi in qs if qi in factors}:
            # the state always holds the current vector, so a gate holds two at most
            psi, dense = _widen(psi, d, dense, ramps, D)
            state.dense = psi
        axes = [dense.index(qi) for qi in qs if qi not in digits]
        if kind is CPHASE:
            if axes:  # a dense end ranges over the levels, the first along a column
                levels = np.arange(d)
                x, y = levels[:, None] if x is None else x, levels if y is None else y
            phase(psi, d, len(dense), axes, np.exp(1j * op.theta * x * y))
        else:
            psi = state.dense = apply_op(psi, d, len(dense), op, axes)
    if factors:
        psi, dense = _widen(psi, d, dense, factors, D)
    if dense != sorted(dense):  # the axes in increasing qudit order, as documented
        psi = psi.reshape((d,) * len(dense)).transpose(np.argsort(dense)).reshape(-1)
    state.dense, state.digits = psi, digits
    drift = state.norm_error()
    if not drift <= FINAL_NORM_ATOL:
        raise RuntimeError(f"final state norm off by {drift:.3e}")
    return state


def _widen(psi: np.ndarray, d: int, dense: list[int], ramps: dict[int, int], D: int) -> tuple:
    """``psi`` over the qudits ``dense`` times each ramp ``exp(2*pi*i*m*k/D)/sqrt(d)``
    in ``ramps`` (qudit -> m) as trailing axes, and its qudits: the one place a
    ramp becomes a vector, sized before any array, its d levels too, is built."""
    _check_size(d, len(dense) + len(ramps))
    levels = np.arange(d)
    vectors = [np.exp(2j * math.pi * (m % D / D) * levels) / math.sqrt(d) for m in ramps.values()]
    outer = functools.reduce(np.multiply.outer, vectors)
    return np.multiply.outer(psi, outer).reshape(-1), [*dense, *ramps]


def _view(psi: np.ndarray, d: int, m: int, axes: Sequence[int]) -> np.ndarray:
    """psi over ``m`` qudits viewed with each of ``axes`` as a d-axis of its
    own, between the merged runs of the others: ``(lead, d, trail)`` for one
    axis, ``(lead, d, mid, d, trail)`` for two.  psi is one-dimensional, so
    the reshape is a view at any stride and an in-place product writes
    through."""
    shape, start = [], 0
    for ax in sorted(axes):
        shape += [d ** (ax - start), d]
        start = ax + 1
    return psi.reshape(*shape, d ** (m - start))


def phase(psi: np.ndarray, d: int, m: int, axes: Sequence[int], table: np.ndarray) -> None:
    """Scale psi in place by ``table[x, y, ...]`` at levels x, y, ... on ``axes``.

    The kernel of every CPHASE that reaches the dense part: the diagonal
    ``exp(i*theta*x*y)`` with two dense ends, with one and the other's
    level fixed, or with none, both levels fixed: one phase on all of psi.
    ``table`` holds ``d**len(axes)`` entries in any shape, for up to two
    axes; with two it must be symmetric, as ``exp(i*theta*x*y)`` is.
    """
    view = _view(psi, d, m, axes)
    view *= table.reshape((d, 1) * len(axes))


def apply_op(psi: np.ndarray, d: int, m: int, op: GateOp, axes: Sequence[int]) -> np.ndarray:
    """Apply a HADAMARD or SHIFT on the one axis in ``axes`` of psi; returns a
    new vector, so a gate holds at most two vectors at once."""
    view = _view(psi, d, m, axes)
    if op.kind is _HADAMARD:
        return _hadamard(view, d, op.dagger).reshape(-1)
    # SHIFT: |j> -> |(j + k) mod d>
    return np.roll(view, op.k, axis=1).reshape(-1)


# Above this many columns the block-diagonal Hadamard costs more flops
# than a batched d x d product saves in per-batch overhead (measured at
# 2^20 amplitudes for d in 2..16).
_BLOCK_HADAMARD_MAX = 64


def _check_square(d: int, name: str) -> None:
    """Raise ValueError if the d x d matrix ``name`` exceeds MAX_AMPLITUDES entries."""
    if d * d > MAX_AMPLITUDES:
        d, limit = _show(d), f"over the limit of {MAX_AMPLITUDES}"
        raise ValueError(f"the {d} x {d} {name} needs {d}**2 entries, {limit}")


@functools.lru_cache(maxsize=64)
def _dft(d: int, dagger: bool) -> np.ndarray:
    """d-level Hadamard: entry (m, j) = exp(2*pi*i*j*m/d) / sqrt(d); cached, read-only."""
    _check_square(d, "Hadamard")
    levels = np.arange(d)
    sign = -1.0 if dagger else 1.0
    dft = np.exp(sign * 2j * np.pi * np.outer(levels, levels) / d) / np.sqrt(d)
    dft.flags.writeable = False
    return dft


def _hadamard(view: np.ndarray, d: int, dagger: bool) -> np.ndarray:
    """Contract the DFT over the middle axis of ``view``, shaped (lead, d, trail).

    The DFT is symmetric, so it equals its transpose in either form.
    With a short trailing axis, one GEMM against the block-diagonal
    ``F (x) I_trail`` avoids ``lead`` tiny matrix products; otherwise a
    batched ``F @ view`` runs ``lead`` products of width ``trail``.  Summed
    over every target, each single form was slower than the pair (README,
    "Simulation and noise"): at d=2 on 2**20 amplitudes the batched product
    took about 4x as long, ``tensordot`` 4x and ``np.fft`` 8-9x.
    """
    lead, _, trail = view.shape
    dft = _dft(d, dagger)
    if d * trail <= _BLOCK_HADAMARD_MAX:
        block = (dft[:, None, :, None] * np.eye(trail)[None, :, None, :]).reshape(
            d * trail, d * trail
        )
        return view.reshape(lead, d * trail) @ block
    return np.matmul(dft, view)


def _marginal(state: StateVector, qudits: Sequence[int]) -> np.ndarray:
    """Exact outcome distribution of ``qudits`` in the given order.

    Sums squared magnitudes over the dense part only; a measured qudit
    with a known digit always reads that level.  The dense part is squared
    once, into one float buffer already in the measured order, so its
    rows are views: 8 bytes per dense amplitude, in any order.  Measured
    axes that trail in increasing order keep the dense order, and their
    rows are summed strided: a copy would sum them in another order, which
    can change the last bit of the marginal and so a seeded draw.  With no
    dense axis left unmeasured there is no sum.
    """
    d, known = state.base, state.digits
    dense = [qi for qi in range(state.num_qudits) if qi not in known]
    free = [dense.index(qi) for qi in qudits if qi not in known]
    rest = len(dense) - len(free)
    view = np.moveaxis(state.dense.reshape((d,) * len(dense)), free, range(len(free)))
    probs = np.abs(view, order="K" if free == [*range(rest, len(dense))] else "C") ** 2
    if rest:
        probs = probs.reshape(d ** len(free), -1).sum(axis=1)
    return _placed(probs.reshape(-1), d, qudits, known)


def _noisy_read(d: int, p: float, digits: Sequence[int]) -> np.ndarray:
    """The noisy marginal of known ``digits``, MSB first: the outer product of
    one flip column per digit, ``p/(d-1)`` with ``1-p`` at the digit, since
    each digit flips alone: O(width * d) floats, not the d x d channel.

    It equals bit for bit what ``measure``'s per-axis passes give from the
    one-hot marginal.  Each entry is the same product of channel entries,
    and the buffer is built with the last axis outermost, as the passes
    leave theirs, so that its sum adds them in the same order; that axis
    then moves innermost, to read MSB first.
    """
    cols = [np.full(d, p / (d - 1)) for _ in digits]
    for col, x in zip(cols, digits):
        col[x] = 1.0 - p
    probs = np.multiply.outer(cols[-1], functools.reduce(np.multiply.outer, cols[:-1], 1.0))
    probs /= probs.sum()
    return probs.reshape(d, -1).T.reshape(-1)


def _read_each(digits: Sequence[int], d: int, p: float, shots: int, seed: int) -> dict[int, int]:
    """Tallies of ``shots`` noisy reads of known ``digits``, MSB first, in
    increasing value, each digit drawn on its own: with probability ``p`` it
    flips to one of the other d - 1 levels, uniformly.

    The readout of a span whose ``d**width`` marginal is over the cap; it
    draws shots x width flips, which ``MAX_SHOT_DIGITS`` bounds.  Each
    shot's value is built MSB first.  Where every value fits in int64
    (``d**width <= 2**63``) that is int64 arithmetic and one ``np.unique``
    tally: 2**22 shots of 3 base-100000 digits at p = 0.1 take about 0.45 s,
    against 2.4 s counted as Python ints (2-core VM).  Past it the values
    are Python ints in a ``Counter``: 2**20 shots of 4 such digits take
    about 1 s.
    """
    rng = np.random.default_rng(seed)
    reads = np.tile(np.array(digits, dtype=np.int64 if d <= 2**63 else object), (shots, 1))
    flip = rng.random(reads.shape) < p
    levels = reads[flip]
    # the r-th of the other levels of x, r in [0, d - 1), is r + (r >= x)
    others = _uniform(rng, d - 1, levels.size)
    reads[flip] = others + (others >= levels)
    fits = d ** len(digits) <= 2**63  # so every value, d**width - 1 at most, is an int64
    values = functools.reduce(
        lambda value, col: value * d + col, reads.T if fits else reads.T.astype(object)
    )
    if fits:
        seen, counts = np.unique(values, return_counts=True)
        return dict(zip(seen.tolist(), counts.tolist()))
    tallies = collections.Counter(values.tolist())
    return {value: tallies[value] for value in sorted(tallies)}


def _uniform(rng: np.random.Generator, high: int, size: int) -> np.ndarray:
    """``size`` uniform ints in [0, high), exactly.  Past int64, each is the
    top bits of 32-bit words of ``rng``, redrawn while it is ``high`` or more."""
    if high <= 2**63:
        return rng.integers(high, size=size)
    bits = (high - 1).bit_length()
    out = np.empty(0, dtype=object)
    while out.size < size:  # a draw is kept with probability over 1/2
        words = rng.integers(2**32, size=(-(-bits // 32), size - out.size), dtype=np.uint64)
        draws = functools.reduce(lambda v, w: v << 32 | w, words.astype(object)) >> -bits % 32
        out = np.concatenate([out, draws[draws < high]])
    return out


def _check_shots(shots: int, width: int) -> None:
    """Raise ValueError unless 1 <= shots and shots * width <= MAX_SHOT_DIGITS."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {_show(shots)}")
    if shots * width > MAX_SHOT_DIGITS:
        raise ValueError(
            f"{_show(shots)} shots of {_show(width)} digit(s) need {_show(shots * width)} "
            f"digits, over the limit of {MAX_SHOT_DIGITS}"
        )


def measure(
    state: StateVector,
    qudits: Sequence[int],
    shots: int,
    noise: NoiseConfig | None = None,
) -> Histogram:
    """Sample ``shots`` outcomes from the marginal on ``qudits``.

    Noise, when configured, is the independent per-digit flip of
    ``NoiseConfig``: a d x d stochastic matrix applied to the exact marginal
    along each measured axis.  All shots are then one multinomial draw over
    the ``d**width`` outcomes, whatever ``shots`` is, and the histogram is
    keyed by outcome value, with no digit text built.  Identical (state,
    qudits, shots, noise) give identical histograms.

    When every measured qudit is a digit of ``state``, the marginal is
    one-hot, and one branch reads it.  Without noise the draw puts every
    shot on it, so the histogram is that outcome with all shots, built with
    no marginal and no draw, at any width.  With noise, the noisy marginal
    is built directly as the outer product of one flip column per digit
    (``_noisy_read``), bit for bit what the passes give, and no d x d
    channel exists.  Past ``core.MAX_AMPLITUDES`` outcomes there is no
    marginal: each shot draws each digit on its own, a flip with the
    noise's probability to a uniform other level, from a generator seeded
    as the draw's, and the shots are tallied in int64 wherever
    ``d**len(qudits)`` fits (``_read_each``).  Only a readout with a
    measured qudit in the dense part builds the exact marginal, placing its
    known digits through ``_placed``, and, with noise, the channel and its
    passes, at O(width * d**(width+1)).

    Raises ValueError, before allocating, if ``shots * len(qudits)``
    exceeds ``MAX_SHOT_DIGITS``, or if a measured qudit is in the dense
    part and the ``d**len(qudits)`` entries of the marginal, or with noise
    the d x d entries of the channel, exceed ``core.MAX_AMPLITUDES``.
    Raises RuntimeError if the state's probabilities sum to more than
    ``FINAL_NORM_ATOL`` off 1.
    """
    qudits = [operator.index(x) for x in qudits]
    if not qudits:
        raise ValueError("must measure at least one qudit")
    distinct = set(qudits)
    if len(distinct) != len(qudits):
        raise ValueError(f"measured qudits must be distinct, got {_show(qudits)}")
    for qi in qudits:
        if not 0 <= qi < state.num_qudits:
            raise IndexError(f"qudit {_show(qi)} out of range for {_show(state.num_qudits)}")
    shots, width = operator.index(shots), len(qudits)
    _check_shots(shots, width)
    if noise is None:
        noise = NoiseConfig()
    d, known, p = state.base, state.digits, noise.readout_flip_probability
    if known.keys() >= distinct:  # the marginal is one-hot on the known digits
        total = _weight(state.dense)
        if not abs(total - 1.0) <= FINAL_NORM_ATOL:
            raise RuntimeError(f"marginal probabilities sum to {total!r}")
        if p == 0.0:  # every shot reads them: the draw's one outcome, undrawn
            value = 0
            for qi in qudits:  # MSB first
                value = value * d + known[qi]
            return _histogram(d, width, {value: shots})
        levels = [known[qi] for qi in qudits]
        if d**width > MAX_AMPLITUDES:  # no marginal: each digit drawn on its own
            return _histogram(d, width, _read_each(levels, d, p, shots, noise.seed))
        marginal = _noisy_read(d, p, levels)
    else:
        _check_size(d, width)
        marginal = _marginal(state, qudits)
        total = float(marginal.sum())
        if not abs(total - 1.0) <= FINAL_NORM_ATOL:
            raise RuntimeError(f"marginal probabilities sum to {total!r}")
        marginal = marginal / total
        if p > 0.0:
            _check_square(d, "readout channel")
            channel = np.full((d, d), p / (d - 1))
            np.fill_diagonal(channel, 1.0 - p)
            probs = marginal.reshape((d,) * width)
            for ax in range(width):
                probs = np.moveaxis(np.tensordot(channel, probs, axes=(1, ax)), 0, ax)
            marginal = probs.reshape(-1) / probs.sum()
    tallies = np.random.default_rng(noise.seed).multinomial(shots, marginal)
    seen = np.flatnonzero(tallies)
    return _histogram(d, width, dict(zip(seen.tolist(), tallies[seen].tolist())))


def histogram_to_json(histogram: Histogram) -> str:
    """Serialize as {base, shots, counts} with keys in increasing value."""
    payload = {
        "base": histogram.base,
        "shots": histogram.shots,
        "counts": histogram.counts,
    }
    return json.dumps(payload, indent=2) + "\n"
