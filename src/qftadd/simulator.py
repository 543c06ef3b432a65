"""Circuit execution into state vectors, plus shot-based measurement.

``execute`` holds each qudit as a digit, a one-qudit factor or an axis of
the dense part, so an adder run from digits (Draper's phi-ADD on a
product state) never builds its Fourier span.  A SWAP only renames qudits;
other ops on the dense part run on the gate kernels in ``gates``.

Measurement samples from the exact marginal of the selected qudits and
never collapses the state, so repeated calls on one state are allowed.
All randomness flows through one numpy Generator (PCG64) seeded from
NoiseConfig, making every histogram reproducible bit for bit.  A noiseless
readout of known digits, which ends every adder run from digits, builds
no marginal and draws nothing: every shot reads those digits, as the draw
would.

A histogram holds outcomes as integers; digit text is rendered only where
text is asked for, by ``counts``, ``top_outcome`` and ``histogram_to_json``.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .circuit import Circuit, GateKind
from .core import MAX_AMPLITUDES, StateVector, _check_size, from_integer, zero_state
from .gates import _dft, apply_op, phase

FINAL_NORM_ATOL = 1e-9
_TAU = 2.0 * math.pi
# Largest magnitude a factor may have at every level but one and still snap
# back to a digit at that level.
_SNAP_ATOL = 1e-12
# Most shots x width digits ``measure`` may sample.  A histogram has at most
# ``shots`` outcomes, so this bounds the digit text rendered from one.
MAX_SHOT_DIGITS = 2**24


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
            raise ValueError(f"readout_flip_probability must be in [0,1], got {p}")
        object.__setattr__(self, "seed", operator.index(self.seed))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass(frozen=True)
class Histogram:
    """Shot counts of ``width`` measured base-``base`` digits.

    ``tallies`` maps each drawn outcome, its digits read MSB first as an
    integer, to its count; it is stored read-only, in increasing value, so
    that ``counts`` (cached) and ``shots`` cannot disagree.  ``counts`` is
    the same map keyed by digit text (``DigitString.to_string``).
    """

    base: int
    width: int
    tallies: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", operator.index(self.base))
        object.__setattr__(self, "width", operator.index(self.width))
        if self.base < 2 or self.width < 1:
            raise ValueError(f"need base >= 2 and width >= 1, got {self.base}, {self.width}")
        tallies = {operator.index(v): operator.index(c) for v, c in self.tallies.items()}
        if not tallies:
            raise ValueError("a histogram needs at least one outcome")
        size = self.base**self.width
        for value, count in tallies.items():
            if not 0 <= value < size:
                raise ValueError(f"outcome {value} out of range [0, {size})")
            if count < 1:
                raise ValueError(f"count for outcome {value} must be >= 1, got {count}")
        object.__setattr__(self, "tallies", MappingProxyType(dict(sorted(tallies.items()))))

    @property
    def shots(self) -> int:
        return sum(self.tallies.values())

    @functools.cached_property
    def counts(self) -> dict[str, int]:
        """The tallies keyed by digit text, in increasing value; rendered once."""
        return {self._text(value): count for value, count in self.tallies.items()}

    def top_outcome(self) -> str:
        """Digit text of the most frequent outcome; ties break toward the smaller value."""
        # max keeps the first of equal counts, and tallies run in increasing value
        return self._text(max(self.tallies, key=self.tallies.__getitem__))

    def _text(self, value: int) -> str:
        return from_integer(value, self.base, self.width).to_string()


def execute(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit's ops in order to ``initial``, updating and returning it.

    The default start is ``zero_state(circuit.layout)``.  While it runs,
    each qudit is a digit, a factor (a d-vector in tensor product with the
    rest) or an axis of the dense part.  A HADAMARD turns a digit into a
    DFT column, or multiplies a factor by the DFT; a factor whose every
    other level is at most ``_SNAP_ATOL`` then snaps back to a digit, its
    amplitude moved into a global scalar.  A SHIFT adds to a digit or rolls
    a factor; a SWAP renames its two qudits, whatever their forms.
    A CPHASE between two digits scales the scalar; with a digit end at
    level x and a factor end, it adds ``theta*x`` (mod 2*pi) to an angle
    applied to the factor before its next use.  Every other op first
    widens its factors into trailing axes of the dense part and runs its
    gate kernel; a CPHASE kernel reads a digit end as its level.  Factors
    left at the end are widened the same way, and the dense axes are put
    in increasing qudit order.  So an adder run from digits ends all
    digits, and one without digits runs every other op on its kernel: the
    tests' reference.

    Raises ValueError, before allocating, if a widening would exceed
    ``core.MAX_AMPLITUDES``.  ``initial`` is then unchanged if no op had
    reached its dense part; otherwise its ``digits`` are as given and its
    ``dense`` is the dense part at the refused op: no longer one state.
    Raises RuntimeError if the final norm drifts from 1 by more than 1e-9:
    an ``initial`` that was not normalized, or a broken gate.
    """
    d, q = circuit.base, circuit.layout.total_qudits
    state = zero_state(circuit.layout) if initial is None else initial
    if state.base != d:
        raise ValueError(f"state base {state.base} != circuit base {d}")
    if state.num_qudits != q:
        raise ValueError(f"state has {state.num_qudits} qudits, circuit layout has {q}")
    digits = dict(state.digits)
    dense = [qi for qi in range(q) if qi not in digits]  # the axes of psi, in order
    factors: dict[int, np.ndarray] = {}
    angles: dict[int, float] = {}  # factor qudit -> c, for exp(i*c*level) on it
    psi, scalar, levels = state.dense, 1.0, np.arange(d)

    def settle(qi: int) -> np.ndarray:
        """Take the factor on ``qi`` out, with its pending angle applied."""
        c, f = angles.pop(qi, 0.0), factors.pop(qi)
        return f * np.exp(1j * c * levels) if c else f

    for op in circuit.ops:
        kind, qs, t = op.kind, op.qudits, op.qudits[0]
        if kind is GateKind.CPHASE:
            x, y = digits.get(t), digits.get(qs[1])
            if x == 0 or y == 0:  # a digit end at level 0: identity
                continue
            if x is not None and y is not None:
                scalar *= np.exp(1j * op.theta * x * y)
                continue
            end, level = (t, y) if x is None else (qs[1], x)
            if level is not None and end in factors:
                angles[end] = (angles.get(end, 0.0) + op.theta * level) % _TAU
                continue
        elif kind is GateKind.SWAP:
            for held in (digits, factors, angles):  # each entry to the other qudit
                held.update({qs[qi == t]: held.pop(qi) for qi in qs if qi in held})
            dense = [qs[qi == t] if qi in qs else qi for qi in dense]
            continue
        elif t in digits:
            if kind is GateKind.SHIFT:
                digits[t] = (digits[t] + op.k) % d
            else:
                factors[t] = _dft(d, op.dagger)[:, digits.pop(t)]
            continue
        elif t in factors:
            if kind is GateKind.SHIFT:
                factors[t] = np.roll(settle(t), op.k)
                continue
            f = _dft(d, op.dagger) @ settle(t)
            mags = np.abs(f)
            x = int(mags.argmax())
            mags[x] = 0.0
            if mags.max() <= _SNAP_ATOL:
                digits[t], scalar = x, scalar * f[x]
            else:
                factors[t] = f
            continue
        # the kernel, on the dense part widened by this op's factors
        wide = {qi: settle(qi) for qi in qs if qi in factors}
        if wide:
            # the state always holds the current vector, so a gate holds two at most
            psi, dense = _widen(psi, d, dense, wide)
            state.dense = psi
        axes = [dense.index(qi) for qi in qs if qi not in digits]
        if kind is GateKind.CPHASE:
            # a dense end ranges over the levels, the first along a column
            x, y = digits.get(t, levels[:, None]), digits.get(qs[1], levels)
            phase(psi, d, len(dense), axes, np.exp(1j * op.theta * x * y))
        else:
            psi = state.dense = apply_op(psi, d, len(dense), op, axes)
    if factors:
        psi, dense = _widen(psi, d, dense, {qi: settle(qi) for qi in list(factors)})
    if dense != sorted(dense):  # the axes in increasing qudit order, as documented
        psi = psi.reshape((d,) * len(dense)).transpose(np.argsort(dense)).reshape(-1)
    if scalar != 1.0:
        psi *= scalar
    state.dense, state.digits = psi, digits
    drift = state.norm_error()
    if not drift <= FINAL_NORM_ATOL:
        raise RuntimeError(f"final state norm off by {drift:.3e}")
    return state


def _widen(psi: np.ndarray, d: int, dense: list[int], vectors: dict) -> tuple:
    """``psi`` over the qudits ``dense`` times a d-vector per qudit in ``vectors``,
    as trailing axes, and its qudits; the size is checked before allocating."""
    _check_size(d, len(dense) + len(vectors))
    outer = functools.reduce(np.multiply.outer, vectors.values())
    return np.multiply.outer(psi, outer).reshape(-1), [*dense, *vectors]


def _marginal(state: StateVector, qudits: Sequence[int]) -> np.ndarray:
    """Exact outcome distribution of ``qudits`` in the given order.

    Sums squared magnitudes over the dense part only; a measured qudit
    with a known digit always reads that level.
    """
    d, known = state.base, state.digits
    dense = [qi for qi in range(state.num_qudits) if qi not in known]
    free = [dense.index(qi) for qi in qudits if qi not in known]
    probs = (np.abs(state.dense) ** 2).reshape((d,) * len(dense))
    moved = np.moveaxis(probs, free, range(len(free)))
    summed = moved.reshape(d ** len(free), -1).sum(axis=1)
    marginal = np.zeros((d,) * len(qudits))
    index = tuple(known.get(qi, slice(None)) for qi in qudits)
    marginal[index] = summed.reshape((d,) * len(free))
    return marginal.reshape(-1)


def measure(
    state: StateVector,
    qudits: Sequence[int],
    shots: int,
    noise: NoiseConfig | None = None,
) -> Histogram:
    """Sample ``shots`` outcomes from the marginal on ``qudits``.

    Noise, when configured, is the independent per-digit flip of
    ``NoiseConfig``: a d x d stochastic matrix applied to the exact marginal
    along each measured axis.  All shots are then one multinomial draw, so
    the work is O(width * d**(width+1)) whatever ``shots`` is, and the
    histogram is keyed by outcome value, with no digit text built.
    Identical (state, qudits, shots, noise) give identical histograms.

    Without noise, when every measured qudit is a digit of ``state``, the
    marginal is one-hot and the draw puts every shot on it: the histogram
    is that outcome with all shots, built with no marginal and no draw, at
    any width.

    Raises ValueError, before allocating, if ``shots * len(qudits)``
    exceeds ``MAX_SHOT_DIGITS``, or if a marginal is built (noise above 0,
    or a measured qudit in the dense part) and its ``d**len(qudits)``
    entries exceed ``core.MAX_AMPLITUDES``.  Raises RuntimeError if the
    state's probabilities sum to more than ``FINAL_NORM_ATOL`` off 1.
    """
    qudits = [operator.index(x) for x in qudits]
    if not qudits:
        raise ValueError("must measure at least one qudit")
    if len(set(qudits)) != len(qudits):
        raise ValueError(f"measured qudits must be distinct, got {qudits}")
    for qi in qudits:
        if not 0 <= qi < state.num_qudits:
            raise IndexError(f"qudit {qi} out of range for {state.num_qudits}")
    shots = operator.index(shots)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    width = len(qudits)
    if shots * width > MAX_SHOT_DIGITS:
        raise ValueError(
            f"{shots} shots of {width} digit(s) need {shots * width} digits, "
            f"over the limit of {MAX_SHOT_DIGITS}"
        )
    if noise is None:
        noise = NoiseConfig()
    d, known, p = state.base, state.digits, noise.readout_flip_probability
    if p == 0.0 and all(qi in known for qi in qudits):
        # every shot reads the known digits: the draw's one-hot outcome, undrawn
        total = float(np.sum(np.abs(state.dense) ** 2))
        if not abs(total - 1.0) <= FINAL_NORM_ATOL:
            raise RuntimeError(f"marginal probabilities sum to {total!r}")
        value = 0
        for qi in qudits:  # MSB first
            value = value * d + known[qi]
        return Histogram(d, width, {value: shots})
    if d**width > MAX_AMPLITUDES:
        raise ValueError(
            f"{width} measured base-{d} qudits need a marginal the size of "
            f"{d}**{width} amplitudes, over the limit of {MAX_AMPLITUDES}"
        )

    marginal = _marginal(state, qudits)
    total = float(marginal.sum())
    if not abs(total - 1.0) <= FINAL_NORM_ATOL:
        raise RuntimeError(f"marginal probabilities sum to {total!r}")
    marginal = marginal / total
    if p > 0.0:
        channel = np.full((d, d), p / (d - 1))
        np.fill_diagonal(channel, 1.0 - p)
        probs = marginal.reshape((d,) * width)
        for ax in range(width):
            probs = np.moveaxis(np.tensordot(channel, probs, axes=(1, ax)), 0, ax)
        marginal = probs.reshape(-1) / probs.sum()
    tallies = np.random.default_rng(noise.seed).multinomial(shots, marginal)
    seen = np.flatnonzero(tallies)
    return Histogram(d, width, dict(zip(seen.tolist(), tallies[seen].tolist())))


def histogram_to_json(histogram: Histogram) -> str:
    """Serialize as {base, shots, counts} with keys in increasing value."""
    payload = {
        "base": histogram.base,
        "shots": histogram.shots,
        "counts": histogram.counts,
    }
    return json.dumps(payload, indent=2) + "\n"
