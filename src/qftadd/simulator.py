"""Circuit execution into state vectors, plus shot-based measurement.

``execute`` runs an adder in a few numpy calls: its QFT and IQFT spans
each as one FFT, and each classical addend's controlled phases folded
into one diagonal pass per span qudit (Draper's phi-ADD).  Every other op
runs on its gate kernel in ``gates``.

Measurement samples from the exact marginal of the selected qudits and
never collapses the state, so repeated calls on one state are allowed.
All randomness flows through one numpy Generator (PCG64) seeded from
NoiseConfig, making every histogram reproducible bit for bit.

A histogram holds outcomes as integers; digit text is rendered only where
text is asked for, by ``counts``, ``top_outcome`` and ``histogram_to_json``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .circuit import Circuit, GateKind, _ladder_match
from .core import MAX_AMPLITUDES, StateVector, from_integer, zero_state
from .gates import apply_op, fourier, phase

FINAL_NORM_ATOL = 1e-9
_TAU = 2.0 * math.pi
# the only kinds that take a qudit out of the computational basis
_MIXING = frozenset((GateKind.HADAMARD, GateKind.SWAP))
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

    @cached_property
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

    The default start is ``zero_state(circuit.layout)``, one tracked digit
    per qudit.  A digit stays tracked unless a HADAMARD or SWAP in the
    circuit touches its qudit; those are widened into the dense part before
    the first op.  A SHIFT adds to a digit; a CPHASE is ``exp(i*theta*x*y)``
    with x or y fixed at each tracked end.  So an adder's kernels touch only
    the ``d**(t+n)`` amplitudes of the Fourier span.

    Two shortcuts keep an adder to a few numpy calls.  A labelled span
    whose ops equal a ``build_qft`` or ``build_iqft`` ladder (compared op
    by op, whatever its name) runs as one ``d**w``-point FFT.  A CPHASE
    with one tracked end at level x adds ``theta*x`` (mod 2*pi) to an angle
    kept for its dense end's axis; those angles are applied, one ``phase``
    pass per axis, before the next HADAMARD, SWAP, dense SHIFT or FFT and
    at the end.  A circuit without labels from an ``initial`` without
    digits runs every op on its gate kernel: the tests' reference.

    Raises ValueError, before the first op and with the state unchanged,
    if the widened dense part exceeds ``core.MAX_AMPLITUDES``: for an
    adder's default start that is the span, not the ``d**q`` layout.  Raises
    RuntimeError if the final norm drifts from 1 by more than 1e-9: an
    ``initial`` that was not normalized, or a broken gate.  Non-finite
    amplitudes never get this far; ``StateVector`` refuses them.
    """
    d, q = circuit.base, circuit.layout.total_qudits
    state = zero_state(circuit.layout) if initial is None else initial
    if state.base != d:
        raise ValueError(f"state base {state.base} != circuit base {d}")
    if state.num_qudits != q:
        raise ValueError(f"state has {state.num_qudits} qudits, circuit layout has {q}")
    mixed = {qi for op in circuit.ops if op.kind in _MIXING for qi in op.qudits}
    # the state always holds the current vector, so a gate holds two at most
    psi = state.dense = state.widened(mixed & state.digits.keys())
    digits = state.digits = {qi: v for qi, v in state.digits.items() if qi not in mixed}
    axis = {qi: i for i, qi in enumerate(qi for qi in range(q) if qi not in digits)}
    m, levels = len(axis), np.arange(d)
    column = levels[:, None]
    # label spans that are a QFT or IQFT ladder: start -> (stop, lo, width, sign)
    ffts = {}
    for _, lo, hi in circuit.labels:
        match = _ladder_match(d, circuit.ops[lo:hi])
        if match is not None:
            ffts.setdefault(lo, (hi, *match))
    # folded one-dense-end CPHASEs: dense axis -> c, for exp(i*c*level) on it
    angles: dict[int, float] = {}
    ops, i = circuit.ops, 0
    while i < len(ops):
        if i in ffts:
            i, lo, width, sign = ffts[i]
            _flush(psi, d, m, angles)
            psi = state.dense = fourier(psi, d, axis[lo], width, sign)
            continue
        op = ops[i]
        i += 1
        if op.kind is GateKind.CPHASE:
            a, b = op.qudits
            x, y = digits.get(a), digits.get(b)
            if x == 0 or y == 0:  # a tracked end at level 0: identity
                continue
            if (x is None) != (y is None):  # one dense end: fold its angle
                ax, level = (axis[a], y) if x is None else (axis[b], x)
                angles[ax] = (angles.get(ax, 0.0) + op.theta * level) % _TAU
                continue
            if x is None:  # both ends dense: x*y broadcasts to their levels
                x, y = column, levels
            axes = [axis[qi] for qi in op.qudits if qi in axis]
            phase(psi, d, m, axes, np.exp(1j * op.theta * x * y))
        elif op.qudits[0] in digits:  # a SHIFT on a tracked digit
            digits[op.qudits[0]] = (digits[op.qudits[0]] + op.k) % d
        else:
            _flush(psi, d, m, angles)
            psi = state.dense = apply_op(psi, d, m, op, [axis[qi] for qi in op.qudits])
    _flush(psi, d, m, angles)
    drift = state.norm_error()
    if not drift <= FINAL_NORM_ATOL:
        raise RuntimeError(f"final state norm off by {drift:.3e}")
    return state


def _flush(psi: np.ndarray, d: int, m: int, angles: dict[int, float]) -> None:
    """Apply and forget the folded angles: ``exp(i*c*level)`` on each axis."""
    levels = np.arange(d)
    for ax, c in angles.items():
        phase(psi, d, m, [ax], np.exp(1j * c * levels))
    angles.clear()


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

    Raises ValueError, before allocating, if ``shots * len(qudits)``
    exceeds ``MAX_SHOT_DIGITS`` or the ``d**len(qudits)`` marginal exceeds
    ``core.MAX_AMPLITUDES``.
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
    d = state.base
    if d**width > MAX_AMPLITUDES:
        raise ValueError(
            f"{width} measured base-{d} qudits need a marginal the size of "
            f"{d}**{width} amplitudes, over the limit of {MAX_AMPLITUDES}"
        )
    if noise is None:
        noise = NoiseConfig()

    marginal = _marginal(state, qudits)
    total = float(marginal.sum())
    if not abs(total - 1.0) <= FINAL_NORM_ATOL:
        raise RuntimeError(f"marginal probabilities sum to {total!r}")
    marginal = marginal / total
    p = noise.readout_flip_probability
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
