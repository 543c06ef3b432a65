"""Circuit execution into state vectors, plus shot-based measurement.

Measurement samples from the exact marginal of the selected qudits and
never collapses the state, so repeated calls on one state are allowed.
All randomness flows through one numpy Generator (PCG64) seeded from
NoiseConfig, making every histogram reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit, GateKind
from .core import MAX_AMPLITUDES, StateVector, from_integer, parse_digit_text, to_integer
from .gates import apply_op, phase

FINAL_NORM_ATOL = 1e-9
# the only kinds that take a qudit out of the computational basis
_MIXING = frozenset((GateKind.HADAMARD, GateKind.SWAP))
# Most shots x width digits ``measure`` may sample.  Its arrays are of
# marginal size, so this bounds the Python work of writing the keys.
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
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass(frozen=True, eq=False)
class Histogram:
    """Shot counts keyed by measured digit strings, MSB first."""

    base: int
    shots: int
    counts: dict[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", dict(self.counts))
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        total = sum(self.counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")
        widths = set()
        for key, count in self.counts.items():
            if count < 1:
                raise ValueError(f"count for {key!r} must be >= 1, got {count}")
            widths.add(parse_digit_text(key, self.base).width)
        if len(widths) > 1:
            raise ValueError(f"keys have mixed widths {sorted(widths)}")

    def top_outcome(self) -> str:
        """Most frequent key; ties break toward the smaller integer value."""
        return min(
            self.counts,
            key=lambda key: (
                -self.counts[key],
                to_integer(parse_digit_text(key, self.base)),
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.base == other.base
            and self.shots == other.shots
            and self.counts == other.counts
        )


def execute(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit's ops in order to ``initial``, updating and returning it.

    The default start is all-zero, held as one tracked digit per qudit.  A
    digit stays tracked unless a HADAMARD or SWAP in the circuit touches
    its qudit; those are widened into the dense part before the first op.
    A SHIFT adds to a digit, and a CPHASE is the diagonal
    ``exp(i*theta*x*y)`` with x or y fixed at each tracked end.  So for an
    adder the kernels touch only the ``d**(t+n)`` amplitudes of the Fourier
    span.  A dense ``initial`` such as ``zero_state(circuit.layout)`` keeps
    every qudit dense: the tests' reference for the default start.

    Raises ValueError, before the first op and with the state unchanged,
    if the widened dense part exceeds ``core.MAX_AMPLITUDES``: for an
    adder's default start that is the span, not the ``d**q`` layout.  Raises
    RuntimeError if the final norm drifts from 1 by more than 1e-9, which
    would mean a broken gate rather than user error.
    """
    d, q = circuit.base, circuit.layout.total_qudits
    if initial is None:
        initial = StateVector(d, q, np.ones(1), dict.fromkeys(range(q), 0))
    state = initial
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
    for op in circuit.ops:
        if op.kind is GateKind.CPHASE:
            a, b = op.qudits
            x, y = digits.get(a), digits.get(b)
            if x == 0 or y == 0:  # a tracked end at level 0: identity
                continue
            # x*y broadcasts to the levels of each dense end
            x = column if x is None else x
            y = levels if y is None else y
            axes = [axis[qi] for qi in op.qudits if qi in axis]
            phase(psi, d, m, axes, np.exp(1j * op.theta * x * y))
        elif op.qudits[0] in digits:  # a SHIFT on a tracked digit
            digits[op.qudits[0]] = (digits[op.qudits[0]] + op.k) % d
        else:
            psi = state.dense = apply_op(psi, d, m, op, [axis[qi] for qi in op.qudits])
    drift = state.norm_error()
    if not drift <= FINAL_NORM_ATOL:
        raise RuntimeError(f"final state norm off by {drift:.3e}")
    return state


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
    """Sample ``shots`` digit strings from the marginal on ``qudits``.

    Noise, when configured, is the independent per-digit flip of
    ``NoiseConfig``: a d x d stochastic matrix applied to the exact marginal
    along each measured axis.  All shots are then one multinomial draw, so
    the work is O(width * d**(width+1)) whatever ``shots`` is.  Identical
    (state, qudits, shots, noise) give identical histograms.

    Raises ValueError, before allocating, if ``shots * len(qudits)``
    exceeds ``MAX_SHOT_DIGITS`` or the ``d**len(qudits)`` marginal exceeds
    ``core.MAX_AMPLITUDES``.
    """
    qudits = [int(x) for x in qudits]
    if not qudits:
        raise ValueError("must measure at least one qudit")
    if len(set(qudits)) != len(qudits):
        raise ValueError(f"measured qudits must be distinct, got {qudits}")
    for qi in qudits:
        if not 0 <= qi < state.num_qudits:
            raise IndexError(f"qudit {qi} out of range for {state.num_qudits}")
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
    counts = {
        from_integer(int(v), d, width).to_string(): int(tallies[v])
        for v in np.flatnonzero(tallies)
    }
    return Histogram(base=d, shots=shots, counts=counts)


def histogram_to_json(histogram: Histogram) -> str:
    """Serialize as {base, shots, counts} with keys in increasing value."""
    d = histogram.base
    keys = sorted(
        histogram.counts, key=lambda key: to_integer(parse_digit_text(key, d))
    )
    payload = {
        "base": d,
        "shots": histogram.shots,
        "counts": {key: histogram.counts[key] for key in keys},
    }
    return json.dumps(payload, indent=2) + "\n"
