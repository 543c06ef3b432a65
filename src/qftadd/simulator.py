"""Circuit execution on dense state vectors, plus shot-based measurement.

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

from .circuit import Circuit
from .core import StateVector, from_integer, parse_digit_text, to_integer, zero_state
from .gates import apply_op

FINAL_NORM_ATOL = 1e-9


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
    """Apply the circuit's ops in order; returns the mutated state.

    The default initial state is all-zero on the circuit's layout.
    Raises RuntimeError if the final norm drifts from 1 by more than
    1e-9, which would mean a broken gate rather than user error.
    """
    if initial is None:
        state = zero_state(circuit.layout)
    else:
        state = initial
        if state.base != circuit.base:
            raise ValueError(
                f"state base {state.base} != circuit base {circuit.base}"
            )
        if state.num_qudits != circuit.layout.total_qudits:
            raise ValueError(
                f"state has {state.num_qudits} qudits, "
                f"circuit layout has {circuit.layout.total_qudits}"
            )
    for op in circuit.ops:
        apply_op(state, op)
    drift = state.norm_error()
    if not drift <= FINAL_NORM_ATOL:
        raise RuntimeError(f"final state norm off by {drift:.3e}")
    return state


def _marginal(state: StateVector, qudits: Sequence[int]) -> np.ndarray:
    """Exact outcome distribution of ``qudits`` in the given order."""
    d, q = state.base, state.num_qudits
    probs = state.probabilities().reshape((d,) * q)
    kept = len(qudits)
    moved = np.moveaxis(probs, qudits, range(kept))
    return moved.reshape(d**kept, -1).sum(axis=1)


def measure(
    state: StateVector,
    qudits: Sequence[int],
    shots: int,
    noise: NoiseConfig | None = None,
) -> Histogram:
    """Sample ``shots`` digit strings from the marginal on ``qudits``.

    Noise, when configured, independently corrupts each sampled digit
    after the ideal draw.  Identical (state, qudits, shots, noise) give
    identical histograms.
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
    if noise is None:
        noise = NoiseConfig()

    d = state.base
    marginal = _marginal(state, qudits)
    total = float(marginal.sum())
    if not abs(total - 1.0) <= FINAL_NORM_ATOL:
        raise RuntimeError(f"marginal probabilities sum to {total!r}")
    marginal = marginal / total

    rng = np.random.default_rng(noise.seed)
    outcomes = rng.choice(marginal.size, size=shots, p=marginal)

    width = len(qudits)
    digits = np.empty((shots, width), dtype=np.int64)
    rest = outcomes
    for pos in range(width - 1, -1, -1):
        digits[:, pos] = rest % d
        rest = rest // d

    p = noise.readout_flip_probability
    if p > 0.0:
        flips = rng.random((shots, width)) < p
        offsets = rng.integers(1, d, size=(shots, width))
        digits = np.where(flips, (digits + offsets) % d, digits)

    weights = d ** np.arange(width - 1, -1, -1, dtype=np.int64)
    values, tallies = np.unique(digits @ weights, return_counts=True)
    counts = {
        from_integer(int(v), d, width).to_string(): int(c)
        for v, c in zip(values, tallies)
    }
    return Histogram(base=d, shots=shots, counts=counts)


def histogram_to_json(histogram: Histogram) -> str:
    """Serialize as {base, shots, counts} with keys in sorted order."""
    payload = {
        "base": histogram.base,
        "shots": histogram.shots,
        "counts": {key: histogram.counts[key] for key in sorted(histogram.counts)},
    }
    return json.dumps(payload, indent=2) + "\n"
