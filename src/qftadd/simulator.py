"""Circuit execution into state vectors, plus shot-based measurement.

Measurement samples from the exact marginal of the selected qudits and
never collapses the state, so repeated calls on one state are allowed.
All randomness flows through one numpy Generator (PCG64) seeded from
NoiseConfig, making every histogram reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit, GateKind, GateOp
from .core import (
    RegisterLayout,
    StateVector,
    _check_size,
    from_integer,
    parse_digit_text,
    to_integer,
    zero_state,
)
from .gates import _phase, apply_op

FINAL_NORM_ATOL = 1e-9
# the only kinds that take a qudit out of the computational basis
_MIXING = frozenset((GateKind.HADAMARD, GateKind.SWAP))
# Largest shots x width digit array ``measure`` may build.  With noise it
# holds about four arrays of that shape, 8 bytes per entry: 512 MiB here.
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
    """Apply the circuit's ops in order; returns the final state.

    The default initial state is all-zero on the circuit's layout.  From
    there a qudit that no HADAMARD or SWAP touches never leaves the
    computational basis, so it is tracked as a digit: a SHIFT adds to
    it, and a CPHASE whose end holds digit j becomes the one-qudit phase
    ``exp(i*theta*j*m)`` on its other end, or a global phase when both
    ends hold digits.  The gate kernels run on a dense vector over the
    remaining qudits, and the returned state is that vector plus the
    digits.  Given ``initial``, that state is made plain dense if it has
    digits, then updated and returned, and every qudit is dense, so
    ``execute(circuit, zero_state(circuit.layout))`` is the dense
    reference for the default path.

    Raises ValueError, before allocating, if the full state would exceed
    ``core.MAX_AMPLITUDES``, and RuntimeError if the final norm drifts
    from 1 by more than 1e-9, which would mean a broken gate rather than
    user error.
    """
    d, q = circuit.base, circuit.layout.total_qudits
    if initial is None:
        _check_size(d, q)
        mixed = {qi for op in circuit.ops if op.kind in _MIXING for qi in op.qudits}
        digits = {qi: 0 for qi in range(q) if qi not in mixed}
        state = zero_state(RegisterLayout(d, (("dense", q - len(digits)),)))
    else:
        state = initial
        if state.base != d:
            raise ValueError(f"state base {state.base} != circuit base {d}")
        if state.num_qudits != q:
            raise ValueError(
                f"state has {state.num_qudits} qudits, circuit layout has {q}"
            )
        if state.digits:
            state.amplitudes = state.amplitudes.copy()
        digits = {}
    dense = [qi for qi in range(q) if qi not in digits]
    axis = {qi: i for i, qi in enumerate(dense)}
    for op in circuit.ops:
        known = [qi for qi in op.qudits if qi in digits]
        if not known:
            apply_op(state, _on_axes(op, axis))
        elif op.kind is GateKind.SHIFT:
            digits[op.qudits[0]] = (digits[op.qudits[0]] + op.k) % d
        else:  # CPHASE with one or both digits known
            j = math.prod(digits[qi] for qi in known)
            if j == 0:
                continue
            if len(known) == 2:
                state.amplitudes *= np.exp(1j * op.theta * j)
            else:
                (other,) = (qi for qi in op.qudits if qi not in digits)
                _phase(state, axis[other], np.exp(1j * op.theta * (j * np.arange(d))))
    drift = state.norm_error()
    if not drift <= FINAL_NORM_ATOL:
        raise RuntimeError(f"final state norm off by {drift:.3e}")
    if digits:
        state = StateVector(d, q, state.dense, digits)
    return state


def _on_axes(op: GateOp, axis: dict[int, int]) -> GateOp:
    """``op`` with each qudit renumbered to its axis in the dense vector."""
    qudits = tuple(axis[qi] for qi in op.qudits)
    if qudits == op.qudits:
        return op
    return GateOp(op.kind, qudits, op.theta, op.k, op.dagger)


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
    width = len(qudits)
    if shots * width > MAX_SHOT_DIGITS:
        raise ValueError(
            f"{shots} shots of {width} digit(s) need {shots * width} digits, "
            f"over the limit of {MAX_SHOT_DIGITS}"
        )
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
