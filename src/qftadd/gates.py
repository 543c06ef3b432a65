"""Gate kernels for d-level systems: one state-vector update per gate kind.

The generalized Hadamard is the d-point discrete Fourier matrix with
positive-exponent convention; the controlled phase gate is diagonal with
entry ``exp(i*theta*j*m)`` for control level j and target level m.  Each
kind updates the amplitude buffer through a reshaped view of at most
five axes, never by forming the full ``d**q x d**q`` operator or a
dense two-qudit matrix.  CPHASE multiplies in place; HADAMARD, SHIFT and
SWAP write one new buffer, so a gate holds at most two states at once.

Ops arrive checked: ``GateOp`` fixes arity and distinct qudits,
``Circuit`` bounds them by its layout, and ``execute`` matches the state
to the circuit.  The kernels repeat none of those checks.
"""

from __future__ import annotations

import numpy as np

from .circuit import GateKind, GateOp
from .core import StateVector

# Above this many columns the block-diagonal Hadamard costs more flops
# than a batched d x d product saves in per-batch overhead (measured at
# 2^20 amplitudes for d in 2..16).
_BLOCK_HADAMARD_MAX = 64


def _dft(d: int, dagger: bool) -> np.ndarray:
    """d-level Hadamard: entry (m, j) = exp(2*pi*i*j*m/d) / sqrt(d)."""
    levels = np.arange(d)
    sign = -1.0 if dagger else 1.0
    return np.exp(sign * 2j * np.pi * np.outer(levels, levels) / d) / np.sqrt(d)


def _hadamard(psi: np.ndarray, d: int, lead: int, trail: int, dagger: bool) -> np.ndarray:
    """Contract the DFT over the middle axis of psi viewed as (lead, d, trail).

    The DFT is symmetric, so it equals its transpose in either form.
    With a short trailing axis, one GEMM against the block-diagonal
    ``F (x) I_trail`` avoids ``lead`` tiny matrix products; otherwise a
    batched ``F @ view`` runs ``lead`` products of width ``trail``.
    """
    dft = _dft(d, dagger)
    if d * trail <= _BLOCK_HADAMARD_MAX:
        block = (dft[:, None, :, None] * np.eye(trail)[None, :, None, :]).reshape(
            d * trail, d * trail
        )
        return psi.reshape(lead, d * trail) @ block
    return np.matmul(dft, psi.reshape(lead, d, trail))


def apply_op(state: StateVector, op: GateOp) -> None:
    """Apply one gate to ``state``, rebinding its amplitude buffer."""
    d, q = state.base, state.num_qudits
    psi = state.amplitudes
    if op.kind is GateKind.CPHASE or op.kind is GateKind.SWAP:
        a, b = sorted(op.qudits)
        view = psi.reshape(d**a, d, d ** (b - a - 1), d, d ** (q - b - 1))
        if op.kind is GateKind.SWAP:
            psi = np.ascontiguousarray(view.swapaxes(1, 3))
        else:
            # exp(i*theta*j*m) is symmetric in (j, m): qudit order is free
            levels = np.arange(d)
            table = np.exp(1j * op.theta * np.outer(levels, levels))
            view *= table[:, None, :, None]
            psi = view
    else:
        (t,) = op.qudits
        lead, trail = d**t, d ** (q - t - 1)
        if op.kind is GateKind.HADAMARD:
            psi = _hadamard(psi, d, lead, trail, op.dagger)
        else:  # SHIFT: |m> -> |(m + k) mod d>
            psi = np.roll(psi.reshape(lead, d, trail), op.k, axis=1)
    state.amplitudes = psi.reshape(-1)


def _phase(state: StateVector, t: int, phases: np.ndarray) -> None:
    """Scale, in place, the amplitudes with qudit ``t`` at level m by ``phases[m]``.

    A CPHASE whose other end holds a known digit j is this one-qudit
    diagonal with ``phases[m] = exp(i*theta*j*m)``.
    """
    d, q = state.base, state.num_qudits
    view = state.amplitudes.reshape(d**t, d, d ** (q - t - 1))
    view *= phases[:, None]
