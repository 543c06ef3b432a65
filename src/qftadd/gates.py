"""Gate kernels for d-level systems on bare amplitude arrays.

Each kernel takes ``psi``, the ``d**m`` amplitudes of ``m`` qudits (in
``execute``, the dense part of a state), and the positions of its targets
in it; it repeats none of the checks that ``GateOp``, ``Circuit`` and
``execute`` make.  Each works on a reshaped view of at most five axes,
never on a ``d**m x d**m`` operator.  :func:`phase` scales in place and
covers every CPHASE that reaches the dense part, the diagonal
``exp(i*theta*x*y)`` with two dense ends or with one and the other's
level fixed.  HADAMARD (the d-point DFT) and SHIFT return one new buffer,
so a gate holds at most two vectors at once.  There is no SWAP kernel:
``execute`` renames qudits instead.  The Hadamard keeps two forms, picked
from the shape: summed over every target, each single form was slower
than the pair (README, "Simulation and noise"); at d=2 on 2**20
amplitudes the batched ``d x d`` product took about 4x as long,
``tensordot`` 4x and ``np.fft`` 8-9x.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .circuit import _HADAMARD, GateOp

# Above this many columns the block-diagonal Hadamard costs more flops
# than a batched d x d product saves in per-batch overhead (measured at
# 2^20 amplitudes for d in 2..16).
_BLOCK_HADAMARD_MAX = 64


@functools.lru_cache(maxsize=64)
def _dft(d: int, dagger: bool) -> np.ndarray:
    """d-level Hadamard: entry (m, j) = exp(2*pi*i*j*m/d) / sqrt(d); cached, read-only."""
    levels = np.arange(d)
    sign = -1.0 if dagger else 1.0
    dft = np.exp(sign * 2j * np.pi * np.outer(levels, levels) / d) / np.sqrt(d)
    dft.flags.writeable = False
    return dft


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


def apply_op(psi: np.ndarray, d: int, m: int, op: GateOp, axes: Sequence[int]) -> np.ndarray:
    """Apply a HADAMARD or SHIFT on the one axis in ``axes`` of psi; returns a new vector."""
    (t,) = axes
    lead, trail = d**t, d ** (m - t - 1)
    if op.kind is _HADAMARD:
        return _hadamard(psi, d, lead, trail, op.dagger).reshape(-1)
    # SHIFT: |j> -> |(j + k) mod d>
    return np.roll(psi.reshape(lead, d, trail), op.k, axis=1).reshape(-1)


def phase(psi: np.ndarray, d: int, m: int, axes: Sequence[int], table: np.ndarray) -> None:
    """Scale psi in place by ``table[x, y, ...]`` at levels x, y, ... on ``axes``.

    ``table`` holds ``d**len(axes)`` entries in any shape, for one or two
    axes; with two it must be symmetric, as ``exp(i*theta*x*y)`` is.
    psi is one-dimensional, so its reshape is a view at any stride and the
    product writes through.
    """
    shape, start = [], 0
    for ax in sorted(axes):
        shape += [d ** (ax - start), d]
        start = ax + 1
    view = psi.reshape(*shape, d ** (m - start))
    view *= table.reshape((d, 1) * len(axes))
