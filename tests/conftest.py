"""Shared helpers: dense unitary extraction and DFT reference matrices."""

import numpy as np

from qftadd import Circuit, RegisterLayout, StateVector, execute


def dft_matrix(dim: int) -> np.ndarray:
    """The dim-point DFT with the physics sign convention (+i in the kernel)."""
    k = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)


def as_dense(state: StateVector) -> StateVector:
    """A copy of ``state`` with every qudit in the dense part and no digits.

    ``execute`` runs it on the gate kernels alone: the reference for its
    digit path, which every ``basis_state`` and ``zero_state`` takes.
    """
    return StateVector(state.base, state.num_qudits, np.array(state.amplitudes))


def fragment_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a circuit, extracted through the real apply path.

    Runs the circuit once on a maximally entangled pair of registers;
    the joint amplitudes then hold every column of the unitary at once.
    Cheaper than dim separate executions for anything non-tiny.
    """
    d = circuit.base
    q = circuit.layout.total_qudits
    dim = d**q
    doubled = RegisterLayout(d, (("out", q), ("ref", q)))
    wide = Circuit(d, doubled, circuit.ops)
    amps = (np.eye(dim, dtype=np.complex128) / np.sqrt(dim)).reshape(-1)
    state = StateVector(d, 2 * q, amps)
    execute(wide, state)
    return state.amplitudes.reshape(dim, dim) * np.sqrt(dim)
