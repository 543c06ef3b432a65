"""Each gate kind, run as a one-op circuit through ``execute``, against
slow index-by-index and DFT references."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import as_dense, dft_matrix, fragment_unitary
from qftadd import (
    Circuit,
    GateKind,
    GateOp,
    RegisterLayout,
    StateVector,
    basis_state,
    execute,
    from_integer,
)

# (d, q) pairs small enough for naive_apply, up to a wide base
SIZES = [(2, 5), (3, 4), (5, 3), (11, 3)]


def naive_apply(state_vec, gate, targets, d, q):
    """Slow reference: embed the gate into the full d**q space index by index."""
    dim = d**q
    out = np.zeros(dim, dtype=np.complex128)
    arity = len(targets)
    for col in range(dim):
        digits = [(col // d ** (q - 1 - g)) % d for g in range(q)]
        sub_col = 0
        for t in targets:
            sub_col = sub_col * d + digits[t]
        for sub_row in range(d**arity):
            new_digits = list(digits)
            rest = sub_row
            for t in reversed(targets):
                new_digits[t] = rest % d
                rest //= d
            row = 0
            for g in range(q):
                row = row * d + new_digits[g]
            out[row] += gate[sub_row, sub_col] * state_vec[col]
    return out


def random_state(d, q, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=d**q) + 1j * rng.normal(size=d**q)
    return amps / np.linalg.norm(amps)


def run(d, q, ops, amps):
    """Execute ``ops`` on a copy of ``amps``; returns the new amplitudes."""
    layout = RegisterLayout(d, (("r", q),))
    state = execute(Circuit(d, layout, tuple(ops)), initial=StateVector(d, q, amps.copy()))
    return state.amplitudes


def unitary(d, q, ops):
    return fragment_unitary(Circuit(d, RegisterLayout(d, (("r", q),)), tuple(ops)))


def shift_permutation(d, k):
    """|m> -> |(m + k) mod d> as a d x d matrix."""
    return np.roll(np.eye(d), k, axis=0)


def cphase_diagonal(d, theta):
    levels = np.arange(d)
    return np.diag(np.exp(1j * theta * np.outer(levels, levels)).reshape(-1))


def test_hadamard_unitary_and_entries():
    for d in (2, 3, 5, 11):
        h = unitary(d, 1, [GateOp(GateKind.HADAMARD, (0,))])
        assert np.allclose(h, dft_matrix(d), atol=1e-12)
        assert h[1, 1] == pytest.approx(np.exp(2j * np.pi / d) / np.sqrt(d))
        assert np.allclose(h @ h.conj().T, np.eye(d), atol=1e-12)
        h_dag = unitary(d, 1, [GateOp(GateKind.HADAMARD, (0,), dagger=True)])
        assert np.allclose(h_dag, dft_matrix(d).conj().T, atol=1e-12)


def test_hadamard_not_self_inverse_above_base_two():
    h = GateOp(GateKind.HADAMARD, (0,))
    h_dag = GateOp(GateKind.HADAMARD, (0,), dagger=True)
    assert not np.allclose(unitary(3, 1, [h, h]), np.eye(3), atol=1e-6)
    assert np.allclose(unitary(3, 1, [h, h_dag]), np.eye(3), atol=1e-12)


def test_cphase_diagonal():
    theta = 0.37
    for d in (2, 3, 5, 11):
        cp = unitary(d, 2, [GateOp(GateKind.CPHASE, (0, 1), theta=theta)])
        assert np.allclose(cp, cphase_diagonal(d, theta), atol=1e-12)


def test_cphase_symmetric_in_roles():
    for d, q in SIZES:
        for a, b in [(0, 1), (0, q - 1), (q - 2, q - 1)]:
            forward = unitary(d, q, [GateOp(GateKind.CPHASE, (a, b), theta=1.1)])
            backward = unitary(d, q, [GateOp(GateKind.CPHASE, (b, a), theta=1.1)])
            assert np.array_equal(forward, backward)


def test_shift_adds_modulo_d():
    # a basis state holds its digits, which a SHIFT adds to; its dense copy
    # runs the np.roll kernel
    for d, q in SIZES:
        layout = RegisterLayout(d, (("r", q),))
        start = from_integer(d**q // 3, d, q)
        for target, k, dense in itertools.product(range(q), (1, d - 1), (False, True)):
            initial = basis_state(layout, [start])
            if dense:
                initial = as_dense(initial)
            assert len(initial.digits) == (0 if dense else q)
            state = execute(
                Circuit(d, layout, (GateOp(GateKind.SHIFT, (target,), k=k),)), initial
            )
            digits = list(start.digits)
            digits[target] = (digits[target] + k) % d
            index = sum(x * d ** (q - 1 - g) for g, x in enumerate(digits))
            assert state.amplitudes[index] == 1
            assert np.count_nonzero(state.amplitudes) == 1


def test_shift_zero_is_identity():
    assert np.array_equal(unitary(5, 2, [GateOp(GateKind.SHIFT, (1,), k=0)]), np.eye(25))


def test_apply_single_qudit_gate_matches_naive():
    for d, q in SIZES:
        amps = random_state(d, q, seed=7 + d)
        references = [
            ({}, dft_matrix(d)),
            ({"dagger": True}, dft_matrix(d).conj().T),
        ]
        for target in range(q):
            for params, gate in references:
                got = run(d, q, [GateOp(GateKind.HADAMARD, (target,), **params)], amps)
                assert np.allclose(got, naive_apply(amps, gate, [target], d, q), atol=1e-12)
            for k in (1, d - 1):
                got = run(d, q, [GateOp(GateKind.SHIFT, (target,), k=k)], amps)
                ref = naive_apply(amps, shift_permutation(d, k), [target], d, q)
                assert np.array_equal(got, ref)


def test_apply_two_qudit_gate_matches_naive():
    theta = 0.9
    for d, q in SIZES:
        amps = random_state(d, q, seed=11 + d)
        gate = cphase_diagonal(d, theta)
        pairs = [(0, 1), (1, 0), (0, q - 1), (q - 1, 0), (q - 2, q - 1), (q - 1, 1)]
        for control, target in pairs:
            op = GateOp(GateKind.CPHASE, (control, target), theta=theta)
            ref = naive_apply(amps, gate, [control, target], d, q)
            assert np.allclose(run(d, q, [op], amps), ref, atol=1e-12)


def test_swap_matches_permutation():
    for d, q in SIZES:
        amps = random_state(d, q, seed=3 + d)
        tensor = amps.reshape((d,) * q)
        for i, j in [(0, 1), (0, q - 1), (q - 1, 1), (q - 2, q - 1)]:
            got = run(d, q, [GateOp(GateKind.SWAP, (i, j))], amps)
            assert np.array_equal(got, np.swapaxes(tensor, i, j).reshape(-1))


@given(st.integers(2, 11), st.integers(0, 10))
def test_shift_composes_additively(d, k):
    once = GateOp(GateKind.SHIFT, (0,), k=k)
    # an amount of d or more wraps, as |m> -> |(m + k) mod d> says
    assert np.array_equal(
        unitary(d, 1, [once, once]),
        unitary(d, 1, [GateOp(GateKind.SHIFT, (0,), k=2 * k)]),
    )


def test_norm_preserved_by_gates():
    for d, q in [(4, 3), (11, 3)]:
        ops = [
            GateOp(GateKind.HADAMARD, (1,)),
            GateOp(GateKind.CPHASE, (0, 2), theta=2.2),
            GateOp(GateKind.SWAP, (1, 2)),
            GateOp(GateKind.SHIFT, (2,), k=d - 1),
            GateOp(GateKind.HADAMARD, (2,), dagger=True),
        ]
        amps = run(d, q, ops, random_state(d, q, seed=19))
        assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12
