import cmath
import collections
import copy
import functools
import gc
import itertools
import json
import math
import mmap
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import as_dense
from qftadd import (
    AdderSpec,
    Circuit,
    DigitString,
    GateKind,
    GateOp,
    Histogram,
    Mode,
    NoiseConfig,
    RegisterLayout,
    StateVector,
    basis_state,
    build_full_adder,
    build_qft,
    classical_oracle,
    execute,
    from_integer,
    histogram_to_json,
    measure,
    parse_digit_text,
    required_ancillas,
    to_integer,
    zero_state,
)
from qftadd import simulator
from qftadd.circuit import _turn
from qftadd.core import MAX_AMPLITUDES
from qftadd.simulator import MAX_SHOT_DIGITS


def test_execute_empty_circuit_keeps_state():
    layout = RegisterLayout(3, (("r", 2),))
    circ = Circuit(3, layout, ())
    state = execute(circ)
    assert state.amplitudes[0] == 1
    assert np.count_nonzero(state.amplitudes) == 1


def test_execute_qft_gives_uniform_superposition():
    for d, q in [(2, 3), (3, 2), (5, 2)]:
        layout = RegisterLayout(d, (("r", q),))
        state = execute(build_qft(layout, range(q)))
        magnitudes = np.abs(state.amplitudes)
        assert np.allclose(magnitudes, 1 / np.sqrt(d**q), atol=1e-9)


def test_execute_dimension_mismatch():
    layout = RegisterLayout(2, (("r", 2),))
    circ = build_qft(layout, range(2))
    wrong = zero_state(RegisterLayout(2, (("r", 3),)))
    with pytest.raises(ValueError):
        execute(circ, wrong)
    wrong_base = zero_state(RegisterLayout(3, (("r", 2),)))
    with pytest.raises(ValueError):
        execute(circ, wrong_base)


def test_execute_norm_guard():
    # a state with broken norm should be caught at the end of execution
    layout = RegisterLayout(2, (("r", 1),))
    circ = Circuit(2, layout, (GateOp(GateKind.HADAMARD, (0,)),))
    bad = StateVector(2, 1, np.array([2.0, 0.0]))
    with pytest.raises(RuntimeError):
        execute(circ, bad)
    # a non-finite state is refused when it is built, naming the cause
    with pytest.raises(ValueError, match="finite"):
        StateVector(2, 1, np.array([np.nan, 0.0]))


def test_measure_deterministic_state():
    layout = RegisterLayout(2, (("r", 3),))
    state = basis_state(layout, [DigitString(2, (1, 0, 1))])
    for form in (state, as_dense(state)):  # digits read as known, or a dense marginal
        hist = measure(form, range(3), shots=1024)
        assert hist.counts == {"101": 1024}
        assert hist.top_outcome() == "101"


def test_measure_selected_qudits_only():
    layout = RegisterLayout(2, (("a", 2), ("b", 1)))
    state = basis_state(layout, [DigitString(2, (1, 0)), DigitString(2, (1,))])
    for form in (state, as_dense(state)):
        assert measure(form, [0, 1], shots=16).counts == {"10": 16}
        assert measure(form, [2], shots=16).counts == {"1": 16}


def test_zero_states_share_no_amplitude():
    layout = RegisterLayout(3, (("r", 2),))
    first = zero_state(layout)
    first.dense[0] = 0.5j
    assert zero_state(layout).dense[0] == 1 + 0j
    one = simulator._ONE
    assert not one.flags.writeable and one.tolist() == [1 + 0j]
    assert not np.shares_memory(basis_state(layout, [DigitString(3, (1, 2))]).dense, one)
    # a CPHASE between two digits at nonzero levels scales the one amplitude
    # in place, from the default start, twice over
    shifts = tuple(GateOp(GateKind.SHIFT, (qi,), k=1) for qi in (0, 1))
    circuit = Circuit(3, layout, (*shifts, GateOp(GateKind.CPHASE, (0, 1), theta=0.7)))
    runs = [execute(circuit) for _ in range(2)]
    assert [state.dense.tolist() for state in runs] == [[cmath.exp(0.7j)]] * 2
    assert runs[0].dense is not runs[1].dense
    assert one.tolist() == [1 + 0j]
    # past int64 levels the phase is one product: no row of d levels is built
    d = 2**64 + 13
    layout = RegisterLayout(d, (("r", 2),))
    shifts = (GateOp(GateKind.SHIFT, (0,), k=d - 1), GateOp(GateKind.SHIFT, (1,), k=2**63))
    state = execute(Circuit(d, layout, (*shifts, GateOp(GateKind.CPHASE, (0, 1), theta=0.7))))
    assert state.digits == {0: d - 1, 1: 2**63} and state.dense.size == 1
    assert abs(state.dense[0] - cmath.exp(1j * 0.7 * (d - 1) * 2**63)) < 1e-12


def test_measure_validates_selection():
    state = zero_state(RegisterLayout(2, (("r", 2),)))
    with pytest.raises(ValueError):
        measure(state, [], shots=4)
    with pytest.raises(ValueError):
        measure(state, [0, 0], shots=4)
    with pytest.raises(IndexError):
        measure(state, [5], shots=4)
    with pytest.raises(ValueError):
        measure(state, [0], shots=0)
    # a dense part off the unit norm, read from known digits and from a marginal
    known = StateVector(2, 2, np.array([2.0, 0.0]), {0: 1})
    with pytest.raises(RuntimeError, match="marginal probabilities sum to 4.0"):
        measure(known, [0], shots=4)
    with pytest.raises(RuntimeError, match="marginal probabilities sum to 4.0"):
        measure(known, [0, 1], shots=4)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            StateVector(2, 2, np.array([bad, 0.0, 0.0, 0.0]))


def test_measure_reproducible_for_seed():
    layout = RegisterLayout(2, (("r", 3),))
    state = execute(build_qft(layout, range(3)))
    a = measure(state, range(3), shots=500, noise=NoiseConfig(0.1, seed=42))
    b = measure(state, range(3), shots=500, noise=NoiseConfig(0.1, seed=42))
    c = measure(state, range(3), shots=500, noise=NoiseConfig(0.1, seed=43))
    assert a == b
    assert a != c


def test_measure_does_not_collapse():
    layout = RegisterLayout(2, (("r", 2),))
    state = execute(build_qft(layout, range(2)))
    before = state.amplitudes.copy()
    measure(state, range(2), shots=64)
    assert np.array_equal(state.amplitudes, before)


def test_uniform_state_chi_square():
    """Sampling the QFT of |0> should be uniform; chi-square at alpha=0.001."""
    d, q = 2, 4
    layout = RegisterLayout(d, (("r", q),))
    state = execute(build_qft(layout, range(q)))
    shots = 100_000
    hist = measure(state, range(q), shots=shots, noise=NoiseConfig(seed=11))
    observed = np.zeros(d**q)
    for key, count in hist.counts.items():
        observed[int(key, d)] = count
    _, p_value = stats.chisquare(observed)
    assert p_value > 0.001


def test_noise_flips_digits_at_expected_rate():
    layout = RegisterLayout(2, (("r", 4),))
    state = basis_state(layout, [DigitString(2, (0, 0, 0, 0))])
    shots = 50_000
    p = 0.05
    hist = measure(state, range(4), shots=shots, noise=NoiseConfig(p, seed=5))
    assert measure(as_dense(state), range(4), shots, NoiseConfig(p, seed=5)) == hist
    survival = hist.counts["0000"] / shots
    # each of 4 digits survives with probability 1-p
    assert survival == pytest.approx((1 - p) ** 4, abs=0.01)


def test_noise_probability_one_always_flips():
    # with p=1 and d=2 every digit inverts deterministically
    layout = RegisterLayout(2, (("r", 2),))
    state = basis_state(layout, [DigitString(2, (0, 1))])
    for form in (state, as_dense(state)):
        hist = measure(form, range(2), shots=100, noise=NoiseConfig(1.0, seed=9))
        assert hist.counts == {"10": 100}


def _noisy_reference(ideal, d, width, p):
    """The per-digit flip model by brute force over ideal and observed strings."""
    strings = list(itertools.product(range(d), repeat=width))
    noisy = np.zeros(d**width)
    for o, observed in enumerate(strings):
        for i, sent in enumerate(strings):
            weight = 1.0
            for a, b in zip(sent, observed):
                weight *= 1 - p if a == b else p / (d - 1)
            noisy[o] += ideal[i] * weight
    return noisy


def _random_state(d, q, seed):
    """A state whose every basis probability is at least 1/(3 * d**q)."""
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.5, 1.5, d**q)
    phases = np.exp(2j * np.pi * rng.random(d**q))
    return StateVector(d, q, np.sqrt(probs / probs.sum()) * phases)


@pytest.mark.parametrize("d, width", [(2, 4), (3, 3), (12, 2)])
def test_noisy_readout_matches_the_flip_model(d, width):
    # one spare qudit is summed out, and the measured ones are read reversed
    state = _random_state(d, width + 1, seed=d)
    qudits = list(range(width, 0, -1))
    probs = state.probabilities().reshape((d,) * (width + 1)).sum(axis=0)
    ideal = probs.transpose(range(width - 1, -1, -1)).reshape(-1)
    shots = 100_000
    for seed, p in enumerate((0.05, 0.3, 1.0, (d - 1) / d)):
        want = _noisy_reference(ideal, d, width, p)
        hist = measure(state, qudits, shots, NoiseConfig(p, seed=seed))
        observed = np.zeros(d**width)
        for key, count in hist.counts.items():
            observed[to_integer(parse_digit_text(key, d))] = count
        _, p_value = stats.chisquare(observed, want * shots)
        assert p_value > 0.001, (p, p_value)
    # at p = (d-1)/d every digit reads each level with chance 1/d
    assert np.allclose(want, 1 / d**width, rtol=0, atol=1e-12)


def test_measure_at_the_shot_limit_holds_nothing_per_shot():
    state = StateVector(3, 2, np.full(9, 1 / 3))
    tracemalloc.start()
    try:
        hist = measure(state, [1], MAX_SHOT_DIGITS, NoiseConfig(0.3, seed=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(hist.counts.values()) == hist.shots == MAX_SHOT_DIGITS
    assert set(hist.counts) == {"0", "1", "2"}
    assert peak < 8 * 2**20


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(1.5)
    with pytest.raises(ValueError):
        NoiseConfig(0.5, seed=-1)


def test_histogram_validation():
    for base, width, tallies in [
        (1, 2, {0: 1}),  # base below 2
        (2, 0, {0: 1}),  # no digits
        (2, 2, {}),  # no outcome
        (2, 2, {4: 10}),  # "100" does not fit in two digits
        (2, 2, {-1: 10}),
        (2, 2, {1: 0}),  # every count is at least 1
        (12, 2, {144: 10}),  # "1-12" has a digit out of range
    ]:
        with pytest.raises(ValueError):
            Histogram(base, width, tallies)
    with pytest.raises(TypeError):
        Histogram(2, 2, {"01": 4})  # keys are outcome values, not digit text
    with pytest.raises(TypeError):
        Histogram(2, 2, {1: 4.0})
    ok = Histogram(2, 2, {2: 6, np.int64(1): 4})
    assert ok.tallies == {1: 4, 2: 6} and list(ok.tallies) == [1, 2]
    assert ok.shots == 10
    assert ok.counts == {"01": 4, "10": 6}
    assert ok.counts is ok.counts  # rendered once
    with pytest.raises(TypeError):
        ok.tallies[3] = 5  # read-only, so the cached counts cannot go stale
    assert ok.top_outcome() == "10"
    assert ok == Histogram(2, 2, {1: 4, 2: 6}) != Histogram(2, 3, {1: 4, 2: 6})
    # above base 10 digits are dash-separated, so key lengths may differ
    wide = Histogram(12, 2, {23: 4, 122: 6})
    assert wide.counts == {"1-11": 4, "10-2": 6}
    assert wide.top_outcome() == "10-2"


@pytest.mark.parametrize("d", [2, 3, 12, 17])
def test_measure_builds_the_histogram_the_constructor_would(d):
    # ``measure`` builds its Histogram unchecked; the checked constructor,
    # given the same tallies, must accept them and build an equal one
    rng = np.random.default_rng(d)
    part = rng.normal(size=d) + 1j * rng.normal(size=d)
    mixed = StateVector(d, 3, part / np.linalg.norm(part), {0: d - 1, 2: 1})
    for state, qudits in [(mixed, [0, 2]), (mixed, [1, 0]), (mixed, [2, 1, 0])]:
        for p in (0.0, 0.05, 1.0):
            h = measure(state, qudits, 500, NoiseConfig(p, seed=d))
            checked = Histogram(h.base, h.width, dict(h.tallies))
            assert checked == h
            assert list(checked.tallies.items()) == list(h.tallies.items())
            assert all(type(v) is int and type(c) is int for v, c in h.tallies.items())


def test_top_outcome_tie_breaks_low():
    hist = Histogram(2, 2, {3: 5, 0: 5})
    assert hist.top_outcome() == "00"
    # by value, not by string: "2-0" < "10-0" in base 12
    wide = Histogram(12, 2, {120: 5, 24: 5})
    assert wide.top_outcome() == "2-0"


def test_histogram_json_sorted_keys():
    hist = Histogram(2, 2, {2: 1, 1: 2, 0: 3})
    payload = json.loads(histogram_to_json(hist))
    assert list(payload["counts"]) == ["00", "01", "10"]
    assert payload["base"] == 2
    assert payload["shots"] == 6
    assert histogram_to_json(hist).endswith("\n")
    # above base 10 keys sort by value, not as strings
    wide = Histogram(12, 2, {10: 1, 2: 1, 12: 1, 11: 1})
    payload = json.loads(histogram_to_json(wide))
    assert list(payload["counts"]) == ["0-2", "0-10", "0-11", "1-0"]


@given(st.integers(2, 16), st.integers(1, 4), st.data())
def test_histogram_text_parses_back_to_tallies(d, width, data):
    outcomes = st.integers(0, d**width - 1)
    tallies = data.draw(st.dictionaries(outcomes, st.integers(1, 4), min_size=1))
    hist = Histogram(d, width, tallies)
    counts = json.loads(histogram_to_json(hist))["counts"]
    parsed = [parse_digit_text(key, d) for key in counts]
    assert {ds.width for ds in parsed} == {width}
    assert list(zip(map(to_integer, parsed), counts.values())) == sorted(tallies.items())
    # brute-force argmax, ties toward the smaller value
    top = min(tallies, key=lambda v: (-tallies[v], v))
    assert hist.top_outcome() == from_integer(top, d, width).to_string()


@pytest.mark.parametrize("d", [2, 3, 10, 11, 16, 37])
@pytest.mark.parametrize("width", range(1, 7))
def test_histogram_text_is_the_digit_string_text(d, width):
    rng = random.Random(d * 10 + width)
    size = d**width
    # few keys, which render only some of the base's digits, and many
    for keys in (1, 3, 300):
        tallies = {rng.randrange(size): rng.randint(1, 9) for _ in range(keys)}
        tallies[size - 1] = tallies[0] = 10
        hist = Histogram(d, width, tallies)
        want = {from_integer(v, d, width).to_string(): c for v, c in sorted(tallies.items())}
        assert list(hist.counts.items()) == list(want.items())
        top = min(tallies, key=lambda v: (-tallies[v], v))
        assert hist.top_outcome() == from_integer(top, d, width).to_string()


def test_histogram_text_at_a_huge_base_renders_only_its_digits():
    hist = Histogram(10**12, 2, {5: 1, 10**24 - 1: 3, 10**12: 2})
    assert hist.counts == {"0-5": 1, "1-0": 2, "999999999999-999999999999": 3}
    assert hist.top_outcome() == "999999999999-999999999999"


def test_adder_histogram_with_noise_keeps_majority():
    spec = AdderSpec(base=2, digits_per_input=2, num_inputs=4, mode=Mode.ADD, inputs=(3, 2, 1, 2))
    state = execute(build_full_adder(spec))
    hist = measure(state, range(4), shots=4096, noise=NoiseConfig(0.05, seed=1))
    assert hist.top_outcome() == "1000"
    assert hist.counts["1000"] > 4096 // 2


def _copy(state):
    return StateVector(state.base, state.num_qudits, state.dense.copy(), state.digits)


def _assert_matches_dense(circuit, selections):
    """The factored result of ``execute`` against the dense reference.

    The reference starts from ``as_dense(zero_state(...))``, which holds no
    digits, and runs the circuit stripped of its labels, so every op runs
    on the gate kernels.  Returns the factored state after checking its
    full vector, its histograms on each selection and a copy of it, and the
    state its use as ``initial`` ends in, checked against the dense rerun.
    """
    reduced = execute(circuit)
    gatewise = Circuit(circuit.base, circuit.layout, circuit.ops)
    dense = execute(gatewise, as_dense(zero_state(circuit.layout)))
    assert not dense.digits
    assert reduced.num_qudits == circuit.layout.total_qudits
    full = reduced.amplitudes
    assert np.max(np.abs(full - dense.amplitudes)) <= 1e-12
    if reduced.digits:
        assert not full.flags.writeable
        assert reduced.amplitudes is not full  # built anew, not cached
    noise = NoiseConfig(0.1, seed=3)
    for qudits in selections:
        assert measure(reduced, qudits, 64, noise) == measure(dense, qudits, 64, noise)
    # a copy keeps the digits and shares nothing with the original
    twin = _copy(reduced)
    digits = dict(reduced.digits)
    assert twin.digits == digits
    twin.dense[:] = 0
    twin.digits.clear()
    assert reduced.digits == digits
    assert np.max(np.abs(reduced.amplitudes - dense.amplitudes)) <= 1e-12
    # a state with digits as ``initial`` is updated and returned
    again = _copy(reduced)
    assert execute(circuit, again) is again
    rerun = execute(circuit, _copy(dense))
    assert np.max(np.abs(again.amplitudes - rerun.amplitudes)) <= 1e-12
    return reduced, again


def test_execute_digit_tracking_matches_dense_on_adders():
    # criterion 8's grid widened to d in 2..16, capped at 2**14 amplitudes
    rng = np.random.default_rng(8)
    checked = 0
    for d in range(2, 17):
        for n in range(1, 4):
            for count in range(1, 6):
                if d ** (required_ancillas(count, d) + count * n) > 2**14:
                    continue
                for mode in Mode:
                    inputs = tuple(int(rng.integers(0, d**n)) for _ in range(count))
                    spec = AdderSpec(d, n, count, mode, inputs)
                    layout = spec.layout
                    last = layout.total_qudits - 1
                    selections = [range(spec.result_width), sorted({last, 0}, reverse=True)]
                    if count > 1:
                        selections.append(layout.register_range(2))
                    state, again = _assert_matches_dense(build_full_adder(spec), selections)
                    # every qudit ends as a digit, the Fourier span's too, and
                    # so does a rerun from those digits
                    assert set(state.digits) == set(again.digits) == set(range(last + 1))
                    assert state.dense.size == again.dense.size == 1
                    if count > 1:
                        a1 = measure(state, layout.register_range(2), 16)
                        want = from_integer(inputs[1], d, n).to_string()
                        assert a1.counts == {want: 16}
                    checked += 1
    assert checked == 188


def _superposed_designs(rng):
    """A seeded grid of (d, n, count) with d in 2..16 and at most 2**14
    amplitudes: every d, each with one n and count drawn among those that fit."""
    for d in range(2, 17):
        fits = [
            (n, count)
            for n in range(1, 4)
            for count in range(2, 6)
            if d ** AdderSpec(d, n, count, Mode.ADD, (0,) * count).layout.total_qudits <= 2**14
        ]
        if fits:
            yield (d, *fits[rng.integers(len(fits))])


def test_adder_permutes_a_superposed_state_exactly():
    # Draper's adder adds into any span value s (anc and a0 together):
    # |s, a1, .., a{N-1}> goes to |s +- (a1 + .. + a{N-1}) mod d**w, a1, ..>.
    # So on a random complex state every amplitude, with its phase, lands
    # on its permuted index; the want is built by indexing, not by execute.
    rng = np.random.default_rng(47)
    checked = 0
    for d, n, count in [(2, 2, 3), (4, 1, 4), (12, 1, 2), *_superposed_designs(rng)]:
        for mode in Mode:
            spec = AdderSpec(d, n, count, mode, (0,) * count)
            layout = spec.layout
            q, w = layout.total_qudits, layout.register_start(2)
            psi = rng.normal(size=d**q) + 1j * rng.normal(size=d**q)
            psi /= np.linalg.norm(psi)
            out = execute(build_full_adder(spec), StateVector(d, q, psi)).amplitudes
            shape = (d**w, *[d**n] * (count - 1))
            index = np.indices(shape, sparse=True)
            want = np.zeros(shape, dtype=complex)
            want[((index[0] + mode.sign * sum(index[1:])) % d**w, *index[1:])] = psi.reshape(shape)
            assert np.max(np.abs(out - want.reshape(-1))) <= 1e-12, (d, n, count, mode)
            checked += 1
    assert checked == 2 * 18


def test_adder_on_uniform_inputs_reads_their_convolution():
    # a0 a seeded digit value, a1..a{N-1} each put in a uniform superposition
    # by HADAMARDs after the encoding shifts: the span marginal is a0 plus
    # (or minus) the convolution of the uniform inputs, mod d**w
    rng = np.random.default_rng(1)
    checked = 0
    for d, n, count in [(2, 2, 3), (3, 1, 4), (5, 1, 3), *_superposed_designs(rng)]:
        for mode in Mode:
            inputs = tuple(int(rng.integers(0, d**n)) for _ in range(count))
            spec = AdderSpec(d, n, count, mode, inputs)
            circuit = build_full_adder(spec)
            layout = circuit.layout
            # by name: "anc" also starts with "a"
            sources = [
                qi
                for i, (name, _) in enumerate(layout.registers)
                if name[0] == "a" and name[1:].isdigit() and name != "a0"
                for qi in layout.register_range(i)
            ]
            assert len(sources) == (count - 1) * n
            (encoded,) = [hi for name, _, hi in circuit.labels if name == "encode"]
            hadamards = tuple(GateOp(GateKind.HADAMARD, (qi,)) for qi in sources)
            ops = circuit.ops[:encoded] + hadamards + circuit.ops[encoded:]
            state = execute(Circuit(d, layout, ops))
            w = layout.register_start(2)
            span = state.probabilities().reshape(d**w, -1).sum(axis=1)
            want = np.zeros(d**w)
            want[inputs[0]] = 1.0
            for _ in range(count - 1):  # one uniform input at a time
                want = sum(np.roll(want, mode.sign * u) for u in range(d**n)) / d**n
            assert np.max(np.abs(span - want)) <= 1e-12, (d, n, count, mode)
            checked += 1
    assert checked == 2 * 18


def test_execute_digit_tracking_matches_dense_on_mixed_circuit(monkeypatch):
    kernels = _spy(monkeypatch, "apply_op")
    d = 3
    layout = RegisterLayout(d, (("r", 6),))
    # qudits 1, 3 and 5 never meet a HADAMARD or SWAP; qudit 2 is a digit
    # that a SWAP renames to qudit 4, whose factor was widened, and so the
    # dense axes end as (0, 2)
    ops = (
        GateOp(GateKind.SHIFT, (3,), k=2),
        GateOp(GateKind.SHIFT, (5,), k=1),
        GateOp(GateKind.SHIFT, (2,), k=1),
        GateOp(GateKind.HADAMARD, (0,)),
        GateOp(GateKind.HADAMARD, (4,)),
        GateOp(GateKind.CPHASE, (3, 5), theta=0.7),  # both known: global phase
        GateOp(GateKind.CPHASE, (3, 0), theta=0.3),
        GateOp(GateKind.CPHASE, (4, 5), theta=1.1),  # the known end listed second
        GateOp(GateKind.CPHASE, (1, 4), theta=0.9),  # known digit 0: identity
        GateOp(GateKind.SHIFT, (3,), k=2),  # after controlling CPHASEs
        GateOp(GateKind.CPHASE, (3, 4), theta=0.4),
        GateOp(GateKind.CPHASE, (0, 4), theta=0.2),
        GateOp(GateKind.SWAP, (2, 4)),
        GateOp(GateKind.CPHASE, (5, 2), theta=0.5),
        GateOp(GateKind.HADAMARD, (0,), dagger=True),
    )
    circuit = Circuit(d, layout, ops)
    state, again = _assert_matches_dense(circuit, [[5, 0, 3], [2, 4], [3]])
    assert state.digits == {1: 0, 3: 1, 4: 1, 5: 1}
    assert state.dense.size == d * d
    # rerun from those digits, qudit 4 is a factor when CPHASE (0, 4) widens
    # it, and the SWAP renames dense axes: the part ends over (0, 2, 4)
    assert again.digits == {1: 0, 3: 2, 5: 2}
    assert again.dense.size == d**3
    # the dense reference ran its HADAMARDs and SHIFTs on kernels; no SWAP did
    assert {op.kind for _, op, _ in kernels} == {GateKind.HADAMARD, GateKind.SHIFT}
    # the known digits (qudit 3 at 1, qudit 5 at 1) hold the whole weight
    probs = state.probabilities().reshape((d,) * 6)
    assert probs[:, 0, :, 1, :, 1].sum() == pytest.approx(1.0, abs=1e-12)
    # as ``initial``, that state takes an in-place CPHASE as its first op
    phase = Circuit(d, layout, (GateOp(GateKind.CPHASE, (0, 4), theta=0.6),))
    again = execute(phase, _copy(state))
    want = execute(phase, as_dense(state))
    assert again.digits == state.digits
    assert np.max(np.abs(again.amplitudes - want.amplitudes)) <= 1e-12


def _tensor_reference(amplitudes, d, q, ops):
    """Each op on the full ``(d,) * q`` tensor, written from its definition."""
    psi, levels = amplitudes.reshape((d,) * q), np.arange(d)
    for op in ops:
        qs = op.qudits
        if op.kind is GateKind.HADAMARD:
            sign = -1 if op.dagger else 1
            dft = np.exp(sign * 2j * np.pi * np.outer(levels, levels) / d) / np.sqrt(d)
            psi = np.moveaxis(np.tensordot(dft, psi, axes=(1, qs[0])), 0, qs[0])
        elif op.kind is GateKind.SHIFT:
            psi = np.roll(psi, op.k, axis=qs[0])
        elif op.kind is GateKind.SWAP:
            psi = np.swapaxes(psi, *qs)
        else:
            x, y = (levels.reshape([d if i == qi else 1 for i in range(q)]) for qi in qs)
            psi = psi * np.exp(1j * op.theta * x * y)
    return psi.reshape(-1)


@st.composite
def _mixed_runs(draw):
    """A random circuit of every gate kind and a state with random digits."""
    d, q = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    qudit = st.integers(0, q - 1)
    one = qudit.map(lambda t: (t,))
    pair = st.lists(qudit, min_size=2, max_size=2, unique=True).map(tuple)
    # an angle 2*pi*m/d**k on the grid, which a ramp adds exactly where it is
    # bit for bit a builder's angle (|m| = 1, k <= q), or off it by 1e-17..1e-8
    grid = st.integers(1, 3).flatmap(
        lambda k: st.integers(-(d**k), d**k).map(lambda m: 2 * np.pi * m / d**k)
    )
    off = st.just(0.0) | st.builds(lambda e, s: s * 10.0**e, st.floats(-17, -8), st.sampled_from([1, -1]))
    theta = st.floats(-7, 7) | st.builds(lambda a, b: a + b, grid, off)
    op = st.one_of(
        st.builds(GateOp, st.just(GateKind.HADAMARD), one, dagger=st.booleans()),
        st.builds(GateOp, st.just(GateKind.SHIFT), one, k=st.integers(0, d)),
        st.builds(GateOp, st.just(GateKind.CPHASE), pair, theta=theta),
        st.builds(GateOp, st.just(GateKind.SWAP), pair),
    )
    ops = draw(st.lists(op, max_size=12))
    known = draw(st.dictionaries(qudit, st.integers(0, d - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = d ** (q - len(known))
    part = rng.normal(size=size) + 1j * rng.normal(size=size)
    return Circuit(d, RegisterLayout(d, (("r", q),)), tuple(ops)), StateVector(
        d, q, part / np.linalg.norm(part), known
    )


@settings(deadline=None)
@given(_mixed_runs())
def test_swaps_rename_qudits_in_every_form(run):
    # SWAPs between digits, factors and dense axes leave the dense axes out of
    # qudit order until ``execute`` returns; none reaches a gate kernel
    circuit, initial = run
    d, q = initial.base, initial.num_qudits
    want = _tensor_reference(initial.amplitudes, d, q, circuit.ops)
    with pytest.MonkeyPatch.context() as patch:
        kernels = _spy(patch, "apply_op")
        dense = execute(circuit, as_dense(initial))
        got = execute(circuit, initial)
    assert all(op.kind is not GateKind.SWAP for _, op, _ in kernels)
    assert np.max(np.abs(got.amplitudes - dense.amplitudes)) <= 1e-12
    assert np.max(np.abs(got.amplitudes - want)) <= 1e-12


def _spy(monkeypatch, name):
    """Record the arguments after ``psi, d`` of every call to ``simulator.<name>``."""
    calls, real = [], getattr(simulator, name)

    def spy(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(simulator, name, spy)
    return calls


def test_folded_phases_match_the_gate_path(monkeypatch):
    # qudits 0 and 1 factors, then dense; 2 and 3 digits that control phase fans
    d = 3
    layout = RegisterLayout(d, (("span", 2), ("src", 2)))
    # the builders' angles 2*pi/3**k, k = 1..4, in either form: all exact
    thetas = [_turn(d, 1 + i % 4)[i // 4 % 2] for i in range(2010)]
    fan = [
        GateOp(GateKind.CPHASE, pair, theta=theta)
        for pair, theta in zip(itertools.cycle([(2, 0), (1, 3), (3, 0), (1, 2)]), thetas)
    ]
    ops = [
        GateOp(GateKind.SHIFT, (2,), k=2),
        GateOp(GateKind.SHIFT, (3,), k=1),
        GateOp(GateKind.HADAMARD, (0,)),
        GateOp(GateKind.HADAMARD, (1,)),
        *fan[:20],
        GateOp(GateKind.SHIFT, (3,), k=1),  # a digit moves: later fans read 2
        *fan[20:1990],  # at level 2: over 2*pi*10**2 per factor
        GateOp(GateKind.HADAMARD, (0,)),  # qudit 0's ramp, off the DFT columns: widened
        GateOp(GateKind.SHIFT, (1,), k=1),  # a SHIFT widens qudit 1's ramp
        GateOp(GateKind.SWAP, (0, 1)),  # two dense axes trade places
        *fan[1990:2000],  # a digit end and a dense end: one phase pass each
        GateOp(GateKind.CPHASE, (0, 1), theta=0.9),  # two dense ends: one pass
        *fan[2000:],
        GateOp(GateKind.HADAMARD, (1,), dagger=True),
    ]
    for end in (0, 1):
        assert sum(2 * op.theta for op in fan[20:1990] if end in op.qudits) > 2 * np.pi * 1e2
    circuit = Circuit(d, layout, ops)
    phases = _spy(monkeypatch, "phase")
    folded = execute(circuit)
    assert folded.digits == {2: 2, 3: 2}
    assert folded.dense.size == d * d
    # the 1990 fan CPHASEs on ramps add to their numerators, with no pass; the
    # SWAP leaves qudit 0 on axis 1
    assert [axes for _, axes, _ in phases] == [[1], [0]] * 5 + [[1, 0]] + [[1], [0]] * 5
    want = execute(circuit, as_dense(zero_state(layout)))
    assert np.max(np.abs(folded.amplitudes - want.amplitudes)) <= 1e-12


def test_execute_widens_only_the_digits_it_mixes():
    # a factored ``initial``: qudits 1 and 3 dense, 0, 2 and 4 tracked
    d = 3
    layout = RegisterLayout(d, (("r", 5),))
    rng = np.random.default_rng(5)
    part = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    factored = StateVector(d, 5, part / np.linalg.norm(part), {0: 2, 2: 1, 4: 0})
    dense = as_dense(factored)
    ops = (
        GateOp(GateKind.HADAMARD, (2,)),  # widens tracked qudit 2
        GateOp(GateKind.CPHASE, (0, 2), theta=0.8),
        GateOp(GateKind.CPHASE, (1, 4), theta=0.5),
        GateOp(GateKind.SHIFT, (4,), k=2),
        GateOp(GateKind.CPHASE, (3, 4), theta=1.3),
        GateOp(GateKind.CPHASE, (0, 4), theta=0.4),  # both tracked: global phase
        GateOp(GateKind.HADAMARD, (1,), dagger=True),
    )
    circuit = Circuit(d, layout, ops)
    assert execute(circuit, factored) is factored
    assert factored.digits == {0: 2, 4: 2}
    assert factored.dense.shape == (d**3,)
    want = execute(circuit, dense).amplitudes
    assert np.max(np.abs(factored.amplitudes - want)) <= 1e-12


def test_widening_over_the_limit_fails_before_allocating():
    # 40 tracked qubits hold one amplitude; HADAMARDs on all of them would
    # need 2**40
    layout = RegisterLayout(2, (("r", 40),))
    state = StateVector(2, 40, np.ones(1), dict.fromkeys(range(40), 0))
    ops = tuple(GateOp(GateKind.HADAMARD, (qi,)) for qi in range(40))
    with pytest.raises(ValueError, match=r"2\*\*40 amplitudes"):
        execute(Circuit(2, layout, ops), state)
    assert len(state.digits) == 40 and state.dense.shape == (1,)


def test_size_limits_fail_before_allocating():
    # 32 HADAMARDs on digits leave 32 factors, which need a 2**32 dense part
    # at the end; the 2**92 vector of 92 qubits and 2**25 sampled digits are
    # all rejected before any buffer
    layout = RegisterLayout(2, (("r", 32),))
    ops = tuple(GateOp(GateKind.HADAMARD, (qi,)) for qi in range(32))
    with pytest.raises(ValueError, match=r"2\*\*32 amplitudes"):
        execute(Circuit(2, layout, ops))
    spec = AdderSpec(2, 30, 3, Mode.ADD, (1, 2, 3))
    wide = zero_state(spec.layout)  # its digits alone; the vector is built on read
    with pytest.raises(ValueError, match=r"2\*\*92 amplitudes"):
        wide.amplitudes
    state = zero_state(RegisterLayout(2, (("r", 2),)))
    with pytest.raises(ValueError, match=f"{2**25} digits"):
        measure(state, [0, 1], shots=2**24)
    # one qudit at d = 100000 fits, but a d x d matrix of it would take
    # 74.5 GiB: the Hadamard a dense HADAMARD needs, and the readout channel
    # of a noisy dense readout
    d = 100000
    flip = Circuit(d, RegisterLayout(d, (("r", 1),)), (
        GateOp(GateKind.HADAMARD, (0,)), GateOp(GateKind.SHIFT, (0,), k=1), GateOp(GateKind.HADAMARD, (0,))
    ))
    uniform = StateVector(d, 1, np.full(d, d**-0.5))
    cases = [
        ("Hadamard", lambda: execute(flip)),
        ("readout channel", lambda: measure(uniform, [0], 10, NoiseConfig(0.1, 1))),
    ]
    for name, call in cases:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{d} x {d} {name} needs {d}\\*\\*2 entries"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24, (name, peak)


@pytest.mark.parametrize("site", ["ramp left at the end", "ramp under a kernel op"])
def test_a_ramp_is_sized_before_its_vector_is_built(site):
    # one qudit at d = 2**40: its ramp's d levels alone would take 8 TiB,
    # so each widening site must refuse the size before building any of it
    d = 2**40
    layout = RegisterLayout(d, (("r", 1),))
    if site == "ramp left at the end":
        circuit = build_qft(layout, [0])
    else:
        circuit = Circuit(d, layout, (GateOp(GateKind.HADAMARD, (0,)), GateOp(GateKind.SHIFT, (0,), k=1)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"1 base-{d} qudits need {d}\*\*1 amplitudes"):
            execute(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


def _traced_peak(call):
    """``call()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# digits on none, some and all of three qudits; with all, one amplitude is dense
_DIGIT_SETS = [{}, {1: 0}, {0: 1, 2: 0}, {0: 1, 1: 0, 2: 1}, {2: 1}, {0: 0, 1: 1, 2: 1}]


@pytest.mark.parametrize("d", [2, 3, 11, 37])
@pytest.mark.parametrize("digits", _DIGIT_SETS)
def test_probabilities_are_the_squared_widened_vector_bit_for_bit(d, digits):
    rng = np.random.default_rng(d)
    free = 3 - len(digits)
    dense = rng.normal(size=d**free) + 1j * rng.normal(size=d**free)
    if free:
        dense[::3] = 0  # zeros in the dense part too
    state = StateVector(d, 3, dense / np.linalg.norm(dense), digits)
    probs = state.probabilities()
    assert probs.dtype == np.float64 and probs.shape == (d**3,)
    assert np.array_equal(probs, np.abs(state.amplitudes) ** 2)


def test_probabilities_hold_one_float_per_amplitude():
    # the (5,2,4) adder ends on digits; its 5**9 probabilities are one buffer
    spec = AdderSpec(5, 2, 4, Mode.ADD, (7, 24, 0, 13))
    state = execute(build_full_adder(spec))
    assert state.digits and 5 ** spec.layout.total_qudits == 5**9
    probs, peak = _traced_peak(state.probabilities)
    assert probs[np.flatnonzero(probs)].tolist() == [1.0]
    assert peak <= 8 * 5**9 + 64 * 2**10


def test_probabilities_over_the_limit_fail_before_allocating():
    state = zero_state(RegisterLayout(2, (("r", 27),)))
    with pytest.raises(ValueError, match=r"2\*\*27 amplitudes"):
        state.amplitudes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2\*\*27 amplitudes"):
            state.probabilities()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


# the last three of perfbench's dense-sim designs, each ending on digits
_ONE_HOT_DESIGNS = [(4, 3, 3, (5, 60, 33)), (3, 4, 3, (80, 7, 41)), (5, 2, 4, (7, 24, 0, 13))]

_RESIDENT_SCRIPT = """
import gc
from qftadd import AdderSpec, Mode, build_full_adder, execute

def peak():  # VmHWM, the resident high-water mark of this process, in KiB
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

states = [execute(build_full_adder(AdderSpec(d, n, N, Mode.ADD, inputs)))
          for d, n, N, inputs in {designs}]
gc.collect()
before = peak()
for _ in range(4):
    for state in states:
        for read in (state.probabilities, lambda: state.amplitudes):
            full = read()
            total = full.sum()
            del full
print(peak() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's /proc/self/status")
def test_full_reads_of_digit_states_keep_only_written_pages_resident():
    # 4**10, 3**13 and 5**9 entries, one of them nonzero: 8 to 31 MB a read,
    # read 24 times in a fresh process; only the pages written are resident.
    # The peak is VmHWM, not ru_maxrss, which a child starts at the peak of
    # the process that launched it (here the test run's), masking any rise.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _RESIDENT_SCRIPT.format(designs=_ONE_HOT_DESIGNS)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 8 * 2**10  # KiB


def _heap_placed(values, d, qudits, digits):
    """``_placed`` with its buffer from ``np.zeros``: the reference."""
    index = tuple(digits.get(qi, slice(None)) for qi in qudits)
    full = np.zeros((d,) * len(index), dtype=values.dtype)
    full[index] = values.reshape((d,) * index.count(slice(None)))
    return full.reshape(-1)


def _mapped(array):
    """Whether ``array`` is a view of a memory map."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(getattr(array, "obj", array), mmap.mmap)


def _one_hot_reads(state):
    """``probabilities()`` and ``amplitudes`` of ``state``, and the same
    vectors built on the heap, read-only where ``amplitudes`` is."""
    q = range(state.num_qudits)
    probs = _heap_placed(np.abs(state.dense) ** 2, state.base, q, state.digits)
    amps = _heap_placed(state.dense, state.base, q, state.digits)
    amps.flags.writeable = False
    return [(state.probabilities(), probs), (state.amplitudes, amps)]


@pytest.mark.parametrize("design", _ONE_HOT_DESIGNS)
def test_a_mapped_vector_behaves_as_a_heap_one(design):
    d, n, N, inputs = design
    state = execute(build_full_adder(AdderSpec(d, n, N, Mode.ADD, inputs)))
    assert state.digits and state.dense.size == 1
    for got, want in _one_hot_reads(state):
        assert got.nbytes >= simulator._MAP_BYTES and _mapped(got)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for flag in ("WRITEABLE", "C_CONTIGUOUS", "ALIGNED"):
            assert got.flags[flag] == want.flags[flag], flag
        for twin in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got)):
            assert twin.dtype == got.dtype and twin.tobytes() == want.tobytes()
        assert pickle.loads(pickle.dumps(got)).flags.writeable == (
            pickle.loads(pickle.dumps(want)).flags.writeable
        )
        # a slice around the one entry outlives the vector and its map
        hot = int(np.flatnonzero(got)[0])
        part = got[max(hot - 3, 0) : hot + 4]
        del got
        gc.collect()
        assert part.tobytes() == want[max(hot - 3, 0) : hot + 4].tobytes()
    # probabilities() stays writable, and amplitudes with digits read-only
    probs = state.probabilities()
    probs[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        state.amplitudes[0] = 0.5


def test_small_placed_vectors_stay_on_the_heap():
    state = execute(build_full_adder(AdderSpec(3, 2, 3, Mode.ADD, (4, 8, 2))))
    assert state.digits
    for got, want in _one_hot_reads(state):
        assert got.nbytes < simulator._MAP_BYTES and not _mapped(got)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("advice", ["missing", "refused"])
def test_placed_vectors_without_the_huge_page_advice(advice, monkeypatch):
    if advice == "missing":
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
    else:  # an advice the kernel does not know: madvise raises OSError
        monkeypatch.setattr(mmap, "MADV_HUGEPAGE", 12345, raising=False)
    d, n, N, inputs = _ONE_HOT_DESIGNS[-1]
    state = execute(build_full_adder(AdderSpec(d, n, N, Mode.ADD, inputs)))
    for got, want in _one_hot_reads(state):
        assert _mapped(got)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.flags.writeable == want.flags.writeable
    # a marginal with a dense qudit, placed around the digits, too
    mixed = StateVector(5, 10, np.full(5, 5**-0.5), dict.fromkeys(range(1, 10), 2))
    got = simulator._marginal(mixed, range(10))
    assert _mapped(got)
    assert got.tobytes() == _reference_marginal(mixed, range(10)).tobytes()


def _reference_marginal(state, qudits):
    """``_marginal`` as it was when it squared the dense part in dense order
    and copied that into the measured order: frozen, as the reference its
    values and summation order must keep byte for byte."""
    d, known = state.base, state.digits
    dense = [qi for qi in range(state.num_qudits) if qi not in known]
    free = [dense.index(qi) for qi in qudits if qi not in known]
    probs = (np.abs(state.dense) ** 2).reshape((d,) * len(dense))
    moved = np.moveaxis(probs, free, range(len(free)))
    summed = moved.reshape(d ** len(free), -1).sum(axis=1)
    return simulator._placed(summed, d, qudits, known)


def _measured_orders(q, rng):
    """Leading, trailing, middle, reversed and shuffled runs of each width
    1..q over q qudits, and some scattered picks; the all-qudit reads too."""
    orders = set()
    for width in range(1, q + 1):
        mid = (q - width) // 2
        for run in (range(width), range(q - width, q), range(mid, mid + width)):
            orders.update({tuple(run), tuple(reversed(run)), tuple(rng.permutation(run))})
        orders.update(tuple(rng.choice(q, width, replace=False)) for _ in range(3))
    return sorted(orders)


@pytest.mark.parametrize("d, q", [(2, 12), (3, 7), (5, 5), (11, 3), (37, 2)])
@pytest.mark.parametrize("held", ["none", "some", "all"])
def test_marginal_is_byte_equal_to_the_reference_in_any_order(d, q, held):
    rng = np.random.default_rng(d * q)
    picked = {"none": [], "some": [1, q - 1][: q - 1], "all": range(q)}[held]
    digits = {int(qi): int(rng.integers(d)) for qi in picked}
    free = q - len(digits)
    dense = rng.normal(size=d**free) + 1j * rng.normal(size=d**free)
    dense[1::5] = 0  # zeros too, but never the one amplitude of an all-digit state
    state = StateVector(d, q, dense / np.linalg.norm(dense), digits)
    orders = _measured_orders(q, rng)
    assert tuple(range(q)) in orders and tuple(range(q - 1, -1, -1)) in orders
    for order in orders:
        got, want = simulator._marginal(state, order), _reference_marginal(state, order)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), order
    assert state.probabilities().tobytes() == _reference_marginal(state, range(q)).tobytes()


@pytest.mark.parametrize("qudits", [[19, 18, 17, 16], [5, 0, 19], [5, 6], [0, 1, 2, 3]])
def test_measure_holds_one_float_per_dense_amplitude_in_any_order(qudits):
    # the dense part is squared straight into the measured order: one buffer
    rng = np.random.default_rng(20)
    dense = rng.normal(size=2**20) + 1j * rng.normal(size=2**20)
    state = StateVector(2, 20, dense / np.linalg.norm(dense))
    histogram, peak = _traced_peak(lambda: measure(state, qudits, 1024, NoiseConfig(seed=3)))
    assert histogram.shots == 1024
    assert peak <= 8 * 2**20 + 64 * 2**10


def test_norm_error_holds_no_temporary():
    rng = np.random.default_rng(20)
    dense = rng.normal(size=2**20) + 1j * rng.normal(size=2**20)
    state = StateVector(2, 20, dense / np.linalg.norm(dense))
    drift, peak = _traced_peak(state.norm_error)
    assert peak < 64 * 2**10
    assert abs(drift - abs(float(np.sum(np.abs(state.dense) ** 2)) - 1.0)) <= 1e-14


@pytest.mark.parametrize("d, n, count", [(2, 30, 3), (7, 30, 9), (37, 5, 5)])
@pytest.mark.parametrize("mode", Mode)
def test_adder_beyond_the_dense_cap_matches_the_oracle(d, n, count, mode):
    # each span, d**(t+n), is over the dense limit; from digits none is held
    rng = random.Random(d * n * count)
    spec = AdderSpec(d, n, count, mode, tuple(rng.randrange(d**n) for _ in range(count)))
    assert d**spec.result_width > MAX_AMPLITUDES
    state = execute(build_full_adder(spec))
    assert set(state.digits) == set(range(spec.layout.total_qudits))
    assert state.dense.size == 1
    span = DigitString(d, tuple(state.digits[qi] for qi in range(spec.result_width)))
    assert to_integer(span) == classical_oracle(spec)
    # measured from the library, with no marginal of the span
    histogram = measure(state, range(spec.result_width), 64)
    assert histogram.counts == {span.to_string(): 64}
    assert to_integer(parse_digit_text(histogram.top_outcome(), d)) == classical_oracle(spec)


def test_adders_at_a_large_base_stay_on_digits():
    # at d = 100 each ramp adds 100 inputs' numerators over 100**301, exactly:
    # every HADAMARD on a ramp meets a DFT column and snaps
    rng = random.Random(100)
    for mode in Mode:
        for _ in range(25):
            spec = AdderSpec(100, 3, 100, mode, tuple(rng.randrange(100**3) for _ in range(100)))
            state = execute(build_full_adder(spec))
            assert set(state.digits) == set(range(state.num_qudits))
            span = DigitString(100, tuple(state.digits[qi] for qi in range(spec.result_width)))
            assert to_integer(span) == classical_oracle(spec)


def _span_digits(state, spec):
    return DigitString(spec.base, tuple(state.digits[qi] for qi in range(spec.result_width)))


@pytest.mark.parametrize(
    "d, n, count",
    [(d, 2, count) for d in (50, 100, 150, 300, 1000) for count in (25, 50, 100, 150, 300)]
    + [(10, 20, 3), (7, 25, 5)],
)
def test_adders_at_a_large_base_and_many_inputs_end_all_digits(monkeypatch, d, n, count):
    # d*N up to 3e5; no design here fits the dense path (d**q >= 50**51)
    widened = _spy(monkeypatch, "_widen")
    rng = random.Random(d * count + n)
    for mode in Mode:
        for _ in range(3):
            spec = AdderSpec(d, n, count, mode, tuple(rng.randrange(d**n) for _ in range(count)))
            state = execute(build_full_adder(spec))
            assert set(state.digits) == set(range(state.num_qudits))
            assert to_integer(_span_digits(state, spec)) == classical_oracle(spec)
    assert widened == []


@pytest.mark.parametrize("d, n, count", [(100, 2, 1), (120, 1, 1), (50, 2, 1), (25, 1, 2)])
@pytest.mark.parametrize("mode", Mode)
def test_adders_at_a_large_base_match_the_dense_path(d, n, count, mode):
    # large bases whose whole layout fits in 2**14 amplitudes
    rng = random.Random(d + n)
    spec = AdderSpec(d, n, count, mode, tuple(rng.randrange(d**n) for _ in range(count)))
    assert d**spec.layout.total_qudits <= 2**14
    state, _ = _assert_matches_dense(build_full_adder(spec), [range(spec.result_width)])
    assert set(state.digits) == set(range(state.num_qudits))
    assert to_integer(_span_digits(state, spec)) == classical_oracle(spec)


def test_the_table_holds_every_angle_the_builders_write():
    # each CPHASE of an adder, its ladders' and its fans', read as m/D turns
    for d, n, count in [(2, 16, 4), (3, 4, 5), (10, 20, 3), (1000, 2, 50)]:
        for mode in Mode:
            circuit = build_full_adder(AdderSpec(d, n, count, mode, (0,) * count))
            D, table = simulator._numerators(d, circuit.layout.total_qudits)
            for op in circuit.ops:
                if op.kind is GateKind.CPHASE:
                    turn = float(Fraction(table[op.theta], D))
                    assert abs(op.theta - 2 * math.pi * turn) <= 2 * math.ulp(op.theta)
    # over d**q, or the largest power of d within 2**1022 when that is less
    assert simulator._numerators(7, 5)[0] == 7**5
    assert simulator._numerators(2, 1030)[0] == 2**1022
    assert simulator._numerators(1000, 601)[0] == 1000**102


# H, a phase on level 1 from a digit control and H+ on qudit 0 of two base-3
# qudits: a builder's 2*pi/3, as either builder writes it or negated, is
# exact; one ulp off it, or the grid's 4*pi/3, is not
_COLUMN_ANGLES = {
    "ladder": (_turn(3, 1)[0], True),
    "fan": (_turn(3, 1)[1], True),
    "negated": (-_turn(3, 1)[0], True),
    "up-ulp": (math.nextafter(_turn(3, 1)[0], math.inf), False),
    "down-ulp": (math.nextafter(_turn(3, 1)[0], 0.0), False),
    "off-1e-9": (_turn(3, 1)[0] + 1e-9, False),
    "m=2": (2 * np.pi * 2 / 3, False),
}


@pytest.mark.parametrize("angle", _COLUMN_ANGLES)
def test_a_column_snaps_only_on_a_builder_angle(monkeypatch, angle):
    theta, exact = _COLUMN_ANGLES[angle]
    d = 3
    layout = RegisterLayout(d, (("r", 2),))
    ops = (
        GateOp(GateKind.SHIFT, (1,), k=1),
        GateOp(GateKind.HADAMARD, (0,)),
        GateOp(GateKind.CPHASE, (1, 0), theta=theta),
        GateOp(GateKind.HADAMARD, (0,), dagger=True),
    )
    circuit = Circuit(d, layout, ops)
    widened = _spy(monkeypatch, "_widen")
    state = execute(circuit)
    want = execute(circuit, as_dense(zero_state(layout)))
    # the column of 2*pi/3 (or of -2*pi/3, or 4*pi/3) ends at |1> (or |2>)
    top = int(np.argmax(np.abs(want.amplitudes)))
    assert abs(abs(want.amplitudes[top]) - 1) <= 1e-8
    if exact:
        assert state.digits == {0: top // d, 1: 1}
        assert widened == []
    else:
        assert state.digits == {1: 1}
        assert len(widened) == 1
    assert np.max(np.abs(state.amplitudes - want.amplitudes)) <= 1e-12


@pytest.mark.parametrize("exact", [True, False])
def test_a_shifted_ramp_runs_on_the_kernel(exact):
    # H, a phase of 2*pi/3 (one ulp off it if not exact) on level 1 from a
    # digit control, a roll and H+: qudit 0 ends at |1> times exp(-2*pi*i/3).
    # The roll widens the ramp, so the H+ runs on the kernel either way
    d = 3
    theta = _turn(d, 1)[0]
    layout = RegisterLayout(d, (("r", 2),))
    ops = (
        GateOp(GateKind.SHIFT, (1,), k=1),
        GateOp(GateKind.HADAMARD, (0,)),
        GateOp(GateKind.CPHASE, (1, 0), theta=theta if exact else math.nextafter(theta, 0.0)),
        GateOp(GateKind.SHIFT, (0,), k=1),
        GateOp(GateKind.HADAMARD, (0,), dagger=True),
    )
    circuit = Circuit(d, layout, ops)
    state = execute(circuit)
    assert state.digits == {1: 1}
    assert state.dense.size == d
    want = execute(circuit, as_dense(zero_state(layout)))
    assert abs(want.amplitudes[d + 1] - np.exp(-2j * np.pi / 3)) <= 1e-8
    assert np.max(np.abs(state.amplitudes - want.amplitudes)) <= 1e-12


@st.composite
def _column_runs(draw):
    """A digit x turned into a DFT column, 1-3 phases on it from digit
    controls at levels 1..d-1, and a second HADAMARD of either sign.  Each
    phase is a builder's angle +-2*pi/d**k (k = 1, 2, either form), one ulp
    off one, or 2*pi*m/d on the grid, a builder's angle only for |m| = 1."""
    d = draw(st.integers(2, 17))
    x, first, second = draw(st.integers(0, d - 1)), draw(st.booleans()), draw(st.booleans())
    turn = st.builds(
        lambda k, form, s: s * _turn(d, k)[form],
        st.integers(1, 2), st.integers(0, 1), st.sampled_from([1, -1]),
    )
    ulp = st.builds(math.nextafter, turn, st.sampled_from([-math.inf, math.inf]))
    grid = st.integers(-d, d).map(lambda m: 2 * np.pi * m / d)
    angle = st.one_of(turn, ulp, grid)
    phases = draw(st.lists(st.tuples(angle, st.integers(1, d - 1)), min_size=1, max_size=3))
    controls = {qi: level for qi, (_, level) in enumerate(phases, 1)}
    ops = [GateOp(GateKind.SHIFT, (qi,), k=level) for qi, level in controls.items()]
    if x:
        ops.append(GateOp(GateKind.SHIFT, (0,), k=x))
    ops.append(GateOp(GateKind.HADAMARD, (0,), dagger=first))
    ops += [GateOp(GateKind.CPHASE, (qi, 0), theta=theta) for qi, (theta, _) in enumerate(phases, 1)]
    ops.append(GateOp(GateKind.HADAMARD, (0,), dagger=second))
    layout = RegisterLayout(d, (("r", 1 + len(phases)),))
    return Circuit(d, layout, tuple(ops)), x, first, second, phases, controls


@settings(deadline=None, max_examples=300)
@given(_column_runs())
def test_a_column_snaps_as_its_vector_would(run):
    # the column snaps exactly when every phase is a builder's angle and
    # their turns, added to the column's x/d, make a whole number of 1/d
    circuit, x, first, second, phases, controls = run
    d = circuit.base
    exact = {
        s * theta: Fraction(s, d**k) for k in (1, 2) for theta in _turn(d, k) for s in (1, -1)
    }
    with pytest.MonkeyPatch.context() as patch:
        widened = _spy(patch, "_widen")
        state = execute(circuit)
    want = execute(circuit, as_dense(zero_state(circuit.layout))).amplitudes.reshape(d, -1)
    got = state.amplitudes.reshape(d, -1)  # qudit 0 on the first axis
    assert np.max(np.abs(got - want)) <= 1e-12
    if all(theta in exact for theta, _ in phases):
        turns = Fraction(-x if first else x, d) + sum(exact[t] * level for t, level in phases)
        snaps = (turns * d).denominator == 1
    else:
        snaps = False
    assert (0 in state.digits) == snaps
    assert bool(widened) != snaps
    if snaps:  # at the peak level of the dense run, and nowhere else
        j = int(turns * d) * (1 if second else -1) % d
        assert state.digits == {0: j, **controls}
        assert np.max(np.abs(np.delete(want, j, axis=0))) <= 1e-12
    else:
        assert state.digits == controls


def test_an_adder_from_digits_widens_nothing(monkeypatch):
    # every HADAMARD meets a digit or a column on the grid: nothing is widened
    widened = _spy(monkeypatch, "_widen")
    rng = random.Random(22)
    for d, n, count in [(2, 30, 3), (7, 30, 9), (37, 5, 5)]:  # over the dense cap
        for mode in Mode:
            inputs = tuple(rng.randrange(d**n) for _ in range(count))
            state = execute(build_full_adder(AdderSpec(d, n, count, mode, inputs)))
            assert set(state.digits) == set(range(state.num_qudits))
    for base in range(2, 17):
        for n, count in [(1, 1), (2, 3), (3, 2), (1, 5)]:
            if base ** (required_ancillas(count, base) + count * n) > 2**14:
                continue
            for mode in Mode:
                inputs = tuple(rng.randrange(base**n) for _ in range(count))
                state = execute(build_full_adder(AdderSpec(base, n, count, mode, inputs)))
                assert state.dense.size == 1
    # where phi gathers the most rounding: many inputs, or a large base
    for d, n, count in [(37, 5, 5), (16, 3, 40)]:
        for mode in Mode:
            for _ in range(40):
                inputs = tuple(rng.randrange(d**n) for _ in range(count))
                state = execute(build_full_adder(AdderSpec(d, n, count, mode, inputs)))
                assert state.dense.size == 1
    assert widened == []
    # a phase off the grid leaves the column off it: the H+ widens it
    layout = RegisterLayout(3, (("r", 2),))
    off = Circuit(3, layout, (
        GateOp(GateKind.SHIFT, (1,), k=1),
        GateOp(GateKind.HADAMARD, (0,)),
        GateOp(GateKind.CPHASE, (1, 0), theta=0.5),
        GateOp(GateKind.HADAMARD, (0,), dagger=True),
    ))
    assert execute(off).digits == {1: 1}
    assert len(widened) == 1


def test_marginal_over_the_limit_fails_before_allocating():
    # 40 tracked qubits hold one amplitude: read without noise, they need no marginal
    state = StateVector(2, 40, np.ones(1), dict.fromkeys(range(40), 0))
    assert measure(state, range(40), 1).counts == {"0" * 40: 1}
    # with noise they draw each digit on its own, and build no marginal either
    assert measure(state, range(40), 1, NoiseConfig(0.1)).shots == 1
    # with a dense qudit measured, the marginal would need 2**40
    mixed = StateVector(2, 40, np.array([1.0, 0.0]), dict.fromkeys(range(39), 0))
    with pytest.raises(ValueError, match=r"2\*\*40 amplitudes"):
        measure(mixed, range(40), 1, NoiseConfig(0.1))
    # a 2**20 marginal is within it
    assert measure(mixed, [*range(19), 39], 1).counts == {"0" * 20: 1}
    assert measure(state, range(20), 1, NoiseConfig(0.1)).shots == 1


def _flips(histogram, digits):
    """Per measured position, how many shots read it off its known digit, and
    the levels those shots read."""
    d, width = histogram.base, histogram.width
    flips, levels = [0] * width, []
    for value, count in histogram.tallies.items():
        read = from_integer(value, d, width).digits
        for pos, (x, y) in enumerate(zip(read, digits)):
            if x != y:
                flips[pos] += count
                levels += [x] * count
    return flips, levels


def test_a_noisy_readout_past_the_cap_draws_each_digit_on_its_own():
    # 100000**3 outcomes: no marginal; each digit flips alone, to another level
    spec = AdderSpec(100000, 2, 2, Mode.ADD, (1, 2))
    state = execute(build_full_adder(spec))
    width = spec.result_width
    assert 100000**width > MAX_AMPLITUDES and state.dense.size == 1
    digits = [state.digits[qi] for qi in range(width)]
    shots, p = 20000, 0.1
    histogram = measure(state, range(width), shots, NoiseConfig(p, seed=3))
    assert histogram.shots == shots and list(histogram.tallies) == sorted(histogram.tallies)
    assert all(type(v) is int and type(c) is int for v, c in histogram.tallies.items())
    flips, levels = _flips(histogram, digits)
    # each rate within 5 sigma of p: sqrt(p * (1 - p) / shots) is 0.0021
    assert all(abs(f / shots - p) < 0.011 for f in flips), flips
    # the flipped levels are spread over the other 99,999: mean within 5 sigma
    assert len(set(levels)) > 0.95 * len(levels)
    assert abs(np.mean(levels) - 50000) < 5 * 28868 / math.sqrt(len(levels))
    # seeded: the same seed draws the same histogram, another seed another
    assert measure(state, range(width), shots, NoiseConfig(p, seed=3)) == histogram
    assert measure(state, range(width), shots, NoiseConfig(p, seed=4)) != histogram
    # a sure flip moves every digit, to each other level alike: 3**17 outcomes
    state = StateVector(3, 17, np.ones(1), dict.fromkeys(range(17), 0))
    assert 3**17 > MAX_AMPLITUDES
    flips, levels = _flips(measure(state, range(17), 600, NoiseConfig(1.0)), [0] * 17)
    assert flips == [600] * 17
    # levels 1 and 2 each half of 10,200 reads; one sigma is 0.005
    counts = np.bincount(levels, minlength=3)
    assert counts[0] == 0 and abs(counts[1] / counts.sum() - 0.5) < 0.025, counts


def test_a_noisy_readout_past_int64_levels_draws_each_digit_on_its_own():
    # levels past 2**63 are drawn from 32-bit words, each below d - 1
    d = 2**64 + 13
    state = StateVector(d, 3, np.ones(1), {0: d - 1, 1: 0, 2: 2**63})
    digits = [d - 1, 0, 2**63]
    histogram = measure(state, range(3), 4000, NoiseConfig(0.5, seed=9))
    assert histogram.shots == 4000 and list(histogram.tallies) == sorted(histogram.tallies)
    assert measure(state, range(3), 4000, NoiseConfig(0.5, seed=9)) == histogram
    flips, levels = _flips(histogram, digits)
    assert all(abs(f / 4000 - 0.5) < 0.04 for f in flips), flips
    assert all(0 <= x < d for x in levels) and len(set(levels)) == len(levels)


def _reference_read_each(digits, d, p, shots, seed):
    """``simulator._read_each`` as it was before it tallied in int64: every
    shot's value a Python int, counted in a ``Counter``."""
    rng = np.random.default_rng(seed)
    reads = np.tile(np.array(digits, dtype=np.int64 if d <= 2**63 else object), (shots, 1))
    flip = rng.random(reads.shape) < p
    levels = reads[flip]
    others = simulator._uniform(rng, d - 1, levels.size)
    reads[flip] = others + (others >= levels)
    values = functools.reduce(lambda value, col: value * d + col, reads.T.astype(object))
    tallies = collections.Counter(values.tolist())
    return {value: tallies[value] for value in sorted(tallies)}


# (d, width) with d**width just under, at and just over 2**63, and small
_READ_EACH_SPANS = {
    "3 digits under": (2**21 - 1, 3),
    "3 digits at": (2**21, 3),
    "3 digits over": (2**21 + 1, 3),
    "2 digits under": (3037000499, 2),
    "2 digits over": (3037000500, 2),
    "1 digit at": (2**63, 1),
    "1 digit over": (2**63 + 1, 1),
    "13 base-28 digits under": (28, 13),
    "base 100000": (100000, 3),
}


@pytest.mark.parametrize("d, width", _READ_EACH_SPANS.values(), ids=_READ_EACH_SPANS)
def test_read_each_tallies_as_the_reference(monkeypatch, d, width):
    fits = d**width <= 2**63
    if fits:  # the int64 tally counts no Python ints
        monkeypatch.setattr(simulator, "collections", None)
    # the top digits make the largest value, d**width - 1
    tallies = []
    for digits in [[d - 1] * width, [d - 1, *range(width - 1)], [0] * width]:
        for p, shots in [(0.3, 3000), (1.0, 500), (0.01, 1)]:
            got = simulator._read_each(digits, d, p, shots, 11)
            want = _reference_read_each(digits, d, p, shots, 11)
            assert list(got.items()) == list(want.items()), (digits, p)
            assert all(type(v) is int and type(c) is int for v, c in got.items())
            tallies.append(got)
    assert d**width - 1 in tallies[0]


@st.composite
def _readouts(draw):
    """A state with random digits and a normalized dense part, d in 2..17, and
    an ordered readout of it: often of digits alone, with or without noise."""
    d = draw(st.integers(2, 17))
    q = draw(st.integers(1, next(q for q in itertools.count(1) if d ** (q + 1) > 4096)))
    known = draw(st.dictionaries(st.integers(0, q - 1), st.integers(0, d - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = d ** (q - len(known))
    part = rng.normal(size=size) + 1j * rng.normal(size=size)
    state = StateVector(d, q, part / np.linalg.norm(part), known)
    pool = sorted(known) if known and draw(st.booleans()) else range(q)
    qudits = draw(st.permutations(pool))[: draw(st.integers(1, len(pool)))]
    p = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
    noise = NoiseConfig(p, draw(st.integers(0, 2**64 - 1)))
    return state, qudits, draw(st.integers(1, 10**4)), noise


@settings(deadline=None)
@given(_readouts())
def test_a_digit_readout_equals_the_draw_without_drawing(readout):
    state, qudits, shots, noise = readout
    noiseless = noise.readout_flip_probability == 0.0
    read = all(qi in state.digits for qi in qudits)
    with pytest.MonkeyPatch.context() as patch:
        marginals, generators, default_rng = [], [], np.random.default_rng
        patch.setattr(simulator, "_marginal", _recorded(marginals, simulator._marginal))
        patch.setattr(np.random, "default_rng", _recorded(generators, default_rng))
        got = measure(state, qudits, shots, noise)
    # only a dense measured qudit needs the exact marginal; only a
    # noiseless readout of known digits needs no generator
    assert len(marginals) == (0 if read else 1)
    assert len(generators) == (0 if noiseless and read else 1)
    assert got == measure(as_dense(state), qudits, shots, noise)
    if noiseless and read:
        outcome = DigitString(state.base, tuple(state.digits[qi] for qi in qudits))
        assert got.tallies == {to_integer(outcome): shots}


def _channel_passes(d, p, digits):
    """The noisy marginal of known ``digits`` as ``measure`` computes it on a
    dense state: the one-hot marginal, then one channel pass per axis."""
    channel = np.full((d, d), p / (d - 1))
    np.fill_diagonal(channel, 1.0 - p)
    probs = np.zeros((d,) * len(digits))
    probs[tuple(digits)] = 1.0
    for ax in range(len(digits)):
        probs = np.moveaxis(np.tensordot(channel, probs, axes=(1, ax)), 0, ax)
    return probs.reshape(-1) / probs.sum()


@st.composite
def _noisy_digit_readouts(draw):
    """A state of d in 2..17 with random digits, some unmeasured, and a
    normalized dense part, and a noisy readout of its digits in random order."""
    d = draw(st.integers(2, 17))
    width = draw(st.integers(1, next(w for w in itertools.count(1) if d ** (w + 1) > 2**16)))
    spare = draw(st.integers(0, 2))
    free = draw(st.integers(0, 2 if d < 9 else 1))
    placed = draw(st.permutations(range(width + spare + free)))
    known = {qi: draw(st.integers(0, d - 1)) for qi in placed[: width + spare]}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    part = rng.normal(size=d**free) + 1j * rng.normal(size=d**free)
    state = StateVector(d, len(placed), part / np.linalg.norm(part), known)
    qudits = draw(st.permutations(list(known)))[:width]
    p = draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0, exclude_min=True))
    noise = NoiseConfig(p, draw(st.integers(0, 2**64 - 1)))
    return state, qudits, draw(st.integers(1, 10**4)), noise


@settings(deadline=None)
@given(_noisy_digit_readouts())
def test_a_noisy_digit_readout_draws_the_passes_probabilities_bit_for_bit(readout):
    state, qudits, shots, noise = readout
    pvals, default_rng = [], np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.generator = default_rng(seed)

        def multinomial(self, n, p):
            pvals.append(np.array(p))
            return self.generator.multinomial(n, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", Recording)
        got = measure(state, qudits, shots, noise)
    d, p = state.base, noise.readout_flip_probability
    want = _channel_passes(d, p, [state.digits[qi] for qi in qudits])
    assert len(pvals) == 1 and pvals[0].dtype == want.dtype
    # bits, not values: a sum added in another order differs in the last bit
    assert np.array_equal(pvals[0].view(np.uint64), want.view(np.uint64))
    tallies = default_rng(noise.seed).multinomial(shots, want)
    assert got.tallies == {v: c for v, c in enumerate(tallies.tolist()) if c}


def _recorded(calls, real):
    """``real``, recording the arguments of each call in ``calls``."""

    def spy(*args):
        calls.append(args)
        return real(*args)

    return spy
