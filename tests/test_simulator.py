import itertools
import json
import tracemalloc

import numpy as np
import pytest
from scipy import stats

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
    execute,
    from_integer,
    histogram_to_json,
    measure,
    parse_digit_text,
    required_ancillas,
    to_integer,
    zero_state,
)
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
    nan_state = StateVector(2, 1, np.array([np.nan, 0.0]))
    with pytest.raises(RuntimeError):
        execute(circ, nan_state)


def test_measure_deterministic_state():
    layout = RegisterLayout(2, (("r", 3),))
    state = basis_state(layout, [DigitString(2, (1, 0, 1))])
    hist = measure(state, range(3), shots=1024)
    assert hist.counts == {"101": 1024}
    assert hist.top_outcome() == "101"


def test_measure_selected_qudits_only():
    layout = RegisterLayout(2, (("a", 2), ("b", 1)))
    state = basis_state(layout, [DigitString(2, (1, 0)), DigitString(2, (1,))])
    hist = measure(state, [0, 1], shots=16)
    assert hist.counts == {"10": 16}
    tail = measure(state, [2], shots=16)
    assert tail.counts == {"1": 16}


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
    nan_state = StateVector(2, 2, np.array([np.nan, 0.0, 0.0, 0.0]))
    with pytest.raises(RuntimeError):
        measure(nan_state, [0], shots=4)


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
    survival = hist.counts["0000"] / shots
    # each of 4 digits survives with probability 1-p
    assert survival == pytest.approx((1 - p) ** 4, abs=0.01)


def test_noise_probability_one_always_flips():
    # with p=1 and d=2 every digit inverts deterministically
    layout = RegisterLayout(2, (("r", 2),))
    state = basis_state(layout, [DigitString(2, (0, 1))])
    hist = measure(state, range(2), shots=100, noise=NoiseConfig(1.0, seed=9))
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
    with pytest.raises(ValueError):
        Histogram(2, 10, {"00": 9})
    with pytest.raises(ValueError):
        Histogram(2, 10, {"00": 5, "111": 5})
    with pytest.raises(ValueError):
        Histogram(2, 10, {"02": 10})
    ok = Histogram(2, 10, {"01": 4, "10": 6})
    assert ok.top_outcome() == "10"
    # above base 10 digits are dash-separated, so key lengths may differ
    wide = Histogram(12, 10, {"1-11": 4, "10-2": 6})
    assert wide.top_outcome() == "10-2"
    with pytest.raises(ValueError):
        Histogram(12, 10, {"1-2": 5, "1-2-3": 5})
    with pytest.raises(ValueError):
        Histogram(12, 10, {"1-12": 10})


def test_top_outcome_tie_breaks_low():
    hist = Histogram(2, 10, {"11": 5, "00": 5})
    assert hist.top_outcome() == "00"
    # by value, not by string: "2-0" < "10-0" in base 12
    wide = Histogram(12, 10, {"10-0": 5, "2-0": 5})
    assert wide.top_outcome() == "2-0"


def test_histogram_json_sorted_keys():
    hist = Histogram(2, 6, {"10": 1, "01": 2, "00": 3})
    payload = json.loads(histogram_to_json(hist))
    assert list(payload["counts"]) == ["00", "01", "10"]
    assert payload["base"] == 2
    assert payload["shots"] == 6
    assert histogram_to_json(hist).endswith("\n")
    # above base 10 keys sort by value, not as strings
    wide = Histogram(12, 4, {"0-10": 1, "0-2": 1, "1-0": 1, "0-11": 1})
    payload = json.loads(histogram_to_json(wide))
    assert list(payload["counts"]) == ["0-2", "0-10", "0-11", "1-0"]


def test_adder_histogram_with_noise_keeps_majority():
    spec = AdderSpec(base=2, digits_per_input=2, num_inputs=4, mode=Mode.ADD, inputs=(3, 2, 1, 2))
    state = execute(build_full_adder(spec))
    hist = measure(state, range(4), shots=4096, noise=NoiseConfig(0.05, seed=1))
    assert hist.top_outcome() == "1000"
    assert hist.counts["1000"] > 4096 // 2


def _assert_matches_dense(circuit, selections):
    """The factored result of ``execute`` against the dense reference.

    Returns the factored state after checking its full vector, its
    histograms on each selection, ``copy`` and its use as ``initial``.
    """
    reduced = execute(circuit)
    dense = execute(circuit, zero_state(circuit.layout))
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
    twin = reduced.copy()
    digits = dict(reduced.digits)
    assert twin.digits == digits
    twin.dense[:] = 0
    twin.digits.clear()
    assert reduced.digits == digits
    assert np.max(np.abs(reduced.amplitudes - dense.amplitudes)) <= 1e-12
    # a state with digits as ``initial`` is updated and returned; the
    # circuit's HADAMARDs and SWAPs touch no digit of it, so all stay tracked
    again = reduced.copy()
    assert execute(circuit, again) is again
    assert again.digits.keys() == digits.keys()
    rerun = execute(circuit, dense.copy())
    assert np.max(np.abs(again.amplitudes - rerun.amplitudes)) <= 1e-12
    return reduced


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
                        selections.append(layout.register_named("a1"))
                    state = _assert_matches_dense(build_full_adder(spec), selections)
                    # the inputs a1.. are the tracked digits, the span is dense
                    tracked = set(range(layout.register_start(2), last + 1))
                    assert set(state.digits) == tracked
                    if count > 1:
                        a1 = measure(state, layout.register_named("a1"), 16)
                        want = from_integer(inputs[1], d, n).to_string()
                        assert a1.counts == {want: 16}
                    checked += 1
    assert checked == 188


def test_execute_digit_tracking_matches_dense_on_mixed_circuit():
    d = 3
    layout = RegisterLayout(d, (("r", 6),))
    # qudits 1, 3 and 5 never meet a HADAMARD or SWAP; qudit 2 starts as a
    # SHIFT target but a SWAP makes it dense
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
    state = _assert_matches_dense(circuit, [[5, 0, 3], [2, 4], [3]])
    # the known digits (qudit 3 at 1, qudit 5 at 1) hold the whole weight
    probs = state.probabilities().reshape((d,) * 6)
    assert probs[:, 0, :, 1, :, 1].sum() == pytest.approx(1.0, abs=1e-12)
    # as ``initial``, that state takes an in-place CPHASE as its first op
    phase = Circuit(d, layout, (GateOp(GateKind.CPHASE, (0, 4), theta=0.6),))
    again = execute(phase, state.copy())
    want = execute(phase, StateVector(d, 6, state.amplitudes.copy()))
    assert again.digits == state.digits
    assert np.max(np.abs(again.amplitudes - want.amplitudes)) <= 1e-12


def test_execute_widens_only_the_digits_it_mixes():
    # a factored ``initial``: qudits 1 and 3 dense, 0, 2 and 4 tracked
    d = 3
    layout = RegisterLayout(d, (("r", 5),))
    rng = np.random.default_rng(5)
    part = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    factored = StateVector(d, 5, part / np.linalg.norm(part), {0: 2, 2: 1, 4: 0})
    dense = StateVector(d, 5, factored.amplitudes.copy())
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
    # a 2**32 span, 92 qubits and 2**25 sampled digits are all rejected
    # before any buffer
    spec = AdderSpec(2, 30, 3, Mode.ADD, (1, 2, 3))
    with pytest.raises(ValueError, match=r"2\*\*32 amplitudes"):
        execute(build_full_adder(spec))
    with pytest.raises(ValueError, match=r"2\*\*92 amplitudes"):
        zero_state(spec.layout)
    state = zero_state(RegisterLayout(2, (("r", 2),)))
    with pytest.raises(ValueError, match=f"{2**25} digits"):
        measure(state, [0, 1], shots=2**24)


def test_marginal_over_the_limit_fails_before_allocating():
    # 40 tracked qubits hold one amplitude; their marginal would need 2**40
    state = StateVector(2, 40, np.ones(1), dict.fromkeys(range(40), 0))
    with pytest.raises(ValueError, match=r"2\*\*40 amplitudes"):
        measure(state, range(40), 1)
    # a 2**20 marginal is within it
    assert measure(state, range(20), 1).counts == {"0" * 20: 1}
