import itertools
import json
import random
import tracemalloc

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
    op = st.one_of(
        st.builds(GateOp, st.just(GateKind.HADAMARD), one, dagger=st.booleans()),
        st.builds(GateOp, st.just(GateKind.SHIFT), one, k=st.integers(0, d)),
        st.builds(GateOp, st.just(GateKind.CPHASE), pair, theta=st.floats(-7, 7)),
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
    rng = np.random.default_rng(11)
    fan = [
        GateOp(GateKind.CPHASE, pair, theta=float(theta))
        for pair, theta in zip(
            itertools.cycle([(2, 0), (1, 3), (3, 0), (1, 2)]), rng.uniform(3.0, 4.0, 2010)
        )
    ]
    ops = [
        GateOp(GateKind.SHIFT, (2,), k=2),
        GateOp(GateKind.SHIFT, (3,), k=1),
        GateOp(GateKind.HADAMARD, (0,)),
        GateOp(GateKind.HADAMARD, (1,)),
        *fan[:10],
        GateOp(GateKind.HADAMARD, (0,)),  # folded angles on qudit 0 must land first
        *fan[10:20],
        GateOp(GateKind.SHIFT, (3,), k=1),  # a digit moves: later fans read 2
        *fan[20:1990],  # each angle is 3..4 at level 2: over 2*pi*10**3 per factor
        GateOp(GateKind.SHIFT, (1,), k=1),  # rolls a factor after its angle lands
        GateOp(GateKind.SWAP, (0, 1)),  # two factors trade places, angles with them
        *fan[1990:2000],
        GateOp(GateKind.CPHASE, (0, 1), theta=0.9),  # two factor ends: both widened
        *fan[2000:],  # a digit end and a dense end: one phase pass each
        GateOp(GateKind.HADAMARD, (1,), dagger=True),
    ]
    for end in (0, 1):
        assert sum(2 * op.theta for op in fan[20:1990] if end in op.qudits) > 2 * np.pi * 1e3
    circuit = Circuit(d, layout, ops)
    phases = _spy(monkeypatch, "phase")
    folded = execute(circuit)
    assert folded.digits == {2: 2, 3: 2}
    assert folded.dense.size == d * d
    # the 2000 fan CPHASEs on factors fold into their angles, with no pass
    assert [axes for _, axes, _ in phases] == [[0, 1]] + [[0], [1]] * 5
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


@pytest.mark.parametrize("delta, snaps", [(1e-9, False), (1e-14, True)])
def test_a_factor_snaps_to_a_digit_only_within_the_tolerance(delta, snaps):
    # H, a phase of 2*pi/3 + delta on level 1 from a digit control, a roll
    # and H+: qudit 0 ends at |1> times exp(-2*pi*i/3), and about
    # 0.58*delta off it at each other level
    d = 3
    layout = RegisterLayout(d, (("r", 2),))
    ops = (
        GateOp(GateKind.SHIFT, (1,), k=1),
        GateOp(GateKind.HADAMARD, (0,)),
        GateOp(GateKind.CPHASE, (1, 0), theta=2 * np.pi / 3 + delta),
        GateOp(GateKind.SHIFT, (0,), k=1),
        GateOp(GateKind.HADAMARD, (0,), dagger=True),
    )
    circuit = Circuit(d, layout, ops)
    state = execute(circuit)
    assert state.digits == ({0: 1, 1: 1} if snaps else {1: 1})
    assert state.dense.size == (1 if snaps else d)
    want = execute(circuit, as_dense(zero_state(layout)))
    assert abs(want.amplitudes[d + 1] - np.exp(-2j * np.pi / 3)) <= 1e-8
    assert np.max(np.abs(state.amplitudes - want.amplitudes)) <= 1e-12


def test_marginal_over_the_limit_fails_before_allocating():
    # 40 tracked qubits hold one amplitude: read without noise, they need no marginal
    state = StateVector(2, 40, np.ones(1), dict.fromkeys(range(40), 0))
    assert measure(state, range(40), 1).counts == {"0" * 40: 1}
    # with noise, or with a dense qudit measured, their marginal would need 2**40
    mixed = StateVector(2, 40, np.array([1.0, 0.0]), dict.fromkeys(range(39), 0))
    for held, noise in [(state, NoiseConfig(0.1)), (mixed, None)]:
        with pytest.raises(ValueError, match=r"2\*\*40 amplitudes"):
            measure(held, range(40), 1, noise)
    # a 2**20 marginal is within it
    assert measure(mixed, [*range(19), 39], 1).counts == {"0" * 20: 1}
    assert measure(state, range(20), 1, NoiseConfig(0.1)).shots == 1


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
    digits_only = noiseless and all(qi in state.digits for qi in qudits)
    with pytest.MonkeyPatch.context() as patch:
        marginals, generators, default_rng = [], [], np.random.default_rng
        patch.setattr(simulator, "_marginal", _recorded(marginals, simulator._marginal))
        patch.setattr(np.random, "default_rng", _recorded(generators, default_rng))
        got = measure(state, qudits, shots, noise)
    # a readout of known digits builds no marginal and no generator; all else both
    assert len(marginals) == len(generators) == (0 if digits_only else 1)
    if noiseless:
        assert got == measure(as_dense(state), qudits, shots, noise)
    if digits_only:
        read = DigitString(state.base, tuple(state.digits[qi] for qi in qudits))
        assert got.tallies == {to_integer(read): shots}


def _recorded(calls, real):
    """``real``, recording the arguments of each call in ``calls``."""

    def spy(*args):
        calls.append(args)
        return real(*args)

    return spy
