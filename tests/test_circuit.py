import copy
import dataclasses
import itertools
import json
import math
import pickle
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import dft_matrix, fragment_unitary
from qftadd import (
    AdderSpec,
    Circuit,
    GateKind,
    GateOp,
    Mode,
    RegisterLayout,
    build_full_adder,
    build_iqft,
    build_qft,
    circuit_to_json,
    circuit_to_qasm,
    circuit_to_text,
    concat,
    execute,
    zero_state,
)
from qftadd import circuit as circuit_module
from qftadd.adder import _design_body
from qftadd.circuit import _shift


def qft_layout(d, q):
    return RegisterLayout(d, (("r", q),))


def test_gate_op_validation():
    with pytest.raises(ValueError):
        GateOp(GateKind.HADAMARD, (0, 1))
    with pytest.raises(ValueError):
        GateOp(GateKind.CPHASE, (0, 1))  # missing theta
    with pytest.raises(ValueError):
        GateOp(GateKind.HADAMARD, (0,), theta=0.5)
    with pytest.raises(ValueError):
        GateOp(GateKind.SWAP, (2, 2))
    with pytest.raises(ValueError):
        GateOp(GateKind.SHIFT, (0,))  # missing k
    with pytest.raises(ValueError):
        GateOp(GateKind.CPHASE, (0, 1), theta=0.1, dagger=True)
    with pytest.raises(ValueError, match="non-negative"):
        GateOp(GateKind.HADAMARD, (-1,))
    with pytest.raises(ValueError, match="shift amount must be non-negative, got -1"):
        GateOp(GateKind.SHIFT, (0,), k=-1)
    for theta in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="theta"):
            GateOp(GateKind.CPHASE, (0, 1), theta=theta)
    # a dagger that is no bool, 0 or 1 is refused, naming it
    for dagger in ("yes", 0.5, 1.0, 2, -1, None, [], np.array([True])):
        with pytest.raises(ValueError, match="dagger"):
            GateOp(GateKind.HADAMARD, (0,), dagger=dagger)
    # the others are stored as the bool: equal, hashed and shown as that op
    for dagger in (True, False, 0, 1, np.True_, np.False_):
        op = GateOp(GateKind.HADAMARD, (0,), dagger=dagger)
        plain = GateOp(GateKind.HADAMARD, (0,), dagger=bool(dagger))
        assert op.dagger is bool(dagger) and op == plain and hash(op) == hash(plain)
        assert repr(op) == repr(plain)


@pytest.mark.parametrize("kind", ["CPHASE", "cphase", None, 1])
def test_gate_op_names_a_kind_that_is_no_gate_kind(kind):
    # a kind's name is no kind: the error says so, not a bare KeyError
    with pytest.raises(ValueError, match=re.escape(f"kind must be a GateKind, got {kind!r}")):
        GateOp(kind, (0, 1), theta=1.0)


def test_circuit_rejects_out_of_range_ops():
    layout = qft_layout(2, 2)
    with pytest.raises(ValueError):
        Circuit(2, layout, (GateOp(GateKind.HADAMARD, (2,)),))
    with pytest.raises(ValueError, match="circuit base 3 != layout base 2"):
        Circuit(3, layout, ())


# each label is refused by Circuit; the circuit has two ops
_BAD_LABELS = {
    "lo above hi": (("x", 2, 1), ValueError),
    "negative lo": (("y", -3, 1), ValueError),
    "hi past the ops": (("y", 0, 99), ValueError),
    "name not a str": ((7, 0, 2), TypeError),
    "float lo": (("z", 1.5, 2), TypeError),
    "float hi": (("z", 0, 2.0), TypeError),
    "two fields": (("w", 0), ValueError),
}


@pytest.mark.parametrize("label, error", _BAD_LABELS.values(), ids=_BAD_LABELS)
def test_circuit_rejects_bad_labels(label, error):
    layout = qft_layout(2, 2)
    ops = build_qft(layout, range(2)).ops[:2]
    with pytest.raises(error):
        Circuit(2, layout, ops, labels=(("ok", 0, 1), label))


def test_circuit_labels_take_integer_bounds():
    layout = qft_layout(2, 2)
    ops = build_qft(layout, range(2)).ops
    end = len(ops)
    labels = (("empty", 0, 0), ("all", np.int64(0), np.int64(end)), ("end", end, end))
    circ = Circuit(2, layout, ops, labels=labels)
    assert circ.labels == (("empty", 0, 0), ("all", 0, end), ("end", end, end))
    assert all(type(lo) is int and type(hi) is int for _, lo, hi in circ.labels)


@pytest.mark.parametrize("base", [np.int64(3), np.uint8(3)], ids=["int64", "uint8"])
def test_circuit_stores_an_integer_base(base):
    layout = qft_layout(3, 2)
    ops = build_qft(layout, range(2)).ops
    circ, plain_circ = Circuit(base, layout, ops), Circuit(3, layout, ops)
    assert type(circ.base) is int and circ == plain_circ and hash(circ) == hash(plain_circ)
    assert circuit_to_json(circ) == circuit_to_json(plain_circ) == reference_json(plain_circ)
    got = execute(circ, zero_state(layout)).amplitudes
    assert np.array_equal(got, execute(plain_circ, zero_state(layout)).amplitudes)


@pytest.mark.parametrize("base", [3.0, np.float64(3.0), Fraction(3), "3", None])
def test_circuit_refuses_a_non_integer_base(base):
    layout = qft_layout(3, 2)
    with pytest.raises(TypeError, match=re.escape(f"base must be an int, got {base!r}")):
        Circuit(base, layout, ())


def test_qft_tally():
    """Width w gives w Hadamards, w(w-1)/2 phases, floor(w/2) swaps."""
    for d in (2, 3, 4):
        for w in (1, 2, 3, 4, 5):
            circ = build_qft(qft_layout(d, w), range(w))
            tally = circ.tally()
            assert tally[GateKind.HADAMARD] == w
            assert tally[GateKind.CPHASE] == w * (w - 1) // 2
            assert tally[GateKind.SWAP] == w // 2
            assert tally[GateKind.SHIFT] == 0


def test_tally_counts_absent_kinds_as_zero_in_kind_order():
    layout = qft_layout(3, 2)
    h = GateOp(GateKind.HADAMARD, (0,))
    cp = GateOp(GateKind.CPHASE, (1, 0), theta=0.5)
    for ops, want in [((), (0, 0, 0, 0)), ((h, cp, h), (2, 1, 0, 0))]:
        tally = Circuit(3, layout, ops).tally()
        assert list(tally) == list(GateKind)
        assert tuple(tally.values()) == want


def test_qft_matches_dft_matrix():
    for d, w in [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (5, 1)]:
        circ = build_qft(qft_layout(d, w), range(w))
        unitary = fragment_unitary(circ)
        assert np.max(np.abs(unitary - dft_matrix(d**w))) < 1e-9


def test_iqft_inverts_qft():
    for d, w in [(2, 3), (3, 2), (4, 2)]:
        layout = qft_layout(d, w)
        both = concat([build_qft(layout, range(w)), build_iqft(layout, range(w))])
        unitary = fragment_unitary(both)
        assert np.max(np.abs(unitary - np.eye(d**w))) < 1e-9


def test_iqft_is_gatewise_conjugate():
    # every d in 2..16 and width 1..6, on a range that starts at qudit 1
    for d, w in itertools.product(range(2, 17), range(1, 7)):
        layout = qft_layout(d, w + 1)
        qft = build_qft(layout, range(1, w + 1))
        iqft = build_iqft(layout, range(1, w + 1))
        assert len(qft.ops) == len(iqft.ops)
        for fwd, rev in zip(qft.ops, reversed(iqft.ops)):
            assert fwd.kind == rev.kind
            assert fwd.qudits == rev.qudits
            if fwd.kind is GateKind.CPHASE:
                assert rev.theta == -fwd.theta, (d, w)  # exact, not approximate
            assert rev.dagger == (fwd.kind is GateKind.HADAMARD) and not fwd.dagger


def test_qft_ladder_is_built_once():
    spec = AdderSpec(3, 2, 3, Mode.ADD, (1, 2, 3))
    circuit = build_full_adder(spec)
    spans = {name: circuit.ops[lo:hi] for name, lo, hi in circuit.labels}
    w = spec.result_width
    # every builder of one ladder holds the same GateOp objects
    for build, name in ((build_qft, "qft"), (build_iqft, "iqft")):
        ops = build(spec.layout, range(w)).ops
        assert all(a is b for a, b in zip(ops, spans[name], strict=True))


def test_qft_angles_follow_depth():
    # the phase between adjacent qudits is 2*pi/d**2, next-nearest 2*pi/d**3
    d = 3
    circ = build_qft(qft_layout(d, 3), range(3))
    cps = [op for op in circ.ops if op.kind is GateKind.CPHASE]
    by_distance = {}
    for op in cps:
        by_distance.setdefault(abs(op.qudits[0] - op.qudits[1]), set()).add(op.theta)
    assert sorted(by_distance[1]) == pytest.approx([2 * math.pi / d**2])
    assert sorted(by_distance[2]) == pytest.approx([2 * math.pi / d**3])


def test_a_span_past_the_float_range_is_refused_before_building():
    # 1000**103 is over 2**1022: the angle 2*pi/1000**103 is no normal float
    for build in (build_qft, build_iqft):
        with pytest.raises(ValueError, match=r"103 base-1000 qudits .* over the limit of 2\*\*1022"):
            build(qft_layout(1000, 103), range(103))
    # at the bound the ladder builds: (2**511)**2 is 2**1022
    d = 2**511
    (theta,) = [op.theta for op in build_qft(qft_layout(d, 2), range(2)).ops if op.theta]
    assert theta == 2 * math.pi / 2**1022 >= sys.float_info.min
    with pytest.raises(ValueError, match=r"2\*\*1022"):
        build_qft(qft_layout(d, 3), range(3))


def test_build_qft_rejects_gaps():
    layout = RegisterLayout(2, (("r", 4),))
    with pytest.raises(ValueError):
        build_qft(layout, [0, 2, 3])
    with pytest.raises(ValueError):
        build_qft(layout, [])


def test_concat_layout_mismatch():
    a = build_qft(qft_layout(2, 2), range(2))
    b = build_qft(qft_layout(3, 2), range(2))
    with pytest.raises(ValueError):
        concat([a, b])
    with pytest.raises(ValueError, match="at least one circuit"):
        concat([])


def test_concat_offsets_labels():
    layout = qft_layout(2, 2)
    qft, iqft = build_qft(layout, range(2)).ops, build_iqft(layout, range(2)).ops
    first = Circuit(2, layout, qft, labels=(("qft", 0, len(qft)),))
    second = Circuit(2, layout, iqft, labels=(("iqft", 0, len(iqft)),))
    merged = concat([first, second])
    assert merged.labels == (
        ("qft", 0, len(first.ops)),
        ("iqft", len(first.ops), len(first.ops) + len(second.ops)),
    )


def test_json_round_trip_fields():
    layout = RegisterLayout(2, (("anc", 1), ("a0", 1)))
    circ = Circuit(
        2,
        layout,
        (
            GateOp(GateKind.SHIFT, (1,), k=1),
            GateOp(GateKind.HADAMARD, (0,)),
            GateOp(GateKind.CPHASE, (1, 0), theta=math.pi / 2),
            GateOp(GateKind.HADAMARD, (0,), dagger=True),
        ),
    )
    payload = json.loads(circuit_to_json(circ))
    assert payload["base"] == 2
    assert payload["registers"] == [
        {"name": "anc", "size": 1},
        {"name": "a0", "size": 1},
    ]
    assert payload["ops"][0] == {"kind": "SHIFT", "qudits": [1], "k": 1}
    assert payload["ops"][1] == {"kind": "HADAMARD", "qudits": [0]}
    assert payload["ops"][2]["theta"] == pytest.approx(math.pi / 2)
    assert payload["ops"][3]["dagger"] is True
    assert circuit_to_json(circ).endswith("\n")


def reference_json(circuit):
    """The writer circuit_to_json replaced: one json.dumps(indent=2) of it all."""
    ops = []
    for op in circuit.ops:
        entry: dict = {"kind": op.kind.value, "qudits": list(op.qudits)}
        if op.theta is not None:
            entry["theta"] = op.theta
        if op.k is not None:
            entry["k"] = op.k
        if op.dagger:
            entry["dagger"] = True
        ops.append(entry)
    payload = {
        "base": circuit.base,
        "registers": [
            {"name": name, "size": size} for name, size in circuit.layout.registers
        ],
        "ops": ops,
    }
    return json.dumps(payload, indent=2) + "\n"


def test_json_matches_the_reference_writer_on_adders():
    for d, n, N, mode in itertools.product(range(2, 17), (1, 2, 3), (1, 2, 3, 5), Mode):
        inputs = tuple((7 * i + 3) % d**n for i in range(N))
        circ = build_full_adder(AdderSpec(d, n, N, mode, inputs))
        assert circuit_to_json(circ) == reference_json(circ), (d, n, N, mode)


def plain(circ):
    """The same circuit through the public constructor, with no adder body."""
    return Circuit(circ.base, circ.layout, circ.ops, circ.labels)


BODY_DESIGNS = [
    *itertools.product((2, 3, 4, 7, 11, 16), (1, 2, 3), (1, 2, 3, 4, 5)), (2, 16, 64)
]


def test_an_adders_json_is_the_plain_writers_on_first_and_repeated_export():
    _design_body.cache_clear()  # so each design's first export writes its body
    for (d, n, N), mode in itertools.product(BODY_DESIGNS, Mode):
        nonzero = tuple((7 * i + 3) % d**n for i in range(N))
        circuits = [build_full_adder(AdderSpec(d, n, N, mode, inputs))
                    for inputs in [(0,) * N, nonzero, nonzero]]
        body = _design_body(d, n, N, mode.sign)
        assert body.json is None, (d, n, N, mode)
        kept = []
        for circ in circuits:
            assert circuit_to_json(circ) == circuit_to_json(plain(circ)), (d, n, N, mode)
            kept.append(body.json)
        assert kept[0] is not None and all(text is kept[0] for text in kept)
        assert circuit_to_json(circuits[0]) == reference_json(circuits[0])
        # the stored text is the body's own op list, ops joined by ",\n"
        assert json.loads(f"[{body.json}]") == json.loads(circuit_to_json(circuits[0]))["ops"]


def test_a_repeated_adder_export_runs_no_encoder(monkeypatch):
    # after a design's first export, another adder of the design joins the
    # kept header, its SHIFT texts and the kept body text
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for d, n, N, mode in [(2, 16, 64, Mode.ADD), (3, 8, 12, Mode.SUB), (16, 3, 40, Mode.SUB)]:
        circuit_to_json(build_full_adder(AdderSpec(d, n, N, mode, (1,) * N)))
        other = build_full_adder(AdderSpec(d, n, N, mode, tuple((7 * i + 3) % d**n for i in range(N))))
        with monkeypatch.context() as patch:
            patch.setattr(circuit_module.json, "dumps", spy("dumps", json.dumps))
            patch.setattr(circuit_module, "_write_ops", spy("_write_ops", circuit_module._write_ops))
            text = circuit_to_json(other)
            assert calls == [], (d, n, N, mode)
            want = circuit_to_json(plain(other))  # the body-less path runs both
            assert calls == ["dumps", "_write_ops"]
            calls.clear()
        assert text == want == reference_json(other)


def test_an_adders_body_is_private():
    circ = build_full_adder(AdderSpec(3, 2, 4, Mode.SUB, (1, 8, 0, 5)))
    circuit_to_json(circ)  # the body now holds its text
    other = plain(circ)
    assert "_body" in vars(circ) and "_body" not in vars(other)
    assert circ == other and hash(circ) == hash(other) and repr(circ) == repr(other)
    assert pickle.dumps(circ) == pickle.dumps(other)
    # a circuit made from an adder's fields holds no body, and takes the plain path
    made = [
        pickle.loads(pickle.dumps(circ)),
        copy.copy(circ),
        copy.deepcopy(circ),
        dataclasses.replace(circ),
        dataclasses.replace(circ, ops=circ.ops[1:], labels=()),
        dataclasses.replace(circ, ops=circ.ops[:-1], labels=()),
        concat([circ]),
        concat([circ, circ]),
    ]
    for made_circ in made:
        assert "_body" not in vars(made_circ)
        assert circuit_to_json(made_circ) == reference_json(made_circ)
    assert made[0] == circ and made[3] == circ


def test_json_matches_the_reference_writer_on_edge_cases():
    odd = RegisterLayout(3, (("q\"uo\\te", 2), ("empty", 0), ("dé\u2603", 1)))
    thetas = (-0.0, 2.0, 1e-300, 1e16)
    ops = (
        GateOp(GateKind.SHIFT, (0,), k=7),  # k >= d
        GateOp(GateKind.HADAMARD, (1,), dagger=True),
        GateOp(GateKind.SWAP, (0, 2)),
        *(GateOp(GateKind.CPHASE, (2, 0), theta=theta) for theta in thetas),
    )
    # signed zeros and one angle over many ops, through the per-call angle map
    angles = [0.0, -0.0, 0.1, 2 * math.pi / 3**5, -0.1] * 40
    repeated = [GateOp(GateKind.CPHASE, (i % 3, (i + 1) % 3), theta=a) for i, a in enumerate(angles)]
    circuits = [Circuit(3, odd, ()), Circuit(3, odd, ops), Circuit(3, odd, repeated)]
    for circ in circuits:
        assert circuit_to_json(circ) == reference_json(circ)
    payload = json.loads(circuit_to_json(circuits[1]))
    assert [reg["name"] for reg in payload["registers"]] == ["q\"uo\\te", "empty", "dé\u2603"]
    assert [op["theta"] for op in payload["ops"][3:]] == list(thetas)
    assert math.copysign(1, payload["ops"][3]["theta"]) == -1
    written = [op["theta"] for op in json.loads(circuit_to_json(circuits[2]))["ops"]]
    assert [math.copysign(1, a) for a in written] == [math.copysign(1, a) for a in angles]


ONE_OP_OF_EACH_KIND = {
    "HADAMARD": GateOp(GateKind.HADAMARD, (4,)),
    "HADAMARD+": GateOp(GateKind.HADAMARD, (63,), dagger=True),
    "CPHASE": GateOp(GateKind.CPHASE, (64, 0), theta=-2 * math.pi / 7),
    "SWAP": GateOp(GateKind.SWAP, (127, 128)),
    "SHIFT": GateOp(GateKind.SHIFT, (129,), k=12),
    "SHIFT0": GateOp(GateKind.SHIFT, (3,), k=0),
}


@pytest.mark.parametrize("last", list(ONE_OP_OF_EACH_KIND))
def test_json_pieces_join_for_each_kind(last):
    layout = RegisterLayout(3, (("a", 100), ("b", 30)))
    op = ONE_OP_OF_EACH_KIND[last]
    # the op alone, and at the end of a list that holds every kind, with
    # its qudits and parameter already rendered for an earlier op
    others = [other for name, other in ONE_OP_OF_EACH_KIND.items() if name != last]
    for ops in [(op,), (op, *others, op), (*others, op)]:
        circ = Circuit(3, layout, ops)
        assert circuit_to_json(circ) == reference_json(circ), ops


def test_json_pieces_join_for_the_empty_circuit():
    for layout in [RegisterLayout(2, (("a", 3),)), RegisterLayout(2, ())]:
        circ = Circuit(2, layout, ())
        assert circuit_to_json(circ) == reference_json(circ)
        assert json.loads(circuit_to_json(circ))["ops"] == []


# register names json.dumps escapes: quotes, backslashes, controls, non-ASCII
# (as \u escapes) and a lone surrogate
ODD_NAMES = ['q"uote', "back\\slash", "new\nline", "nul\x00", "d\u00e9j\u00e0 \u2603 \U0001f600",
             "lone \ud800", "", "\t\x1f\x7f"]
HEADER_LAYOUTS = {
    "no registers": RegisterLayout(5, ()),
    "one empty register": RegisterLayout(2, (("anc", 0),)),
    "empty registers around": RegisterLayout(3, (("anc", 0), ("a0", 2), ("mid", 0), ("a1", 1), ("end", 0))),
    "odd names": RegisterLayout(7, tuple((name, i % 3) for i, name in enumerate(ODD_NAMES))),
    "a large base": RegisterLayout(2**70 + 1, (("a", 1), ("b", 0))),
    "65 registers": RegisterLayout(2, (("anc", 6), *((f"a{i}", 16) for i in range(64)))),
}


@pytest.mark.parametrize("layout", HEADER_LAYOUTS.values(), ids=HEADER_LAYOUTS)
def test_json_header_is_the_encoders(layout):
    q = layout.total_qudits
    op_lists = [()]
    if q:
        op_lists += [(GateOp(GateKind.SHIFT, (q - 1,), k=1),),
                     (GateOp(GateKind.HADAMARD, (0,)), GateOp(GateKind.SHIFT, (q - 1,), k=3))]
    for ops in op_lists:
        circ = Circuit(layout.base, layout, ops)
        assert circuit_to_json(circ) == reference_json(circ), ops
    registers = json.loads(circuit_to_json(Circuit(layout.base, layout, ())))["registers"]
    assert [(reg["name"], reg["size"]) for reg in registers] == list(layout.registers)


# the pieces the op list writer joined for a SHIFT before its text was cached
OLD_SHIFT_TAIL = '\n      ],\n      "k": {}\n    }},\n'


@pytest.mark.parametrize("d", [2, 3, 16, 100000])
def test_shift_text_is_the_old_pieces(d):
    layout = RegisterLayout(d, (("wide", 2**64 + 3),))
    qudits = [0, 1, 63, 64, 65, 4095, 2**39, 2**63, 2**64 + 2]
    levels = [0, 1, d - 1, d, d + 1, 10 * d, 2**64 + 7]
    want_head = '    {\n      "kind": "SHIFT",\n      "qudits": [\n        '
    for qudit, k in itertools.product(qudits, levels):
        assert _shift(qudit, k)[1] == want_head + str(qudit) + OLD_SHIFT_TAIL.format(k)
    ops = [GateOp(GateKind.SHIFT, (qudit,), k=k) for qudit, k in itertools.product(qudits, levels)]
    for op_list in [ops, ops[::-1], ops[:1], [GateOp(GateKind.HADAMARD, (2,)), *ops[::7]]]:
        circ = Circuit(d, layout, op_list)
        assert circuit_to_json(circ) == reference_json(circ)
    # one op and text per (qudit, level), cached across calls and bounded
    assert _shift(64, d) is _shift(64, d)
    assert _shift(64, d)[0] == GateOp(GateKind.SHIFT, (64,), k=d)
    assert _shift.cache_info().maxsize == 4096


def test_json_pieces_join_for_one_pair_at_many_angles():
    layout = RegisterLayout(5, (("a", 70), ("b", 70)))
    angles = [0.0, -0.0, 1e-300, 3.0, -3.0, 2 * math.pi / 5**9, 0.0, 1e16, 3.0, -0.0] * 30
    ops = [GateOp(GateKind.CPHASE, (69, 70), theta=a) for a in angles]
    ops += [GateOp(GateKind.CPHASE, (70, 69), theta=a) for a in angles[::-1]]
    circ = Circuit(5, layout, ops)
    text = circuit_to_json(circ)
    assert text == reference_json(circ)
    written = [op["theta"] for op in json.loads(text)["ops"]]
    assert [math.copysign(1, a) for a in written] == [math.copysign(1, a) for a in angles + angles[::-1]]


def test_json_of_a_wide_layout_costs_per_op():
    # the qudit text is rendered per op used, never per layout qudit
    layout = RegisterLayout(2, (("wide", 2**40),))
    ops = (GateOp(GateKind.SWAP, (2**40 - 1, 0)), GateOp(GateKind.SHIFT, (2**39,), k=1))
    circ = Circuit(2, layout, ops)
    assert circuit_to_json(circ) == reference_json(circ)


@pytest.mark.parametrize(
    "theta",
    [1, True, np.float32(0.5), Fraction(1, 2), np.float64(0.25)],
    ids=["int", "bool", "float32", "Fraction", "float64"],
)
def test_theta_is_stored_as_a_float(theta):
    layout = RegisterLayout(2, (("a", 2),))
    hadamards = (GateOp(GateKind.HADAMARD, (0,)), GateOp(GateKind.HADAMARD, (1,)))

    def circuit(angle):
        return Circuit(2, layout, (*hadamards, GateOp(GateKind.CPHASE, (0, 1), theta=angle)))

    circ = circuit(theta)
    assert type(circ.ops[-1].theta) is float and circ.ops[-1].theta == float(theta)
    written = json.loads(circuit_to_json(circ))["ops"][-1]["theta"]
    assert type(written) is float and written == float(theta)
    assert circuit_to_qasm(circ) == circuit_to_qasm(circuit(float(theta)))
    got = execute(circ, zero_state(layout)).amplitudes
    want = execute(circuit(float(theta)), zero_state(layout)).amplitudes
    assert np.array_equal(got, want)


def test_qasm_export_base_two_only():
    layout = qft_layout(3, 2)
    circ = build_qft(layout, range(2))
    with pytest.raises(ValueError):
        circuit_to_qasm(circ)


def test_qasm_export_contents():
    layout = RegisterLayout(2, (("anc", 0), ("a0", 2)))
    circ = Circuit(
        2,
        layout,
        (
            GateOp(GateKind.SHIFT, (0,), k=1),
            GateOp(GateKind.HADAMARD, (0,)),
            GateOp(GateKind.CPHASE, (1, 0), theta=math.pi / 4),
            GateOp(GateKind.SWAP, (0, 1)),
        ),
    )
    text = circuit_to_qasm(circ)
    lines = text.strip().split("\n")
    assert lines[0] == "OPENQASM 2.0;"
    assert 'include "qelib1.inc";' in lines
    assert "qreg a0[2];" in lines
    assert "anc" not in text  # zero-width registers are dropped
    assert "x a0[0];" in lines
    assert "h a0[0];" in lines
    assert any(line.startswith("cp(") and "a0[1],a0[0]" in line for line in lines)
    assert "swap a0[0],a0[1];" in lines


@pytest.mark.parametrize("name", ["a b", "", "A", "1a"])
def test_qasm_export_refuses_a_register_name_that_is_no_identifier(name):
    layout = RegisterLayout(2, (("anc", 0), ("a0", 1), (name, 1)))
    circ = Circuit(2, layout, (GateOp(GateKind.HADAMARD, (0,)),))
    with pytest.raises(ValueError, match=re.escape(f"register name {name!r} is not")):
        circuit_to_qasm(circ)
    # a zero-width register is not written, so its name is not checked
    layout = RegisterLayout(2, ((name, 0), ("b_2X", 1)))
    text = circuit_to_qasm(Circuit(2, layout, (GateOp(GateKind.HADAMARD, (0,)),)))
    assert text.endswith("qreg b_2X[1];\nh b_2X[0];\n")


_QASM_KEYWORDS = (
    "include qreg creg gate opaque barrier measure reset if pi sin cos tan exp ln sqrt".split()
)


@pytest.mark.parametrize("name", _QASM_KEYWORDS)
def test_qasm_export_refuses_a_keyword_as_a_register_name(name):
    layout = RegisterLayout(2, (("a0", 1), (name, 1)))
    circ = Circuit(2, layout, (GateOp(GateKind.SWAP, (0, 1)),))
    message = f"register name {name!r} is an OpenQASM 2 keyword"
    with pytest.raises(ValueError, match=re.escape(message)):
        circuit_to_qasm(circ)
    # a zero-width register is not written, so it may take a keyword
    layout = RegisterLayout(2, ((name, 0), ("b_2X", 1)))
    text = circuit_to_qasm(Circuit(2, layout, (GateOp(GateKind.HADAMARD, (0,)),)))
    assert name + "[" not in text
    assert text.endswith("qreg b_2X[1];\nh b_2X[0];\n")
    # a keyword is a name only as a whole: one that starts with it is written
    layout = RegisterLayout(2, ((name + "_1", 1),))
    text = circuit_to_qasm(Circuit(2, layout, (GateOp(GateKind.HADAMARD, (0,)),)))
    assert text.endswith(f"qreg {name}_1[1];\nh {name}_1[0];\n")


def test_text_export_mentions_labels():
    layout = qft_layout(2, 2)
    ops = build_qft(layout, range(2)).ops
    circ = Circuit(2, layout, ops, labels=(("qft", 0, len(ops)),))
    text = circuit_to_text(circ)
    assert "# qft" in text
    assert "hadamard q0" in text
    # all-zero inputs leave the encode span empty; its header still shows,
    # before the qft header that starts at the same op
    adder = build_full_adder(AdderSpec(2, 1, 2, Mode.ADD, (0, 0)))
    assert adder.labels[:2] == (("encode", 0, 0), ("qft", 0, len(ops)))
    lines = circuit_to_text(adder).splitlines()
    headers = [line[2:] for line in lines if line.startswith("# ")]
    assert headers == [name for name, _, _ in adder.labels]
    start = lines.index("# encode")
    assert lines[start + 1 : start + 3] == ["# qft", "  hadamard q0"]
    # a label that starts after the last op closes the listing
    tail = Circuit(2, layout, ops, labels=(("qft", 0, len(ops)), ("done", len(ops), len(ops))))
    assert circuit_to_text(tail).splitlines()[-1] == "# done"
    # nonzero inputs encode as SHIFTs, each listed with its level: base 5,
    # t = 1, 7 = 12 on qudits 1-2 and 9 = 14 on qudits 3-4
    loaded = build_full_adder(AdderSpec(5, 2, 2, Mode.ADD, (7, 9)))
    lines = circuit_to_text(loaded).splitlines()
    start = lines.index("# encode")
    assert lines[start + 1 : start + 6] == [
        "  shift k=1 q1", "  shift k=2 q2", "  shift k=1 q3", "  shift k=4 q4", "# qft"
    ]
