"""Instruction-level circuit IR and the qudit QFT / inverse-QFT builders.

A circuit is a flat, immutable op list against a fixed register layout.
``build_qft`` emits the textbook ladder (one Hadamard per position, then
controlled phases from every deeper qudit, then a final swap reversal) so
that the fragment's unitary literally equals the ``d**q``-point DFT matrix.
``build_iqft`` is its exact reverse with conjugated gates.  Each ladder is
built once per ``(base, first qudit, width, sign)`` and cached, only so
that building adders is fast; every caller holds the same ops.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .core import RegisterLayout, _below, _show


class GateKind(Enum):
    HADAMARD = "HADAMARD"
    CPHASE = "CPHASE"
    SWAP = "SWAP"
    SHIFT = "SHIFT"


# The members bound to names once, for code that tests kinds per op.  On
# Python 3.10 and 3.11 ``EnumType.__getattr__`` makes each ``GateKind.X``
# in a loop cost about 100 ns against 14 ns for a local name, and hashing a
# member (a dict keyed by kind) costs as much, so per-op code compares
# identities with these.
_HADAMARD, _CPHASE, _SWAP, _SHIFT = (
    GateKind.HADAMARD, GateKind.CPHASE, GateKind.SWAP, GateKind.SHIFT
)


@dataclass(frozen=True)
class GateOp:
    """One gate instance: kind, parameters, and global qudit indices.

    Two-qudit ops list (control, target); the CPHASE matrix is symmetric
    in the two roles, the ordering is kept for circuit readability.  The
    ``dagger`` flag marks the conjugate-transposed Hadamard used by the
    inverse QFT (for base 2 it is a no-op since H is self-inverse).
    ``theta`` may be any finite real number and is stored as a ``float``.
    """

    kind: GateKind
    qudits: tuple[int, ...]
    theta: float | None = None
    k: int | None = None
    dagger: bool = False

    def __post_init__(self) -> None:
        kind = self.kind
        if not isinstance(kind, GateKind):
            raise ValueError(f"kind must be a GateKind, got {_show(kind)}")
        object.__setattr__(self, "qudits", tuple(map(operator.index, self.qudits)))
        if self.k is not None:
            object.__setattr__(self, "k", operator.index(self.k))
        arity = 2 if kind is _CPHASE or kind is _SWAP else 1
        if len(self.qudits) != arity:
            raise ValueError(
                f"{self.kind.value} acts on {arity} qudit(s), got {_show(self.qudits)}"
            )
        if len(set(self.qudits)) != len(self.qudits):
            raise ValueError(f"qudits must be distinct, got {_show(self.qudits)}")
        if min(self.qudits) < 0:
            raise ValueError(f"qudit indices must be non-negative, got {_show(self.qudits)}")
        if (self.theta is not None) != (kind is _CPHASE):
            raise ValueError("theta is required for CPHASE and forbidden otherwise")
        if self.theta is not None:
            if not math.isfinite(self.theta):
                raise ValueError(f"theta must be finite, got {self.theta}")
            object.__setattr__(self, "theta", float(self.theta))
        if (self.k is not None) != (kind is _SHIFT):
            raise ValueError("k is required for SHIFT and forbidden otherwise")
        # the builders pass a bool, which costs one identity test; a numpy
        # bool is told by its type's name (numpy 2's, numpy 1's), so that
        # building a circuit loads no numpy
        if (dagger := self.dagger).__class__ is not bool:
            if not isinstance(dagger, int) and str(type(dagger)) not in (
                "<class 'numpy.bool'>", "<class 'numpy.bool_'>"
            ) or dagger not in (0, 1):
                raise ValueError(f"dagger must be a bool, 0 or 1, got {_show(dagger)}")
            object.__setattr__(self, "dagger", bool(dagger))
        if self.dagger and kind is not _HADAMARD:
            raise ValueError("dagger applies to HADAMARD only")
        if self.k is not None and self.k < 0:
            raise ValueError(f"shift amount must be non-negative, got {_show(self.k)}")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a layout; a label ``(name, lo, hi)`` names ``ops[lo:hi]``."""

    base: int
    layout: RegisterLayout
    ops: tuple[GateOp, ...]
    labels: tuple[tuple[str, int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "base", operator.index(self.base))
        except TypeError:
            raise TypeError(f"base must be an int, got {_show(self.base)}") from None
        object.__setattr__(self, "ops", tuple(self.ops))
        labels = [(name, operator.index(lo), operator.index(hi)) for name, lo, hi in self.labels]
        object.__setattr__(self, "labels", tuple(labels))
        for name, lo, hi in labels:
            if not isinstance(name, str):
                raise TypeError(f"label name must be a str, got {_show(name)}")
            if not 0 <= lo <= hi <= len(self.ops):
                span = f"[{_show(lo)}, {_show(hi)})"
                raise ValueError(f"label {name!r} {span} is no span of {len(self.ops)} ops")
        if self.base != self.layout.base:
            raise ValueError(
                f"circuit base {_show(self.base)} != layout base {_show(self.layout.base)}"
            )
        q = self.layout.total_qudits
        for op in self.ops:
            for qi in op.qudits:
                if qi >= q:
                    raise ValueError(
                        f"op {op.kind.value} references qudit {_show(qi)}, "
                        f"layout has only {_show(q)}"
                    )

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    def tally(self) -> dict[GateKind, int]:
        """Per-kind gate counts, recomputed from the op list."""
        return _tally(self.ops)

    def __getstate__(self) -> dict:
        # an adder's ``_body`` stays out of pickles and copies, as it stays
        # out of ==, hash, repr and ``dataclasses.replace``
        return {name: value for name, value in self.__dict__.items() if name != "_body"}


def _tally(ops: Sequence[GateOp]) -> dict[GateKind, int]:
    """Per-kind counts of ``ops``, in ``GateKind`` order, absent kinds as 0."""
    kinds = [op.kind for op in ops]
    return {kind: kinds.count(kind) for kind in GateKind}


class _Body:
    """One adder design's ops after its encoding shifts, their labels and
    kind tally, and, from the design's first export on, two texts of
    ``circuit_to_json``: ``head``, the design's JSON through the ``[\\n``
    that opens the op list, and ``json``, the ops as written inside it."""

    __slots__ = ("ops", "labels", "tally", "head", "json")

    def __init__(self, ops: tuple[GateOp, ...], labels: tuple[tuple[str, int, int], ...]):
        self.ops, self.labels, self.tally = ops, labels, _tally(ops)
        self.head = self.json = None


def _circuit(layout: RegisterLayout, ops: tuple, labels: tuple, body: _Body) -> Circuit:
    """The adder ``Circuit`` of ``ops`` built on ``layout``'s qudits, ending
    with ``body``'s ops, with labels of ``(str, int, int)`` spans: none of
    the constructor's checks.  It keeps ``body`` as the private ``_body``,
    which no dataclass method sees."""
    circuit = object.__new__(Circuit)
    fields = {"base": layout.base, "layout": layout, "ops": ops, "labels": labels, "_body": body}
    object.__setattr__(circuit, "__dict__", fields)
    return circuit


def _check_contiguous(targets: Sequence[int]) -> tuple[int, int]:
    """``(lo, width)`` of a non-empty, contiguous, ascending qudit range."""
    targets = [operator.index(t) for t in targets]
    if not targets:
        raise ValueError("target range must be non-empty")
    lo = targets[0]
    if targets != list(range(lo, lo + len(targets))):
        raise ValueError(f"targets must be a contiguous ascending range, got {_show(targets)}")
    return lo, len(targets)


# The largest d**k whose angle 2*pi/d**k a builder writes.  Up to it, d**-k
# is at least 2**-1022, the least normal double, so both forms of ``_turn``
# are normal floats and distinct k give distinct angles.
_MAX_TURN = 2**1022


def _check_span(d: int, width: int) -> None:
    """Raise ValueError if a Fourier span of ``width`` base-``d`` qudits needs
    an angle 2*pi/d**width past ``_MAX_TURN``."""
    if _below(_MAX_TURN, d, width):
        d, width = _show(d), _show(width)
        raise ValueError(
            f"a Fourier span of {width} base-{d} qudits needs the angle "
            f"2*pi/{d}**{width}, and {d}**{width} is over the limit of 2**1022"
        )


def _turn(d: int, k: int) -> tuple[float, float]:
    """The floats the builders write for the angle 2*pi/d**k: the QFT
    ladder's, then the phase fan's.  Only they write these angles, and only
    through here, so the simulator can look each one up by float equality;
    the angle -2*pi/d**k is the negation of either, bit for bit."""
    return 2.0 * math.pi / d**k, 2.0 * math.pi * d ** (-k)


# A design body is built once, but one ladder serves the ADD and the SUB
# body of a design and every design of its base and span width.  Without
# this cache, perfbench batch-small's p99 job latency, which the cold body
# builds of its first round set, rose from about 0.050 to 0.067 ms (three
# fresh processes each, 2-core VM, Python 3.11).
@functools.lru_cache(maxsize=256)
def _qft_ladder(d: int, lo: int, width: int, sign: int) -> tuple[GateOp, ...]:
    """The QFT's ops on qudits lo..lo+width-1 for sign +1; for sign -1 the
    same ops reversed and conjugated.  Cached only to make building fast;
    every caller of one ladder holds the same ``GateOp`` objects.

    Raises ValueError, before building, if ``d**width`` exceeds ``_MAX_TURN``.
    """
    _check_span(d, width)
    ops: list[GateOp] = []
    for pos in range(width):
        ops.append(GateOp(_HADAMARD, (lo + pos,), dagger=sign < 0))
        for s in range(2, width - pos + 1):
            ops.append(GateOp(_CPHASE, (lo + pos + s - 1, lo + pos), theta=sign * _turn(d, s)[0]))
    for i in range(width // 2):
        ops.append(GateOp(_SWAP, (lo + i, lo + width - 1 - i)))
    return tuple(ops if sign > 0 else ops[::-1])


def build_qft(layout: RegisterLayout, targets: Sequence[int]) -> Circuit:
    """QFT fragment on a contiguous qudit range.

    For each position (MSB first) one Hadamard, then a controlled phase
    2*pi/d**s from the qudit at distance s-1 below; the trailing swaps
    reverse the range so the fragment equals the DFT matrix on it.

    Tally for a width-w range: w Hadamard, w*(w-1)/2 CPHASE, floor(w/2) SWAP.
    Raises ValueError if ``d**w`` exceeds 2**1022, past which ``d**-w`` is
    no normal float.
    """
    return Circuit(layout.base, layout, _qft_ladder(layout.base, *_check_contiguous(targets), 1))


def build_iqft(layout: RegisterLayout, targets: Sequence[int]) -> Circuit:
    """Inverse QFT: the reversed QFT op list with every gate conjugated.

    CPHASE angles are negated and Hadamards carry the dagger flag; SWAPs
    are self-inverse.  Composing with :func:`build_qft` gives the identity.
    """
    return Circuit(layout.base, layout, _qft_ladder(layout.base, *_check_contiguous(targets), -1))


def concat(circuits: Iterable[Circuit]) -> Circuit:
    """Join fragments over one layout; op lists append, labels shift."""
    circuits = list(circuits)
    if not circuits:
        raise ValueError("need at least one circuit to concatenate")
    first = circuits[0]
    ops: list[GateOp] = []
    labels: list[tuple[str, int, int]] = []
    for circ in circuits:
        if circ.base != first.base or circ.layout != first.layout:
            raise ValueError("cannot concatenate circuits with different layouts")
        offset = len(ops)
        ops.extend(circ.ops)
        labels.extend((name, lo + offset, hi + offset) for name, lo, hi in circ.labels)
    return Circuit(first.base, first.layout, tuple(ops), tuple(labels))


# the text json.dumps(indent=2) writes for an op in the op list, in pieces:
# each kind's head up to its first qudit, the run between two qudits, and
# a tail after the last qudit through the ",\n" before the next op
_OP_HEAD = {
    kind: f'    {{\n      "kind": "{kind.value}",\n      "qudits": [\n        '
    for kind in GateKind
}
_BETWEEN = ",\n        "
_TAIL = "\n      ]\n    },\n"
_DAGGER_TAIL = '\n      ],\n      "dagger": true\n    },\n'
_THETA_TAIL = '\n      ],\n      "theta": {!r}\n    }},\n'


def _head(circuit: Circuit) -> str:
    """The text ``json.dumps(payload, indent=2)`` writes for ``circuit``'s
    payload up to its op list: everything before the ``[`` that opens it."""
    registers = [{"name": name, "size": size} for name, size in circuit.layout.registers]
    payload = {"base": circuit.base, "registers": registers, "ops": []}
    return json.dumps(payload, indent=2)[:-4]  # less the empty op list's "[]\n}"


def circuit_to_json(circuit: Circuit) -> str:
    """Serialize as {base, registers, ops}; angles are IEEE doubles.

    The bytes are those of ``json.dumps(payload, indent=2) + "\\n"``.  The
    header, up to the op list, is that encoder's text of the payload with
    no ops (``_head``).  The op list, whose fields are ints, finite floats
    and fixed ASCII names, is one ``"".join`` of shared pieces written by
    ``_write_ops``, with no ``indent`` encoder run on it: that encoder is
    pure Python.  An op adds references to those strings, and the output
    is copied once.

    A circuit from ``build_full_adder`` carries its design's cached body.
    On the design's first export the header and the body's ops are
    written that way and kept with the body as two texts, since both
    depend on the design alone.  Every export of the design joins the
    kept header, the cached text of each encoding shift and the kept body
    text, and runs no encoder.
    """
    body = circuit.__dict__.get("_body")
    if body is None:
        if not circuit.ops:
            return _head(circuit) + "[]\n}\n"
        parts = [_head(circuit), "[\n"]
        _write_ops(circuit.ops, parts)
    else:
        if body.json is None:
            text: list[str] = []
            _write_ops(body.ops, text)
            body.head, body.json = _head(circuit) + "[\n", "".join(text)
        encode = circuit.ops[: len(circuit.ops) - len(body.ops)]
        parts = [body.head, *[_shift(op.qudits[0], op.k)[1] for op in encode], body.json]
    parts.append("\n  ]\n}\n")
    return "".join(parts)


# One entry per (qudit, level) in use, about 530 B traced: the op, its
# text (137 B of it) and their pair.  4096 entries (2.2 MB) fit every
# benchmarked layout, whose workloads use at most about 750.
@functools.lru_cache(maxsize=4096)
def _shift(qudit: int, k: int) -> tuple[GateOp, str]:
    """The SHIFT by ``k`` on ``qudit``, built and validated once while
    cached, and its text in the op list through the ``",\\n"`` before the
    next op.  ``adder`` builds its encoding shifts from it, so the ops of
    two adders are shared where their input digits agree, and every SHIFT
    is written from its text."""
    op = GateOp(_SHIFT, (qudit,), k=k)
    return op, f'{_OP_HEAD[_SHIFT]}{qudit}\n      ],\n      "k": {k}\n    }},\n'


def _write_ops(ops: Sequence[GateOp], parts: list[str]) -> None:
    """Append the pieces of the non-empty ``ops`` as the op list holds them,
    with ``",\\n"`` between two ops and none after the last.  A SHIFT is one
    piece, its text cached per ``(qudit, k)`` across calls by ``_shift``;
    every other op is made of pieces rendered on their first use in the
    call."""
    cphase, hadamard, swap = _CPHASE, _HADAMARD, _SWAP
    cp_head, h_head, swap_head = (_OP_HEAD[kind] for kind in (cphase, hadamard, swap))
    shift = _shift
    # Plain dicts, filled when an op's pieces miss and the op is then
    # written once more, which cannot miss: the fill adds the very keys it
    # reads, the op's int qudits and its finite angle.  A qudit miss renders
    # the aligned block of 64 indices around it: filled one index at a
    # time, the misses made (2,16,64) 4.5 ms instead of 3.3 (2-core VM,
    # Python 3.11).  So at most 64 index texts are made per qudit the ops
    # use, never one per layout qudit.  Float keys merge 0.0 and -0.0, so a
    # zero angle is never kept: it is rendered each time and keeps its sign.
    names: dict[int, str] = {}
    thetas: dict[float, str] = {}
    append, extend = parts.append, parts.extend
    for op in ops:
        kind, q = op.kind, op.qudits
        while True:
            try:
                if kind is cphase:
                    theta = op.theta
                    tail = thetas[theta] if theta else _THETA_TAIL.format(theta)
                    extend((cp_head, names[q[0]], _BETWEEN, names[q[1]], tail))
                elif kind is hadamard:
                    extend((h_head, names[q[0]], _DAGGER_TAIL if op.dagger else _TAIL))
                elif kind is swap:
                    extend((swap_head, names[q[0]], _BETWEEN, names[q[1]], _TAIL))
                else:
                    append(shift(q[0], op.k)[1])
                break
            except KeyError:  # the call's first use of a qudit or a nonzero angle
                for qi in q:
                    if qi not in names:
                        block = range(qi & -64, (qi | 63) + 1)
                        names.update(zip(block, map(str, block)))
                if op.theta:
                    thetas[op.theta] = _THETA_TAIL.format(op.theta)
    parts[-1] = parts[-1][:-2]  # the last op ends the list, with no ",\n"


def circuit_to_qasm(circuit: Circuit) -> str:
    """OpenQASM-2-style text for base-2 circuits only."""
    if circuit.base != 2:
        raise ValueError(f"QASM export supports base 2 only, got base {_show(circuit.base)}")
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    names = {}
    for i, (name, size) in enumerate(circuit.layout.registers):
        if size == 0:
            continue
        lines.append(f"qreg {name}[{size}];")
        span = circuit.layout.register_range(i)
        names.update((qi, f"{name}[{off}]") for off, qi in enumerate(span))
    for op in circuit.ops:
        args = ",".join(names[qi] for qi in op.qudits)
        if op.kind is _HADAMARD:
            lines.append(f"h {args};")
        elif op.kind is _CPHASE:
            lines.append(f"cp({op.theta:.17g}) {args};")
        elif op.kind is _SWAP:
            lines.append(f"swap {args};")
        elif op.kind is _SHIFT:
            lines.append(f"x {args};" if op.k % 2 == 1 else f"id {args};")
    return "\n".join(lines) + "\n"


def circuit_to_text(circuit: Circuit) -> str:
    """Human-readable op listing with labelled sections."""
    lines = [f"base {circuit.base}"]
    for name, size in circuit.layout.registers:
        lines.append(f"register {name}[{size}]")
    headers: dict[int, list[str]] = {}
    for name, lo, _ in circuit.labels:
        headers.setdefault(lo, []).append(f"# {name}")
    for i, op in enumerate(circuit.ops):
        lines.extend(headers.get(i, ()))
        parts = [op.kind.value.lower() + ("+" if op.dagger else "")]
        if op.theta is not None:
            parts.append(f"theta={op.theta:.17g}")
        if op.k is not None:
            parts.append(f"k={op.k}")
        parts.append(" ".join(f"q{qi}" for qi in op.qudits))
        lines.append("  " + " ".join(parts))
    lines.extend(headers.get(len(circuit.ops), ()))
    return "\n".join(lines) + "\n"
