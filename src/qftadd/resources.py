"""Closed-form gate counting and the capacity-versus-cost sweep.

The headline formula counts every H, CP and SWAP in the full adder
(encoding SHIFT gates are excluded; they depend on the input values,
not the design).  It is independent of the base except through the
ancilla count t, which is where a larger base pays off: equal output
capacity with fewer digits means quadratically fewer phase gates.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .adder import AdderSpec, Mode, _design_body, required_ancillas
from .circuit import GateKind
from .core import _show


def gate_count_formula(n: int, N: int, t: int) -> int:
    """(N+1)*(n*(n+1)/2 + n*t) + t**2 + 2t + n, minus one when t+n is odd.

    n is the digits per input, N the number of inputs, t the ancillas;
    each must be an integer (``operator.index``).  n*(n+1) is always
    even, so the count is exact in integer arithmetic.  The parity
    correction reflects the lone swap saved when reversing an odd-width
    register.
    """
    n, N, t = operator.index(n), operator.index(N), operator.index(t)
    if n < 1:
        raise ValueError(f"digits_per_input must be >= 1, got {_show(n)}")
    if N < 1:
        raise ValueError(f"num_inputs must be >= 1, got {_show(N)}")
    if t < 0:
        raise ValueError(f"ancillas must be >= 0, got {_show(t)}")
    return _gate_count(n, N, t)


def _gate_count(n: int, N: int, t: int) -> int:
    """:func:`gate_count_formula` on arguments already checked."""
    return (N + 1) * (n * (n + 1) // 2 + n * t) + t * t + 2 * t + n - (t + n) % 2


def capacity(n: int, t: int, d: int) -> int:
    """Number of distinct outputs the widened result register can hold."""
    n, t, d = operator.index(n), operator.index(t), operator.index(d)
    if n < 1 or t < 0 or d < 2:
        raise ValueError(f"invalid sizes n={_show(n)}, t={_show(t)}, d={_show(d)}")
    return d ** (t + n)


@dataclass(frozen=True)
class ResourceReport:
    """Formula count and built-circuit tally for one adder design."""

    base: int
    digits_per_input: int
    num_inputs: int
    ancillas: int
    formula_count: int
    tally: dict[GateKind, int]
    capacity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "tally", dict(self.tally))

    @property
    def tally_count(self) -> int:
        """H + CP + SWAP from the build; SHIFT encoding gates excluded."""
        return sum(self.tally.values()) - self.tally.get(GateKind.SHIFT, 0)

    @property
    def reconciled(self) -> bool:
        return self.formula_count == self.tally_count


def resource_report(base: int, digits_per_input: int, num_inputs: int) -> ResourceReport:
    """Compare the formula with the tally of the all-zero-input adder.

    That adder has no encoding shifts, so its tally is the one its design's
    cached body counted once from the built ops; the first report of a
    design builds the body, and the report holds a copy of the tally.
    """
    spec = AdderSpec(
        base=base,
        digits_per_input=digits_per_input,
        num_inputs=num_inputs,
        mode=Mode.ADD,
        inputs=(0,) * num_inputs,
    )
    body = _design_body(spec.base, spec.digits_per_input, spec.num_inputs, 1)
    t = spec.ancillas
    return ResourceReport(
        base=base,
        digits_per_input=digits_per_input,
        num_inputs=num_inputs,
        ancillas=t,
        formula_count=gate_count_formula(digits_per_input, num_inputs, t),
        tally=body.tally,
        capacity=capacity(digits_per_input, t, base),
    )


class SweepRow(NamedTuple):
    d: int
    n: int
    N: int
    t: int
    capacity: int
    gate_count: int


# Most rows ``sweep`` may build.  At base 2 the rows grow about as fast as
# the capacity cap: caps of 2**16, 2**18 and 2**20 give 65,519, 262,125 and
# 1,048,555 rows; ``sweep`` builds the first two in 0.02 s and 0.09 s.
# ``qftadd sweep``, which builds no row and writes the CSV a block at a
# time, takes 0.31 s and 45 MB of peak RSS at 2**18 in a fresh process
# (0.63 s and 93 MB through ``SweepRow``s; 2-core VM, Python 3.11).
MAX_SWEEP_ROWS = 2**18


def sweep(d_values: Sequence[int], max_capacity: int) -> list[SweepRow]:
    """All designs with N >= 2 whose capacity fits under the cap.

    One row per (d, n, N); rows sorted by (d, capacity, n, N).  N = 1
    is omitted: a single-input circuit adds nothing and would clutter
    the cost comparison with identity pipelines.

    A design fits when its span t + n is at most k, the widest span with
    d**k <= cap.  Rows are emitted in order, with no sort: per base, by
    span w (capacity d**w), then n = 1..w-1, then the N whose t is w - n,
    those in (d**(t-1), d**t].  So base d has ``sum(d**j - 1 for j in
    1..k-1)`` rows.  Raises ValueError if their total exceeds
    ``MAX_SWEEP_ROWS``, before any row is built.
    """
    rows = []
    row = functools.partial(tuple.__new__, SweepRow)
    for d, n, t, cap, inputs, counts in _sweep_blocks(d_values, max_capacity):
        block = zip(repeat(d), repeat(n), inputs, repeat(t), repeat(cap), counts)
        rows.extend(map(row, block))
    return rows


def _sweep_blocks(
    d_values: Sequence[int], max_capacity: int
) -> Iterator[tuple[int, int, int, int, range, range]]:
    """``sweep``'s checks, then its rows one block per (d, n, t), in order:
    ``(d, n, t, capacity, the N range, the gate-count range)``."""
    bases = sorted({operator.index(d) for d in d_values})
    if not bases:
        raise ValueError("need at least one base to sweep")
    if bases[0] < 2:
        raise ValueError(f"base must be >= 2, got {_show(bases[0])}")
    max_capacity = operator.index(max_capacity)
    if max_capacity < 1:
        raise ValueError(f"max_capacity must be >= 1, got {_show(max_capacity)}")
    # the widest span k: d**(k+1) is the first power of d over the cap
    widest = {d: required_ancillas(max_capacity + 1, d) - 1 for d in bases}
    count = sum(d**j - 1 for d, k in widest.items() for j in range(1, k))
    if count > MAX_SWEEP_ROWS:
        raise ValueError(
            f"the sweep has {_show(count)} rows, over the limit of {MAX_SWEEP_ROWS}"
        )
    for d, k in widest.items():
        for w in range(2, k + 1):  # the span t + n, so capacity d**w
            cap = d**w
            for n in range(1, w):
                t = w - n  # required_ancillas(N, d) for each N below
                inputs = range(max(2, d ** (t - 1) + 1), d**t + 1)
                # the count is linear in N
                g = _gate_count(n, inputs[0], t)
                step = _gate_count(n, inputs[0] + 1, t) - g
                yield d, n, t, cap, inputs, range(g, g + step * len(inputs), step)


_CSV_HEADER = "d,n,N,t,capacity,gate_count\n"


def sweep_to_csv(rows: Iterable[SweepRow]) -> str:
    """CSV with header d,n,N,t,capacity,gate_count and LF line endings."""
    lines = ["%d,%d,%d,%d,%d,%d\n" % row for row in rows]
    return _CSV_HEADER + "".join(lines)


def _sweep_csv(d_values: Sequence[int], max_capacity: int) -> str:
    """``sweep_to_csv(sweep(d_values, max_capacity))``, written a block at a
    time: one template per block, filled with each N and gate count."""
    lines = [_CSV_HEADER]
    for d, n, t, cap, inputs, counts in _sweep_blocks(d_values, max_capacity):
        lines += map(f"{d},{n},%d,{t},{cap},%d\n".__mod__, zip(inputs, counts))
    return "".join(lines)
