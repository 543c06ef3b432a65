"""Closed-form gate counting and the capacity-versus-cost sweep.

The headline formula counts every H, CP and SWAP in the full adder
(encoding SHIFT gates are excluded; they depend on the input values,
not the design).  It is independent of the base except through the
ancilla count t, which is where a larger base pays off: equal output
capacity with fewer digits means quadratically fewer phase gates.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .adder import AdderSpec, Mode, build_full_adder, required_ancillas
from .circuit import GateKind


def gate_count_formula(n: int, N: int, t: int) -> int:
    """(N+1)*n*((n+1)/2 + t) + t**2 + 2t + n, minus one when t+n is odd.

    n is the digits per input, N the number of inputs, t the ancillas.
    Evaluated in exact rational arithmetic; the half-integer term always
    cancels because n*(n+1) is even, and that is asserted rather than
    rounded away.  The parity correction reflects the lone swap saved
    when reversing an odd-width register.
    """
    if n < 1:
        raise ValueError(f"digits_per_input must be >= 1, got {n}")
    if N < 1:
        raise ValueError(f"num_inputs must be >= 1, got {N}")
    if t < 0:
        raise ValueError(f"ancillas must be >= 0, got {t}")
    total = (N + 1) * n * (Fraction(n + 1, 2) + t) + t * t + 2 * t + n
    if total.denominator != 1:
        raise ArithmeticError(f"gate count formula not integral: {total}")
    count = int(total)
    if (t + n) % 2 == 1:
        count -= 1
    return count


def capacity(n: int, t: int, d: int) -> int:
    """Number of distinct outputs the widened result register can hold."""
    if n < 1 or t < 0 or d < 2:
        raise ValueError(f"invalid sizes n={n}, t={t}, d={d}")
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
        return (
            self.tally.get(GateKind.HADAMARD, 0)
            + self.tally.get(GateKind.CPHASE, 0)
            + self.tally.get(GateKind.SWAP, 0)
        )

    @property
    def reconciled(self) -> bool:
        return self.formula_count == self.tally_count


def resource_report(base: int, digits_per_input: int, num_inputs: int) -> ResourceReport:
    """Build the all-zero-input adder and compare its tally to the formula."""
    spec = AdderSpec(
        base=base,
        digits_per_input=digits_per_input,
        num_inputs=num_inputs,
        mode=Mode.ADD,
        inputs=(0,) * num_inputs,
    )
    circuit = build_full_adder(spec)
    t = spec.ancillas
    return ResourceReport(
        base=base,
        digits_per_input=digits_per_input,
        num_inputs=num_inputs,
        ancillas=t,
        formula_count=gate_count_formula(digits_per_input, num_inputs, t),
        tally=circuit.tally(),
        capacity=capacity(digits_per_input, t, base),
    )


@dataclass(frozen=True)
class SweepRow:
    d: int
    n: int
    N: int
    t: int
    capacity: int
    gate_count: int


# Most rows ``sweep`` may build.  At base 2 the rows grow about as fast as
# the capacity cap: caps of 2**16 and 2**20 give 65,519 and 1,048,555 rows,
# built in 1.1 s and 22.5 s.  ``qftadd sweep`` at 2**18 (262,125 rows)
# takes about 6 s and 115 MB.
MAX_SWEEP_ROWS = 2**18


def sweep(d_values: Sequence[int], max_capacity: int) -> list[SweepRow]:
    """All designs with N >= 2 whose capacity fits under the cap.

    One row per (d, n, N); rows sorted by (d, capacity, n, N).  N = 1
    is omitted: a single-input circuit adds nothing and would clutter
    the cost comparison with identity pipelines.

    A design fits when t + n <= k, the widest span with d**k <= cap, and
    the N with t(N) <= k - n are those up to d**(k - n).  So base d has
    ``sum(d**j - 1 for j in 1..k-1)`` rows.  Raises ValueError if their
    total exceeds ``MAX_SWEEP_ROWS``, before any row is built.
    """
    bases = sorted({int(d) for d in d_values})
    if not bases:
        raise ValueError("need at least one base to sweep")
    if bases[0] < 2:
        raise ValueError(f"base must be >= 2, got {bases[0]}")
    if max_capacity < 1:
        raise ValueError(f"max_capacity must be >= 1, got {max_capacity}")
    # the widest span k: d**(k+1) is the first power of d over the cap
    widest = {d: required_ancillas(max_capacity + 1, d) - 1 for d in bases}
    count = sum(d**j - 1 for d, k in widest.items() for j in range(1, k))
    if count > MAX_SWEEP_ROWS:
        raise ValueError(
            f"the sweep has {count} rows, over the limit of {MAX_SWEEP_ROWS}"
        )
    rows = []
    for d, k in widest.items():
        for n in range(1, k):
            for N in range(2, d ** (k - n) + 1):
                t = required_ancillas(N, d)
                rows.append(
                    SweepRow(d, n, N, t, capacity(n, t, d), gate_count_formula(n, N, t))
                )
    rows.sort(key=lambda r: (r.d, r.capacity, r.n, r.N))
    return rows


def sweep_to_csv(rows: Iterable[SweepRow]) -> str:
    """CSV with header d,n,N,t,capacity,gate_count and LF line endings."""
    out = io.StringIO()
    out.write("d,n,N,t,capacity,gate_count\n")
    for row in rows:
        out.write(
            f"{row.d},{row.n},{row.N},{row.t},{row.capacity},{row.gate_count}\n"
        )
    return out.getvalue()
