"""The benchmark workloads: seeded job lists, their runners and checks.

A job is one unit the end-to-end latency is taken over.  Each job has an
untraced ``run`` (what the latency measures), a ``trace`` that makes the
same library calls one layer at a time under named spans, and a ``check``
that compares the output with an answer worked out independently.
``check`` returns None when the output is right and a message otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import tracemalloc

import numpy as np

from qftadd import (
    AdderSpec,
    Circuit,
    Mode,
    NoiseConfig,
    build_full_adder,
    circuit_to_json,
    classical_oracle,
    cli,
    execute,
    measure,
    parse_digit_text,
    resource_report,
    sweep,
    to_integer,
    zero_state,
)

PROB_TOL = 1e-9
REPLAY_TOL = 1e-12
MB = 1e6


def _describe(spec: AdderSpec) -> str:
    return (
        f"d={spec.base} n={spec.digits_per_input} N={spec.num_inputs} "
        f"{spec.mode.value} inputs={','.join(map(str, spec.inputs))}"
    )


def _oracle_problem(spec: AdderSpec, state, histogram) -> str | None:
    """Noiseless gate: P(oracle) from the exact marginal and the top outcome."""
    expected = classical_oracle(spec)
    width = spec.result_width
    # the measured qudits are the leading ones, so the marginal is a row sum
    marginal = state.probabilities().reshape(spec.base**width, -1).sum(axis=1)
    if not marginal[expected] >= 1 - PROB_TOL:
        return f"P(oracle={expected}) = {marginal[expected]:.12f}"
    top = to_integer(parse_digit_text(histogram.top_outcome(), spec.base))
    if top != expected:
        return f"top outcome {top} != oracle {expected}"
    return None


def _kind_runs(circuit: Circuit, lo: int, hi: int):
    """Maximal runs of one gate kind inside ops[lo:hi]."""
    start = lo
    for i in range(lo + 1, hi + 1):
        if i == hi or circuit.ops[i].kind is not circuit.ops[start].kind:
            yield circuit.ops[start].kind, start, i
            start = i


def replay(circuit: Circuit, layers) -> tuple[object, float]:
    """Re-run ``circuit`` span by span and kind run by kind run.

    Every run goes through the public ``execute`` with the state so far as
    ``initial``; its time is charged to its label span and its gate kind.
    Returns the final state and the largest norm drift seen at a span end.
    """
    state = zero_state(circuit.layout)
    drift = 0.0
    for label, lo, hi in circuit.labels:
        span = f"simulator.execute.{label.split()[0]}_s"
        layers.add(span, 0.0)
        for kind, i, j in _kind_runs(circuit, lo, hi):
            part = Circuit(circuit.base, circuit.layout, circuit.ops[i:j])
            with layers.span(span, f"gates.{kind.value.lower()}_s"):
                execute(part, initial=state)
        drift = max(drift, state.norm_error())
    return state, drift


class SimJob:
    """One spec through build, execute and measure (dense-sim, batch-small)."""

    def __init__(self, spec: AdderSpec, shots: int, seed: int):
        self.spec, self.shots, self.seed = spec, shots, seed
        self.name = _describe(spec)

    def _measure(self, state):
        noise = NoiseConfig(seed=self.seed)
        return measure(state, range(self.spec.result_width), self.shots, noise)

    def run(self):
        state = execute(build_full_adder(self.spec))
        return state, self._measure(state), 0.0

    def trace(self, layers):
        with layers.span("adder.build_s"):
            circuit = build_full_adder(self.spec)
        layers.count_circuit(circuit)
        with layers.span("simulator.execute_s"):
            state = execute(circuit)
        replayed, drift = replay(circuit, layers)
        layers.peak("simulator.norm_drift_max", drift)
        diff = float(np.max(np.abs(replayed.amplitudes - state.amplitudes)))
        del replayed
        if layers.first_round:
            self._memory_pass(circuit, layers)
        held = state.amplitudes.size
        layers.add("core.amplitudes_held", held)
        layers.add("gates.amp_updates", held * circuit.num_ops)
        histogram = layers.measure(lambda: self._measure(state), self.shots)
        return state, histogram, diff

    @staticmethod
    def _memory_pass(circuit: Circuit, layers) -> None:
        tracemalloc.start()
        try:
            state = execute(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layers.peak("simulator.execute.peak_traced_mb", peak / MB)
        layers.peak("simulator.execute.peak_over_state", peak / state.amplitudes.nbytes)

    def check(self, out) -> str | None:
        state, histogram, replay_diff = out
        if not replay_diff <= REPLAY_TOL:
            return f"traced replay differs from execute by {replay_diff:.3e}"
        return _oracle_problem(self.spec, state, histogram)


class MeasureJob:
    """One ``measure`` call on a prepared state (readout-design)."""

    def __init__(self, spec: AdderSpec, state, shots: int, p: float, seed: int):
        self.spec, self.state, self.shots = spec, state, shots
        self.noise = NoiseConfig(readout_flip_probability=p, seed=seed)
        self.name = f"{_describe(spec)} p={p} shots={shots} seed={seed}"
        self.reference = None
        if p > 0:
            # the same seed must give the same histogram on every run; if
            # this raises, so will every timed run, which records the failure
            with contextlib.suppress(Exception):
                self.reference = self.run()

    def run(self):
        return measure(self.state, range(self.spec.result_width), self.shots, self.noise)

    def trace(self, layers):
        layers.add("core.amplitudes_held", self.state.amplitudes.size)
        return layers.measure(self.run, self.shots)

    def check(self, histogram) -> str | None:
        if self.noise.readout_flip_probability == 0:
            return _oracle_problem(self.spec, self.state, histogram)
        total = sum(histogram.counts.values())
        if total != self.shots:
            return f"counts sum to {total}, expected {self.shots}"
        if histogram != self.reference:
            return "same seed gave a different histogram"
        return None


def _ancillas(d: int, N: int) -> int:
    t = 0
    while d**t < N:
        t += 1
    return t


def _tally(d: int, n: int, N: int) -> dict[str, int]:
    """Gate counts of the full adder from its construction, without SHIFTs.

    QFT and inverse QFT on w = t+n qudits: w H, w(w-1)/2 CP, w//2 SWAP
    each; every extra input's fan adds sum over j < n of (w - j) CPs.
    """
    w = _ancillas(d, N) + n
    fan = n * w - n * (n - 1) // 2
    return {
        "HADAMARD": 2 * w,
        "CPHASE": w * (w - 1) + (N - 1) * fan,
        "SWAP": 2 * (w // 2),
    }


def _nonzero_digits(values, d: int) -> int:
    count = 0
    for value in values:
        while value:
            value, digit = divmod(value, d)
            count += digit != 0
    return count


def _sweep_rows(bases, cap: int) -> list[str]:
    """The CSV lines ``qftadd sweep`` should print, enumerated directly."""
    rows = []
    for d in sorted(set(bases)):
        n = 1
        while d ** (n + 1) <= cap:  # N = 2 needs t = 1
            N = 2
            while True:
                t = _ancillas(d, N)
                if d ** (t + n) > cap:
                    break
                rows.append((d, d ** (t + n), n, N, t, sum(_tally(d, n, N).values())))
                N += 1
            n += 1
    rows.sort()
    lines = ["d,n,N,t,capacity,gate_count"]
    lines += [f"{d},{n},{N},{t},{c},{g}" for d, c, n, N, t, g in rows]
    return lines


class CliJob:
    """One ``qftadd.cli.main`` invocation with stdout captured (readout-design)."""

    def __init__(self, argv: list[str], verify, trace_calls):
        self.argv, self.verify, self.trace_calls = argv, verify, trace_calls
        self.name = " ".join(argv[:1] + [a for a in argv[1:] if len(a) < 40])

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def trace(self, layers):
        with layers.span("cli.main_s"):
            result = self.run()
        self.trace_calls(layers)
        return result

    def check(self, out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        return self.verify(text)


def _gate_count_job(d: int, n: int, N: int) -> CliJob:
    total = sum(_tally(d, n, N).values())

    def verify(text):
        want = f"formula={total} tally={total} MATCH"
        return None if text.strip() == want else f"printed {text.strip()!r}, want {want!r}"

    def trace_calls(layers):
        with layers.span("resources.report_s"):
            resource_report(d, n, N)

    argv = ["gate-count", "--base", str(d), "--digits", str(n),
            "--num-inputs", str(N), "--verify"]
    return CliJob(argv, verify, trace_calls)


def _export_job(spec: AdderSpec) -> CliJob:
    d, n, N = spec.base, spec.digits_per_input, spec.num_inputs
    want = dict(_tally(d, n, N), SHIFT=_nonzero_digits(spec.inputs, d))

    def verify(text):
        payload = json.loads(text)
        kinds = {kind: 0 for kind in want}
        for op in payload["ops"]:
            kinds[op["kind"]] += 1
        if payload["base"] != d or kinds != want:
            return f"base {payload['base']} tally {kinds}, want base {d} tally {want}"
        return None

    def trace_calls(layers):
        with layers.span("adder.build_s"):
            circuit = build_full_adder(spec)
        layers.count_circuit(circuit)
        with layers.span("circuit.to_json_s"):
            circuit_to_json(circuit)

    argv = ["export-circuit", "--base", str(d), "--digits", str(n),
            "--inputs", ",".join(map(str, spec.inputs)), "--mode", spec.mode.value,
            "--format", "json"]
    return CliJob(argv, verify, trace_calls)


def _sweep_job(bases: list[int], cap: int) -> CliJob:
    want = _sweep_rows(bases, cap)

    def verify(text):
        lines = text.splitlines()
        if lines != want:
            return f"sweep printed {len(lines)} lines, want {len(want)}"
        return None

    def trace_calls(layers):
        with layers.span("resources.sweep_s"):
            rows = sweep(bases, cap)
        layers.add("resources.sweep_rows", len(rows))

    argv = ["sweep", "--bases", ",".join(map(str, bases)), "--max-capacity", str(cap)]
    return CliJob(argv, verify, trace_calls)


def _random_spec(rng, d: int, n: int, N: int) -> AdderSpec:
    mode = Mode.ADD if rng.integers(2) else Mode.SUB
    inputs = tuple(int(rng.integers(0, d**n)) for _ in range(N))
    return AdderSpec(base=d, digits_per_input=n, num_inputs=N, mode=mode, inputs=inputs)


def dense_sim(rng, smoke: bool):
    designs = [(2, 2, 2), (3, 1, 3), (5, 1, 2)] if smoke else [
        # An odd count of designs whose times lie well apart, so the median
        # job is always the same design.
        (4, 2, 4),  # 2^18 amplitudes
        (2, 8, 2),  # 2^17; t+n = 9 is odd
        (4, 3, 3),  # 2^20, the median job
        (3, 4, 3),  # 3^13, about 2^20.6; t+n = 5 is odd
        (5, 2, 4),  # 5^9, about 2^20.9; t+n = 3 is odd
    ]
    return [SimJob(_random_spec(rng, *design), 1024, int(rng.integers(2**32)))
            for design in designs]


def batch_small(rng, smoke: bool):
    # Criterion 8's grid (n in 1..3, N in 1..5, ADD and SUB) widened to
    # d in 2..16.  Each base gets the same number of specs, dealt round-robin
    # over its designs under the amplitude cap, so the seed draws inputs and
    # modes but not how much work the list holds.
    per_base, max_amps = (2, 2**8) if smoke else (20, 2**14)
    jobs = []
    for d in range(2, 17):
        designs = [(n, N) for N in range(1, 6) for n in range(1, 4)
                   if d ** (_ancillas(d, N) + N * n) <= max_amps]
        for i in range(per_base):
            spec = _random_spec(rng, d, *designs[i % len(designs)])
            jobs.append(SimJob(spec, 1024, int(rng.integers(2**32))))
    return jobs


def noisy_readout(rng, smoke: bool):
    shots = 1000 if smoke else 500_000
    jobs = []
    for design in [(2, 3, 3), (3, 2, 3), (7, 1, 3), (12, 1, 2)]:
        spec = _random_spec(rng, *design)
        state = execute(build_full_adder(spec))
        for p in (0.0, 0.05, 0.3):
            jobs.append(MeasureJob(spec, state, shots, p, int(rng.integers(2**32))))
    return jobs


def design_sweep(rng, smoke: bool):
    if smoke:
        designs, bases, cap = [(2, 2, 4), (4, 1, 4)], [2, 4], 64
    else:
        # (2,16,64) is about 15k ops, the largest design
        designs = [(2, 16, 64), (3, 8, 12), (5, 5, 20), (16, 3, 40)]
        bases, cap = [2, 3, 4, 5, 8], 4096
    jobs = []
    for design in designs:
        jobs.append(_gate_count_job(*design))
        jobs.append(_export_job(_random_spec(rng, *design)))
    jobs.append(_sweep_job(bases, cap))
    return jobs


def readout_design(rng, smoke: bool):
    """Everything that runs no gates: measure alone, and the design CLI.

    The design calls alone are pure Python.  On a shared 2-core VM their
    speed drifted by up to 1.5x for longer than a run, and as a workload of
    their own their spread across runs was wider than the 0.25 bound.
    """
    return noisy_readout(rng, smoke) + design_sweep(rng, smoke)


# name -> (job list builder, most rounds per run).  The round cap keeps the
# sample count, and so the tail percentile chosen, the same when a change
# makes a workload faster.
WORKLOADS = {
    "dense-sim": (dense_sim, 19),
    "batch-small": (batch_small, 33),
    "readout-design": (readout_design, 47),
}
