"""qftadd benchmark: one workload per run, or all of them with ``--workload all``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-sim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke

The library is imported from ``src/`` of the checkout this file sits in.
The run repeats the workload's job list until ``--seconds`` have passed
(at least once), checks every job, and prints a report: one ``metric``
line per metric with its unit, one ``failure`` line per failing job, and
last a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  A failing job is counted, not
fatal: the exit code is nonzero only when the benchmark itself breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
}
PER_LAYER_UNITS = {
    "adder.build_s": "s",
    "adder.ops": "count",
    "circuit.hadamard_ops": "count",
    "circuit.cphase_ops": "count",
    "circuit.swap_ops": "count",
    "circuit.shift_ops": "count",
    "circuit.to_json_s": "s",
    "core.amplitudes_held": "count",
    "simulator.execute_s": "s",
    "simulator.execute.encode_s": "s",
    "simulator.execute.qft_s": "s",
    "simulator.execute.component_s": "s",
    "simulator.execute.iqft_s": "s",
    "simulator.norm_drift_max": "abs",
    "simulator.execute.peak_traced_mb": "MB",
    "simulator.execute.peak_over_state": "ratio",
    "simulator.measure_s": "s",
    "simulator.measure.shots_per_s": "1/s",
    "simulator.measure.keys": "count",
    "gates.hadamard_s": "s",
    "gates.cphase_s": "s",
    "gates.swap_s": "s",
    "gates.shift_s": "s",
    "gates.amp_updates": "count",
    "gates.bytes_computed": "B",
    "resources.report_s": "s",
    "resources.sweep_s": "s",
    "resources.sweep_rows": "count",
    "cli.main_s": "s",
    "trace.overhead_frac": "frac",
}
# one complex128 read and one written per amplitude update
BYTES_PER_UPDATE = 32
SPANS = ("encode", "qft", "component", "iqft")


class Layers:
    """Per-round sums of span times and counts, plus run-wide peaks."""

    def __init__(self):
        self.rounds: list[defaultdict] = []
        self.peaks: dict[str, float] = {}

    @property
    def first_round(self) -> bool:
        return len(self.rounds) == 1

    def new_round(self) -> None:
        self.rounds.append(defaultdict(float))

    def add(self, name: str, value: float) -> None:
        self.rounds[-1][name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0.0), value)

    @contextmanager
    def span(self, *names: str):
        """Charge the wall time of the block to every name given."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            for name in names:
                self.add(name, elapsed)

    def count_circuit(self, circuit) -> None:
        self.add("adder.ops", circuit.num_ops)
        for kind, count in circuit.tally().items():
            self.add(f"circuit.{kind.value.lower()}_ops", count)

    def measure(self, call, shots: int):
        with self.span("simulator.measure_s"):
            histogram = call()
        self.add("simulator.measure.shots", shots)
        self.add("simulator.measure.keys", len(histogram.counts))
        return histogram

    def metrics(self) -> dict[str, float]:
        names = {name for r in self.rounds for name in r}
        m = {name: statistics.median(r.get(name, 0.0) for r in self.rounds)
             for name in names}
        m.update(self.peaks)
        shots = m.pop("simulator.measure.shots", 0.0)
        out = {name: float(m.get(name, 0.0)) for name in PER_LAYER_UNITS}
        if out["simulator.measure_s"] > 0:
            out["simulator.measure.shots_per_s"] = shots / out["simulator.measure_s"]
        out["gates.bytes_computed"] = out["gates.amp_updates"] * BYTES_PER_UPDATE
        if out["simulator.execute_s"] > 0:
            traced = sum(out[f"simulator.execute.{s}_s"] for s in SPANS)
            out["trace.overhead_frac"] = traced / out["simulator.execute_s"] - 1
        return out


def run_jobs(jobs, seconds: float, max_rounds: int, layers: Layers | None):
    """Repeat the job list until ``seconds`` pass; time and check every job."""
    latencies, round_times = [], []
    failures: dict[str, list] = {}
    attempted = failed = wrong = 0
    start = time.perf_counter()
    while True:
        if layers is not None:
            layers.new_round()
        round_time = 0.0
        for job in jobs:
            began = time.perf_counter()
            try:
                out = job.trace(layers) if layers is not None else job.run()
                problem = None
            except Exception as err:  # a job failure, recorded and counted
                problem = f"{type(err).__name__}: {err}"
            elapsed = time.perf_counter() - began
            latencies.append(elapsed)
            round_time += elapsed
            attempted += 1
            if problem is None:
                try:
                    problem = job.check(out)
                except Exception as err:  # malformed output
                    problem = f"check raised {type(err).__name__}: {err}"
                wrong += problem is not None
            out = None  # let a large state go before the next job
            if problem is not None:
                failed += 1
                failures.setdefault(job.name, [problem, 0])[1] += 1
        round_times.append(round_time)
        if time.perf_counter() - start >= seconds or len(round_times) >= max_rounds:
            break
    return latencies, round_times, failures, attempted, failed, wrong


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Falls back to the median when even that has fewer beyond it.
    """
    import numpy as np

    n = len(latencies)
    pct = next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= TAIL_BEYOND), 50.0)
    return pct, float(np.percentile(latencies, pct))


def setup_seconds(env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter importing qftadd."""
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qftadd"], env=env, check=True)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def run_one(args, env, build, max_rounds: int) -> int:
    import numpy as np

    jobs = build(np.random.default_rng(args.seed), args.smoke)
    layers = Layers() if args.trace else None
    latencies, round_times, failures, attempted, failed, wrong = run_jobs(
        jobs, args.seconds, max_rounds, layers)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"threads {THREADS} rounds {len(round_times)} jobs/round {len(jobs)}")
    if layers is None:
        pct, tail_s = tail(latencies)
        metrics = {
            "run_s": statistics.median(round_times),
            "job_p50_ms": statistics.median(latencies) * 1e3,
            "job_tail_ms": tail_s * 1e3,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "failed_frac": failed / attempted,
            "setup_s": setup_seconds(env),
        }
        units = END_TO_END_UNITS
        print(f"job_tail_ms is p{pct:g} of {len(latencies)} job latencies")
    else:
        metrics, units = layers.metrics(), PER_LAYER_UNITS
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for name, (problem, count) in failures.items():
        print(f"failure {name} x{count}: {problem}")

    # failed_frac reads 0 when nothing fails, so the JSON line carries it as
    # failed / attempted rather than as a metric
    keep = [name for name in metrics if name != "failed_frac"]
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in keep},
    }
    print(json.dumps(result))
    return 0


def run_all(args, env, names) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    code = 0
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                argv.append("--smoke")
            sys.stdout.flush()
            code |= subprocess.run(argv, env=env).returncode
    return code


def main() -> int:
    if not (SRC / "qftadd" / "__init__.py").is_file():
        sys.exit(f"no qftadd sources under {SRC}")
    # before numpy is first imported, here and in every child process
    os.environ.update({var: str(THREADS) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import qftadd

    if Path(qftadd.__file__).resolve().parent != SRC / "qftadd":
        sys.exit(f"imported qftadd from {qftadd.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, to check the benchmark itself quickly")
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH=str(SRC))
    if args.workload == "all":
        return run_all(args, env, WORKLOADS)
    return run_one(args, env, *WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
