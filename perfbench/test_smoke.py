"""Smoke test of the benchmark: every workload at toy sizes, traced and not.

Checks that each run exits 0, emits every metric by name with its unit,
and ends with the JSON result line.  Run with ``python3 -m pytest perfbench``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
}
PER_LAYER = {
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
WORKLOADS = ("dense-sim", "batch-small", "readout-design")


def test_smoke_run_emits_every_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "0.2"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    emitted: dict[tuple[str, int], dict[str, str]] = {}
    results = []
    for line in out.stdout.splitlines():
        header = re.match(r"workload (\S+) seed \d+ trace (\d)", line)
        if header:
            current = emitted.setdefault((header[1], int(header[2])), {})
        elif line.startswith("metric "):
            _, name, value, unit = line.split()
            float(value)
            current[name] = unit
        elif line.startswith("{"):
            results.append(json.loads(line))

    assert set(emitted) == {(w, t) for w in WORKLOADS for t in (0, 1)}
    for (workload, trace), metrics in emitted.items():
        assert metrics == (PER_LAYER if trace else END_TO_END), (workload, trace)
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    for result, (workload, trace) in zip(results, emitted):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1 and result["correct"], (workload, trace)
        group = declared["per_layer" if trace else "end_to_end"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in group}
