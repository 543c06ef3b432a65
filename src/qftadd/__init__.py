"""Qudit QFT arithmetic: build, simulate and cost adder/subtractor circuits.

The package is organized bottom-up: digit and register primitives
(`core`), the circuit IR with QFT builders (`circuit`), the arithmetic
constructions (`adder`), state vectors, the gate kernels, execution and
measurement (`simulator`), and gate-count analysis (`resources`).  `cli`
wraps it all for the command line.

Only `simulator` imports numpy, and the package loads it on first use of
a simulator name (PEP 562 `__getattr__`), so `import qftadd` and the
design path (build, count, sweep, export) load no numpy.
`ResourceReport`, the type `resource_report` returns, is importable by
name but left out of `__all__`.
"""

from .adder import (
    AdderSpec,
    Mode,
    adder_layout,
    build_adder_component,
    build_full_adder,
    classical_oracle,
    required_ancillas,
)
from .circuit import (
    Circuit,
    GateKind,
    GateOp,
    build_iqft,
    build_qft,
    circuit_to_json,
    circuit_to_qasm,
    circuit_to_text,
    concat,
)
from .core import (
    DigitString,
    RegisterLayout,
    from_integer,
    parse_digit_text,
    to_integer,
)
from .resources import (
    ResourceReport,
    SweepRow,
    capacity,
    gate_count_formula,
    resource_report,
    sweep,
    sweep_to_csv,
)

# names read from `simulator`, which imports numpy, on first use
_SIMULATOR_NAMES = {
    "Histogram",
    "NoiseConfig",
    "StateVector",
    "basis_state",
    "execute",
    "histogram_to_json",
    "measure",
    "zero_state",
}


def __getattr__(name: str):
    if name not in _SIMULATOR_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulator

    value = globals()[name] = getattr(simulator, name)  # later reads skip this hook
    return value


__version__ = "0.1.0"

__all__ = [
    "AdderSpec",
    "Circuit",
    "DigitString",
    "GateKind",
    "GateOp",
    "Histogram",
    "Mode",
    "NoiseConfig",
    "RegisterLayout",
    "StateVector",
    "SweepRow",
    "adder_layout",
    "basis_state",
    "build_adder_component",
    "build_full_adder",
    "build_iqft",
    "build_qft",
    "capacity",
    "circuit_to_json",
    "circuit_to_qasm",
    "circuit_to_text",
    "classical_oracle",
    "concat",
    "execute",
    "from_integer",
    "gate_count_formula",
    "histogram_to_json",
    "measure",
    "parse_digit_text",
    "required_ancillas",
    "resource_report",
    "sweep",
    "sweep_to_csv",
    "to_integer",
    "zero_state",
]
