"""Qudit QFT arithmetic: build, simulate and cost adder/subtractor circuits.

The package is organized bottom-up: digit/register/state primitives
(`core`), the circuit IR with QFT builders (`circuit`), one kernel per
gate kind (`gates`), the arithmetic constructions (`adder`), execution
and measurement (`simulator`), and gate-count analysis (`resources`).
`cli` wraps it all for the command line.
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
    StateVector,
    basis_state,
    from_integer,
    parse_digit_text,
    to_integer,
    zero_state,
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
from .simulator import (
    Histogram,
    NoiseConfig,
    execute,
    histogram_to_json,
    measure,
)

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
    "ResourceReport",
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
