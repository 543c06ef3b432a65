"""Command-line frontend: build, simulate, count, sweep, export.

Thin shell over the library; every behavior here is reachable through
plain function calls.  Exit codes: 0 success, 2 flag validation error
(message names the offending flag), 1 internal failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .adder import AdderSpec, Mode, build_full_adder, required_ancillas
from .circuit import circuit_to_json, circuit_to_qasm, circuit_to_text
from .core import _check_size, parse_digit_text, to_integer
from .resources import gate_count_formula, resource_report, sweep, sweep_to_csv
from .simulator import NoiseConfig, execute, histogram_to_json, measure


class CliError(Exception):
    """Validation failure attributable to a specific flag."""


def _write_artifact(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _parse_inputs(args: argparse.Namespace) -> tuple[int, ...]:
    radix = args.inputs_base
    if not 2 <= radix <= 36:
        raise CliError(f"--inputs-base: must be in [2, 36], got {radix}")
    tokens = [tok.strip() for tok in args.inputs.split(",") if tok.strip()]
    if not tokens:
        raise CliError("--inputs: at least one value required")
    values = []
    for tok in tokens:
        try:
            value = int(tok, radix)
        except ValueError:
            raise CliError(
                f"--inputs: cannot parse {tok!r} as a base-{radix} integer"
            ) from None
        if value < 0:
            raise CliError(f"--inputs: value {tok!r} is negative")
        values.append(value)
    return tuple(values)


def _check_sizes(args: argparse.Namespace) -> None:
    if args.base < 2:
        raise CliError(f"--base: must be >= 2, got {args.base}")
    if args.digits < 1:
        raise CliError(f"--digits: must be >= 1, got {args.digits}")


def _build_spec(args: argparse.Namespace, mode: Mode) -> AdderSpec:
    _check_sizes(args)
    inputs = _parse_inputs(args)
    limit = args.base**args.digits
    for value in inputs:
        if value >= limit:
            raise CliError(
                f"--inputs: value {value} does not fit in {args.digits} "
                f"base-{args.base} digit(s)"
            )
    return AdderSpec(
        base=args.base,
        digits_per_input=args.digits,
        num_inputs=len(inputs),
        mode=mode,
        inputs=inputs,
    )


def _run_add_sub(args: argparse.Namespace) -> int:
    mode = Mode.ADD if args.command == "add" else Mode.SUB
    spec = _build_spec(args, mode)
    if args.shots < 1:
        raise CliError(f"--shots: must be >= 1, got {args.shots}")
    if not 0.0 <= args.noise <= 1.0:
        raise CliError(f"--noise: must be in [0, 1], got {args.noise}")
    if not 0 <= args.seed < 2**64:
        raise CliError(f"--seed: must fit in 64 unsigned bits, got {args.seed}")
    try:  # before building, whose op count grows as digits squared
        _check_size(spec.base, spec.layout.total_qudits)
    except ValueError as err:  # the state is over the amplitude limit
        raise CliError(f"--digits/--inputs: {err}") from None
    state = execute(build_full_adder(spec))
    noise = NoiseConfig(readout_flip_probability=args.noise, seed=args.seed)
    try:
        histogram = measure(state, range(spec.result_width), args.shots, noise)
    except ValueError as err:  # the shots are over the digit limit
        raise CliError(f"--shots: {err}") from None
    _write_artifact(histogram_to_json(histogram), args.output)
    top = histogram.top_outcome()
    value = to_integer(parse_digit_text(top, spec.base))
    print(f"result={top} value={value}")
    return 0


def _run_gate_count(args: argparse.Namespace) -> int:
    _check_sizes(args)
    if args.num_inputs < 1:
        raise CliError(f"--num-inputs: must be >= 1, got {args.num_inputs}")
    t = required_ancillas(args.num_inputs, args.base)
    formula = gate_count_formula(args.digits, args.num_inputs, t)
    if args.verify:
        report = resource_report(args.base, args.digits, args.num_inputs)
        verdict = "MATCH" if report.reconciled else "MISMATCH"
        print(f"formula={formula} tally={report.tally_count} {verdict}")
        return 0 if report.reconciled else 1
    print(f"formula={formula}")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    try:
        bases = [int(tok) for tok in args.bases.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"--bases: cannot parse {args.bases!r}") from None
    if not bases:
        raise CliError("--bases: at least one base required")
    if any(d < 2 for d in bases):
        raise CliError(f"--bases: every base must be >= 2, got {args.bases!r}")
    if args.max_capacity < 1:
        raise CliError(f"--max-capacity: must be >= 1, got {args.max_capacity}")
    rows = sweep(bases, args.max_capacity)
    _write_artifact(sweep_to_csv(rows), args.output)
    return 0


def _run_export_circuit(args: argparse.Namespace) -> int:
    mode = Mode.ADD if args.mode == "add" else Mode.SUB
    spec = _build_spec(args, mode)
    circuit = build_full_adder(spec)
    if args.format == "json":
        text = circuit_to_json(circuit)
    elif args.format == "qasm":
        if spec.base != 2:
            raise CliError(f"--format: qasm export requires --base 2, got {spec.base}")
        text = circuit_to_qasm(circuit)
    else:
        text = circuit_to_text(circuit)
    _write_artifact(text, args.output)
    return 0


def _add_common_spec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--base", type=int, required=True, help="qudit dimension d")
    sub.add_argument("--digits", type=int, required=True, help="digits per input n")


def _add_inputs_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--inputs", required=True, help="comma-separated input values"
    )
    sub.add_argument(
        "--inputs-base",
        type=int,
        default=10,
        help="radix the input values are written in (default 10)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qftadd",
        description="Qudit QFT adder/subtractor: simulate and count gates.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (("add", "sum the inputs"), ("sub", "first input minus the rest")):
        sub = commands.add_parser(name, help=blurb)
        _add_common_spec_flags(sub)
        _add_inputs_flags(sub)
        sub.add_argument("--shots", type=int, default=1024, help="samples (default 1024)")
        sub.add_argument(
            "--noise", type=float, default=0.0, help="per-digit readout flip probability"
        )
        sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        sub.add_argument(
            "--output", default="-", help="histogram JSON path, - for stdout"
        )
        sub.set_defaults(handler=_run_add_sub)

    sub = commands.add_parser("gate-count", help="closed-form gate count")
    _add_common_spec_flags(sub)
    sub.add_argument("--num-inputs", type=int, required=True, help="input count N")
    sub.add_argument(
        "--verify",
        action="store_true",
        help="also build the circuit and reconcile its tally",
    )
    sub.set_defaults(handler=_run_gate_count)

    sub = commands.add_parser("sweep", help="capacity-vs-gate-count CSV")
    sub.add_argument("--bases", required=True, help="comma-separated bases, e.g. 2,4")
    sub.add_argument("--max-capacity", type=int, required=True)
    sub.add_argument("--output", default="-", help="CSV path, - for stdout")
    sub.set_defaults(handler=_run_sweep)

    sub = commands.add_parser("export-circuit", help="emit the circuit itself")
    _add_common_spec_flags(sub)
    _add_inputs_flags(sub)
    sub.add_argument("--mode", choices=("add", "sub"), default="add")
    sub.add_argument("--format", choices=("json", "qasm", "text"), default="json")
    sub.add_argument("--output", default="-", help="artifact path, - for stdout")
    sub.set_defaults(handler=_run_export_circuit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # pragma: no cover - internal failures
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
