"""Command-line frontend: build, simulate, count, sweep, export.

Thin shell over the library; every behavior here is reachable through
plain function calls.  Exit codes: 0 success, 2 flag validation error
(message names the offending flag), 1 internal failure.

The library owns its checks.  The CLI re-raises a ValueError from a
library call, or from ``int()`` on a token, as an error naming the flag
or flags fed to that call.  It checks only what the library cannot: the
``--inputs-base`` radix, and ``--shots`` before building, which
``measure`` would check only once the adder is built and run.

Only ``add`` and ``sub`` simulate.  They import ``simulator`` when they
run, so ``gate-count``, ``sweep`` and ``export-circuit`` load no numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import Iterator, Sequence

from .adder import AdderSpec, Mode, build_full_adder, required_ancillas
from .circuit import Circuit, circuit_to_json, circuit_to_qasm, circuit_to_text
from .resources import _sweep_csv, gate_count_formula, resource_report


# ``export-circuit --format``: its choices, and the writer each one calls
_FORMATS = {"json": circuit_to_json, "qasm": circuit_to_qasm, "text": circuit_to_text}


class CliError(Exception):
    """Validation failure attributable to a specific flag."""


@contextlib.contextmanager
def _flag(name: str) -> Iterator[None]:
    """Re-raise a library ValueError as a CliError naming ``name``."""
    try:
        yield
    except ValueError as err:
        raise CliError(f"{name}: {err}") from None


def _write_artifact(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise CliError(f"--output: {err}") from None


def _parse_inputs(args: argparse.Namespace) -> tuple[int, ...]:
    radix = args.inputs_base
    if not 2 <= radix <= 36:  # int() would read radix 0 as "guess"
        raise CliError(f"--inputs-base: must be in [2, 36], got {radix}")
    with _flag("--inputs"):
        return tuple(int(tok, radix) for tok in args.inputs.split(","))


def _build_spec(args: argparse.Namespace) -> AdderSpec:
    inputs = _parse_inputs(args)
    with _flag("--base/--digits/--inputs"):
        return AdderSpec(args.base, args.digits, len(inputs), Mode(args.mode), inputs)


def _build(spec: AdderSpec) -> Circuit:
    # the op count and the span depend on all three: t = required_ancillas(N, d)
    with _flag("--base/--digits/--inputs"):
        return build_full_adder(spec)


def _run_add_sub(args: argparse.Namespace) -> int:
    # the only command that simulates, and so the only one that loads numpy
    from .simulator import NoiseConfig, _check_shots, execute, histogram_to_json, measure

    spec = _build_spec(args)
    # spec.result_width without its layout, so that an adder over the op
    # limit is refused before a layout of its inputs is built
    width = required_ancillas(spec.num_inputs, spec.base) + spec.digits_per_input
    with _flag("--shots"):
        _check_shots(args.shots, width)
    with _flag("--noise/--seed"):
        noise = NoiseConfig(readout_flip_probability=args.noise, seed=args.seed)
    circuit = _build(spec)
    # from digits, the adder ends all digits: no widening, and a noisy
    # readout past the amplitude cap draws each digit on its own
    histogram = measure(execute(circuit), range(width), args.shots, noise)
    _write_artifact(histogram_to_json(histogram), args.output)
    tallies = histogram.tallies
    value = max(tallies, key=tallies.__getitem__)  # top_outcome's key, as an integer
    print(f"result={histogram.top_outcome()} value={value}")
    return 0


def _run_gate_count(args: argparse.Namespace) -> int:
    with _flag("--base/--num-inputs"):
        t = required_ancillas(args.num_inputs, args.base)
    with _flag("--digits"):
        formula = gate_count_formula(args.digits, args.num_inputs, t)
    if args.verify:
        with _flag("--base/--digits/--num-inputs"):
            report = resource_report(args.base, args.digits, args.num_inputs)
        verdict = "MATCH" if report.reconciled else "MISMATCH"
        print(f"formula={formula} tally={report.tally_count} {verdict}")
        return 0 if report.reconciled else 1
    print(f"formula={formula}")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    with _flag("--bases"):
        bases = [int(tok) for tok in args.bases.split(",")]
    with _flag("--bases/--max-capacity"):
        text = _sweep_csv(bases, args.max_capacity)
    _write_artifact(text, args.output)
    return 0


def _run_export_circuit(args: argparse.Namespace) -> int:
    circuit = _build(_build_spec(args))
    with _flag("--format"):  # only the QASM writer raises: it takes base 2 alone
        text = _FORMATS[args.format](circuit)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qftadd`` parser, built once per process; parsing does not change it."""
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
        sub.set_defaults(handler=_run_add_sub, mode=name)

    sub = commands.add_parser("gate-count", help="closed-form gate count")
    _add_common_spec_flags(sub)
    sub.add_argument("--num-inputs", type=int, required=True, help="input count N")
    sub.add_argument(
        "--verify",
        action="store_true",
        help="also reconcile the formula with the built circuit's tally, "
        "counted once per design from its cached body",
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
    sub.add_argument("--format", choices=_FORMATS, default="json")
    sub.add_argument("--output", default="-", help="artifact path, - for stdout")
    sub.set_defaults(handler=_run_export_circuit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
