"""Command line verification harness.

Every command prints one report per check, as plain text lines or as
newline-delimited JSON objects with sorted keys (byte-deterministic for
fixed inputs).  Exit status: 0 when everything passed, 1 when some check
failed, 2 for malformed flags or input files (including a cocycle-identity
precondition failure during reduction).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import sys
from fractions import Fraction

from . import fock
from .core import ScalarFormatError, format_scalar, parse_integer, parse_scalar
from .reports import INPUT_ERROR, VerificationReport

KINDS = ["witt-jacobi", "cocycle", "extension", "virasoro-constants", "heisenberg",
         "primary-field", "normal-pair", "sugawara", "verma", "verma-hw",
         "intertwine", "sum-identity"]


class _Parser(argparse.ArgumentParser):
    """Options only in full, and a token such as -22/5 after an option read as its value."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, formatter_class=argparse.RawDescriptionHelpFormatter,
                         **kwargs)
        # argparse reads a token starting with "-" as an option unless it looks like a
        # negative number, and its default pattern has no "/".
        self._negative_number_matcher = re.compile(r"^-\d")


def _scalar(text: str) -> Fraction:
    try:
        return parse_scalar(text)
    except ScalarFormatError:
        raise argparse.ArgumentTypeError(f"invalid scalar {text!r}") from None


def _at_least(low: int):
    def count(text: str) -> int:
        value = parse_integer(text)  # argparse reports its ValueError as an invalid value
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value
    return count


def _format(text: str) -> str:
    # A type, not choices: argparse checks no choices on a default, here from VIRA_FORMAT.
    if text not in ("text", "json"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 'text', 'json')")
    return text


def _echo_json(record: dict):
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _emit_report(report: VerificationReport, fmt: str):
    if fmt == "json":
        _echo_json(report.to_json_dict())
    else:
        print(report.to_text())


def _input_error(fmt: str, check_name: str, message: str):
    if fmt == "json":
        _echo_json({"check_name": check_name, "status": INPUT_ERROR, "message": message})
    else:
        print(f"{INPUT_ERROR.upper()} {check_name} message={shlex.quote(message)}")
    sys.exit(2)


def _load_oracle(fmt: str, check_name: str, use_virasoro: bool, input_path):
    from . import cohomology
    if use_virasoro == bool(input_path):
        raise argparse.ArgumentError(None, "exactly one of --virasoro or --input is required")
    if use_virasoro:
        return cohomology.VIRASORO
    try:
        return cohomology.load_cocycle_table(input_path)
    except (cohomology.TableFormatError, OSError) as exc:
        _input_error(fmt, check_name, str(exc))


def verify(kind, window, max_index, max_level, alpha, c, h, input_path,
           use_virasoro, jobs, fmt) -> int:
    """Run the verification sweep KIND and print its report(s).

    witt-jacobi: Jacobi identity on basis triples, |indices| <= --max-index.
    cocycle: cocycle identity on --window for --virasoro or an --input table.
    extension: central-extension predicate for both built-in extensions.
    virasoro-constants / heisenberg: structure constants of the extensions
    (heisenberg also sweeps the commutation relations on the Fock module).
    primary-field, normal-pair, sugawara: commutators of the quadratic
    generators on the Fock module of charge --alpha.
    verma / verma-hw: bracket relations and highest-weight properties at
    (--c, --h).  intertwine: the canonical module map commutes with the
    generators.  sum-identity: the weighted sum formula for n <= --max-index.
    """
    if max_index is None:
        max_index = 10 if kind == "verma-hw" else 4
    # Each kind imports what it runs: a Fock command loads no Verma, bracket or cocycle module.
    if kind in ("verma", "verma-hw", "intertwine"):
        from . import verma
    elif kind in ("witt-jacobi", "cocycle", "extension", "virasoro-constants", "heisenberg"):
        from . import cohomology, extension, witt
    sweeps = {
        "witt-jacobi": lambda: [witt.jacobi_basis_sweep(max_index)],
        "cocycle": lambda: [cohomology.check_cocycle_identity(
            _load_oracle(fmt, "cocycle-identity", use_virasoro, input_path), window)],
        "extension": lambda: [
            extension.check_extension_predicate(extension.WITT, cohomology.VIRASORO, max_index),
            extension.check_extension_predicate(extension.ABELIAN, extension.HEISENBERG,
                                                max_index)],
        "virasoro-constants": lambda: [extension.check_virasoro_constants(max_index)],
        "heisenberg": lambda: [extension.check_heisenberg_constants(max_index),
                               fock.check_heisenberg_relations(max_index, max_level, alpha, jobs)],
        "primary-field": lambda: [fock.check_primary_field(max_index, max_level, alpha, jobs)],
        "normal-pair": lambda: [
            fock.sweep_normal_pair(max_index, max_index, max_level, alpha, jobs)],
        "sugawara": lambda: [fock.check_sugawara_commutator(max_index, max_level, alpha, jobs)],
        "verma": lambda: [verma.check_verma_relations(max_index, max_level, c, h, jobs)],
        "verma-hw": lambda: [verma.verma_hw_check(c, h, max_index)],
        "intertwine": lambda: [verma.check_intertwining(alpha, max_index, max_level, jobs)],
        "sum-identity": lambda: [fock.check_weighted_sum(max_index)],
    }
    reports = sweeps[kind]()
    for report in reports:
        _emit_report(report, fmt)
    return int(any(not report.passed() for report in reports))


def reduce(input_path, window, fmt) -> int:
    """Split a tabulated cocycle as r * virasoro + coboundary.

    Prints the correcting one-cochain (in the one-cochain file format), the
    multiplier r, and the residual report.  An input that fails the cocycle
    identity on the window is rejected with exit status 2.
    """
    from . import cohomology
    try:
        oracle = cohomology.load_cocycle_table(input_path)
    except (cohomology.TableFormatError, OSError) as exc:
        _input_error(fmt, "cocycle-reduction", str(exc))
    try:
        beta, r, residual = cohomology.reduce_cocycle(oracle, window)
    except (cohomology.CocycleIdentityError, ValueError) as exc:
        _input_error(fmt, "cocycle-reduction", str(exc))
    if fmt == "json":
        _echo_json({
            "check_name": "cocycle-reduction",
            "parameters": {"window": str(window), "cocycle": oracle.description},
            "r": format_scalar(r),
            "beta": {"window": beta.window,
                     "values": [[n, format_scalar(value)] for n, value in beta.items()]},
        })
        _echo_json(residual.to_json_dict())
    else:
        print(cohomology.dump_one_cochain(beta), end="")
        print(f"r\t{format_scalar(r)}")
        print(residual.to_text())
    return int(not residual.passed())


def nontrivial(input_path, use_virasoro, window, fmt) -> int:
    """Search for a coboundary-ratio mismatch certifying nontriviality.

    Prints the witness pair, or reports that none exists in the window.
    Exit status is 0 either way; absence of a witness is not a failure.
    """
    from . import cohomology
    oracle = _load_oracle(fmt, "nontriviality-witness", use_virasoro, input_path)
    witness = cohomology.nontriviality_witness(oracle, window)
    if fmt == "json":
        _echo_json({
            "check_name": "nontriviality-witness",
            "parameters": {"window": str(window), "cocycle": oracle.description},
            "witness": list(witness) if witness else None,
        })
    else:
        shown = f"{witness[0]},{witness[1]}" if witness else "none"
        print(f"WITNESS nontriviality-witness cocycle={shlex.quote(oracle.description)} "
              f"window={window} witness={shown}")
    return 0


def main(args=None, prog_name=None):
    """Parse args (default sys.argv[1:]), run the command and exit with its status."""
    parser = _Parser(prog=prog_name or "vira", description=__doc__)
    commands = parser.add_subparsers(required=True)
    parsers = {run: commands.add_parser(run.__name__, help=run.__doc__.splitlines()[0],
                                        description=run.__doc__)
               for run in (verify, reduce, nontrivial)}
    for run, command in parsers.items():
        command.set_defaults(run=run)
        command.add_argument("--window", type=_at_least(0), default=8, metavar="N",
                             help="Index window for cohomology sweeps (default: 8).")
        command.add_argument("--format", dest="fmt", type=_format, metavar="{text,json}",
                             default=os.environ.get("VIRA_FORMAT") or "text",
                             help="Report format (default: text, or VIRA_FORMAT).")
        command.add_argument("--input", dest="input_path", metavar="FILE", required=run is reduce,
                             help="Cocycle table file.")
        if run is not reduce:
            command.add_argument("--virasoro", dest="use_virasoro", action="store_true",
                                 help="Use the built-in Virasoro cocycle.")
    command = parsers[verify]
    command.add_argument("kind", choices=KINDS, metavar="KIND", help=", ".join(KINDS))
    command.add_argument("--max-index", type=_at_least(0), metavar="N",
                         help="Bound on generator indices in operator sweeps "
                              "(default: 4; 10 for verma-hw).")
    command.add_argument("--max-level", type=_at_least(0), default=5, metavar="N",
                         help="Bound on basis partition levels in module sweeps (default: 5).")
    command.add_argument("--alpha", type=_scalar, default=Fraction(1, 2), metavar="Q",
                         help="Charge of the Fock module (default: 1/2).")
    command.add_argument("--c", type=_scalar, default=Fraction(1), metavar="Q",
                         help="Central charge of the highest-weight module (default: 1).")
    command.add_argument("--h", type=_scalar, default=Fraction(1, 8), metavar="Q",
                         help="Highest weight of the highest-weight module (default: 1/8).")
    command.add_argument("--jobs", type=_at_least(1), default=os.environ.get("VIRA_JOBS") or 1,
                         metavar="N", help="Worker processes for the module sweeps: heisenberg, "
                         "primary-field, normal-pair, sugawara, verma, intertwine (default: 1, "
                         "or VIRA_JOBS).")
    options = vars(parser.parse_args(args))
    run = options.pop("run")
    try:
        status = run(**options)
    except argparse.ArgumentError as exc:
        parsers[run].error(str(exc))
    sys.exit(status)


if __name__ == "__main__":
    main()
