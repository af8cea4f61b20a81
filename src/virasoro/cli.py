"""Command line verification harness.

Every command prints one report per check, as plain text lines or as
newline-delimited JSON objects with sorted keys (byte-deterministic for
fixed inputs).  Exit status: 0 when everything passed, 1 when some check
failed, 2 for malformed flags or input files (including a cocycle-identity
precondition failure during reduction).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import re
import shlex
import sys
from fractions import Fraction
from typing import Callable

from .core import ScalarFormatError, format_scalar, parse_integer, parse_scalar
from .reports import INPUT_ERROR

# Each verify kind imports exactly the library modules it runs, as globals of this module,
# and so loads nothing else of the package beyond what those import (verma imports fock).
KINDS = {"witt-jacobi": "witt", "cocycle": "cohomology", "extension": "cohomology extension",
         "virasoro-constants": "extension", "heisenberg": "extension fock",
         "primary-field": "fock", "normal-pair": "fock", "sugawara": "fock", "verma": "verma",
         "verma-hw": "verma", "intertwine": "verma", "sum-identity": "fock"}


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


def _echo(fmt: str, record: Callable[[], dict], text: Callable[[], str]):
    """Print record() as one JSON line with sorted keys, or text(): only the one fmt asks for."""
    if fmt == "json":
        print(json.dumps(record(), sort_keys=True, separators=(",", ":")))
    else:
        print(text())


def _input_error(fmt: str, check_name: str, message: str):
    _echo(fmt, lambda: {"check_name": check_name, "status": INPUT_ERROR, "message": message},
          lambda: f"{INPUT_ERROR.upper()} {check_name} message={shlex.quote(message)}")
    sys.exit(2)


def _load_oracle(fmt: str, check_name: str, use_virasoro: bool, input_path):
    from . import cohomology
    if use_virasoro == (input_path is not None):
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
    for name in KINDS[kind].split():
        globals()[name] = importlib.import_module(f".{name}", __package__)
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
        _echo(fmt, report.to_json_dict, report.to_text)
    return int(any(not report.passed() for report in reports))


def reduce(input_path, window, fmt) -> int:
    """Split a tabulated cocycle as r * virasoro + coboundary.

    Prints the correcting one-cochain (in the one-cochain file format), the
    multiplier r, and the residual report.  An input that fails the cocycle
    identity on the window is rejected with exit status 2.
    """
    from . import cohomology
    oracle = _load_oracle(fmt, "cocycle-reduction", False, input_path)
    try:
        beta, r, residual = cohomology.reduce_cocycle(oracle, window)
    except (cohomology.CocycleIdentityError, ValueError) as exc:
        _input_error(fmt, "cocycle-reduction", str(exc))
    _echo(fmt, lambda: {
        "check_name": "cocycle-reduction",
        "parameters": {"window": str(window), "cocycle": oracle.description},
        "r": format_scalar(r),
        "beta": {"window": beta.window,
                 "values": [[n, format_scalar(value)] for n, value in beta.items()]},
    }, lambda: f"{cohomology.dump_one_cochain(beta)}r\t{format_scalar(r)}")
    _echo(fmt, residual.to_json_dict, residual.to_text)
    return int(not residual.passed())


def nontrivial(input_path, use_virasoro, window, fmt) -> int:
    """Search for a coboundary-ratio mismatch certifying nontriviality.

    Prints the witness pair, or reports that none exists in the window.
    Exit status is 0 either way; absence of a witness is not a failure.
    """
    from . import cohomology
    oracle = _load_oracle(fmt, "nontriviality-witness", use_virasoro, input_path)
    witness = cohomology.nontriviality_witness(oracle, window)
    shown = f"{witness[0]},{witness[1]}" if witness else "none"
    _echo(fmt, lambda: {"check_name": "nontriviality-witness",
                        "parameters": {"window": str(window), "cocycle": oracle.description},
                        "witness": list(witness) if witness else None},
          lambda: f"WITNESS nontriviality-witness cocycle={shlex.quote(oracle.description)} "
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


def entry():
    """The `vira` command: main(), then gc.freeze(), so that no collection pass runs at exit."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
