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


def _load_oracle(o, check_name: str):
    from . import cohomology
    if o.use_virasoro == (o.input_path is not None):
        o.parser.error("exactly one of --virasoro or --input is required")
    if o.use_virasoro:
        return cohomology.VIRASORO
    try:
        return cohomology.load_cocycle_table(o.input_path)
    except (cohomology.TableFormatError, OSError) as exc:
        _input_error(o.fmt, check_name, str(exc))


# Each verify kind: the library modules it imports, as globals of this module, so that it
# loads nothing else of the package beyond what those import (verma imports fock); and its
# reports, from the parsed options o.
KINDS = {
    "witt-jacobi": ("witt", lambda o: [witt.jacobi_basis_sweep(o.max_index)]),
    "cocycle": ("cohomology", lambda o: [cohomology.check_cocycle_identity(
        _load_oracle(o, "cocycle-identity"), o.window)]),
    "extension": ("cohomology extension", lambda o: [
        extension.check_extension_predicate(extension.WITT, cohomology.VIRASORO, o.max_index),
        extension.check_extension_predicate(extension.ABELIAN, extension.HEISENBERG,
                                            o.max_index)]),
    "virasoro-constants": ("extension", lambda o: [
        extension.check_virasoro_constants(o.max_index)]),
    "heisenberg": ("extension fock", lambda o: [
        extension.check_heisenberg_constants(o.max_index),
        fock.check_heisenberg_relations(o.max_index, o.max_level, o.alpha, o.jobs)]),
    "primary-field": ("fock", lambda o: [
        fock.check_primary_field(o.max_index, o.max_level, o.alpha, o.jobs)]),
    "normal-pair": ("fock", lambda o: [
        fock.sweep_normal_pair(o.max_index, o.max_index, o.max_level, o.alpha, o.jobs)]),
    "sugawara": ("fock", lambda o: [
        fock.check_sugawara_commutator(o.max_index, o.max_level, o.alpha, o.jobs)]),
    "verma": ("verma", lambda o: [
        verma.check_verma_relations(o.max_index, o.max_level, o.c, o.h, o.jobs)]),
    "verma-hw": ("verma", lambda o: [verma.verma_hw_check(o.c, o.h, o.max_index)]),
    "intertwine": ("verma", lambda o: [
        verma.check_intertwining(o.alpha, o.max_index, o.max_level, o.jobs)]),
    "sum-identity": ("fock", lambda o: [fock.check_weighted_sum(o.max_index)]),
}


def verify(o) -> int:
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
    if o.max_index is None:
        o.max_index = 10 if o.kind == "verma-hw" else 4
    modules, sweep = KINDS[o.kind]
    for name in modules.split():
        globals()[name] = importlib.import_module(f".{name}", __package__)
    reports = sweep(o)
    for report in reports:
        _echo(o.fmt, report.to_json_dict, report.to_text)
    return int(any(not report.passed() for report in reports))


def reduce(o) -> int:
    """Split a tabulated cocycle as r * virasoro + coboundary.

    Prints the correcting one-cochain (in the one-cochain file format), the
    multiplier r, and the residual report.  An input that fails the cocycle
    identity on the window is rejected with exit status 2.
    """
    from . import cohomology
    oracle = _load_oracle(o, "cocycle-reduction")
    try:
        beta, r, residual = cohomology.reduce_cocycle(oracle, o.window)
    except ValueError as exc:  # a CocycleIdentityError too
        _input_error(o.fmt, "cocycle-reduction", str(exc))
    _echo(o.fmt, lambda: {
        "check_name": "cocycle-reduction",
        "parameters": {"window": str(o.window), "cocycle": oracle.description},
        "r": format_scalar(r),
        "beta": {"window": beta.window,
                 "values": [[n, format_scalar(value)] for n, value in beta.items()]},
    }, lambda: f"{cohomology.dump_one_cochain(beta)}r\t{format_scalar(r)}")
    _echo(o.fmt, residual.to_json_dict, residual.to_text)
    return int(not residual.passed())


def nontrivial(o) -> int:
    """Search for a coboundary-ratio mismatch certifying nontriviality.

    Prints the witness pair, or reports that none exists in the window.
    Exit status is 0 either way; absence of a witness is not a failure.
    """
    from . import cohomology
    oracle = _load_oracle(o, "nontriviality-witness")
    witness = cohomology.nontriviality_witness(oracle, o.window)
    shown = f"{witness[0]},{witness[1]}" if witness else "none"
    _echo(o.fmt, lambda: {"check_name": "nontriviality-witness",
                          "parameters": {"window": str(o.window), "cocycle": oracle.description},
                          "witness": list(witness) if witness else None},
          lambda: f"WITNESS nontriviality-witness cocycle={shlex.quote(oracle.description)} "
                  f"window={o.window} witness={shown}")
    return 0


def main(args=None, prog_name=None):
    """Parse args (default sys.argv[1:]), run the command and exit with its status."""
    parser = _Parser(prog=prog_name or "vira", description=__doc__)
    commands = parser.add_subparsers(required=True)
    parsers = {run: commands.add_parser(run.__name__, help=run.__doc__.splitlines()[0],
                                        description=run.__doc__)
               for run in (verify, reduce, nontrivial)}
    for run, command in parsers.items():
        command.set_defaults(run=run, parser=command, use_virasoro=False)
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
    options = parser.parse_args(args)
    sys.exit(options.run(options))


def entry():
    """The `vira` command: main(), then gc.freeze(), so that no collection pass runs at exit."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
