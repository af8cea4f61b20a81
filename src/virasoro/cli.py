"""Command line verification harness.

Every command prints one report per check, as plain text lines or as
newline-delimited JSON objects with sorted keys (byte-deterministic for
fixed inputs).  Exit status: 0 when everything passed, 1 when some check
failed, 2 for malformed flags or input files (including a cocycle-identity
precondition failure during reduction).
"""

from __future__ import annotations

import json
import shlex
import sys
from fractions import Fraction

import click

from . import fock
from .core import ScalarFormatError, format_scalar, parse_scalar
from .reports import VerificationReport


class ScalarParamType(click.ParamType):
    name = "scalar"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return parse_scalar(value)
        except ScalarFormatError:
            self.fail(f"invalid scalar {value!r}", param, ctx)


SCALAR = ScalarParamType()

KINDS = ["witt-jacobi", "cocycle", "extension", "virasoro-constants", "heisenberg",
         "primary-field", "normal-pair", "sugawara", "verma", "verma-hw",
         "intertwine", "sum-identity"]

_format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    envvar="VIRA_FORMAT", show_default=True, help="Report format.")
_window_option = click.option(
    "--window", type=click.IntRange(min=0), default=8, show_default=True,
    help="Index window for cohomology sweeps.")


def _echo_json(record: dict):
    click.echo(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _emit_report(report: VerificationReport, fmt: str):
    if fmt == "json":
        _echo_json(report.to_json_dict())
    else:
        click.echo(report.to_text())


def _input_error(fmt: str, check_name: str, message: str):
    if fmt == "json":
        _echo_json({"check_name": check_name, "status": "input_error",
                    "message": message})
    else:
        click.echo(f"INPUT_ERROR {check_name} message={shlex.quote(message)}")
    sys.exit(2)


def _load_oracle(fmt: str, check_name: str, use_virasoro: bool, input_path):
    from . import cohomology
    if use_virasoro == bool(input_path):
        raise click.UsageError("exactly one of --virasoro or --input is required")
    if use_virasoro:
        return cohomology.VIRASORO
    try:
        return cohomology.load_cocycle_table(input_path)
    except (cohomology.TableFormatError, OSError) as exc:
        _input_error(fmt, check_name, str(exc))


@click.group()
def main():
    """Exact checks for Witt/Virasoro/Heisenberg bracket identities,
    2-cocycle reduction, and current-algebra module constructions."""


@main.command()
@click.argument("kind", type=click.Choice(KINDS))
@_window_option
@click.option("--max-index", type=click.IntRange(min=0), default=None,
              show_default="4; 10 for verma-hw",
              help="Bound on generator indices in operator sweeps.")
@click.option("--max-level", type=click.IntRange(min=0), default=5, show_default=True,
              help="Bound on basis partition levels in module sweeps.")
@click.option("--alpha", type=SCALAR, default=Fraction(1, 2), show_default="1/2",
              help="Charge of the Fock module.")
@click.option("--c", "c", type=SCALAR, default=Fraction(1), show_default="1",
              help="Central charge of the highest-weight module.")
@click.option("--h", "h", type=SCALAR, default=Fraction(1, 8), show_default="1/8",
              help="Highest weight of the highest-weight module.")
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="Cocycle table file (kind 'cocycle').")
@click.option("--virasoro", "use_virasoro", is_flag=True,
              help="Use the built-in Virasoro cocycle (kind 'cocycle').")
@click.option("--jobs", type=click.IntRange(min=1), default=1, envvar="VIRA_JOBS",
              show_default=True, help="Worker processes for the module sweeps: heisenberg, "
                                      "primary-field, normal-pair, sugawara, verma, intertwine.")
@_format_option
def verify(kind, window, max_index, max_level, alpha, c, h, input_path,
           use_virasoro, jobs, fmt):
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
    if max_index is None and kind != "verma-hw":
        max_index = 4
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
        "verma-hw": lambda: [verma.verma_hw_check(c, h) if max_index is None
                             else verma.verma_hw_check(c, h, max_index)],
        "intertwine": lambda: [verma.check_intertwining(alpha, max_index, max_level, jobs)],
        "sum-identity": lambda: [fock.check_weighted_sum(max_index)],
    }
    reports = sweeps[kind]()
    for report in reports:
        _emit_report(report, fmt)
    if any(not report.passed() for report in reports):
        sys.exit(1)


@main.command()
@click.option("--input", "input_path", type=click.Path(), required=True,
              help="Cocycle table file to reduce.")
@_window_option
@_format_option
def reduce(input_path, window, fmt):
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
        click.echo(cohomology.dump_one_cochain(beta), nl=False)
        click.echo(f"r\t{format_scalar(r)}")
        click.echo(residual.to_text())
    if not residual.passed():
        sys.exit(1)


@main.command()
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="Cocycle table file.")
@click.option("--virasoro", "use_virasoro", is_flag=True,
              help="Use the built-in Virasoro cocycle.")
@_window_option
@_format_option
def nontrivial(input_path, use_virasoro, window, fmt):
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
        click.echo(f"WITNESS nontriviality-witness cocycle={shlex.quote(oracle.description)} "
                   f"window={window} witness={shown}")


if __name__ == "__main__":
    main()
