"""Seeded `vira` invocations for each benchmark workload.

A workload is a list of slots: a verify kind at a fixed size.  Round i of a
run fills every slot once, with parameters (charges, weights, cocycle
tables) drawn from a generator seeded by (seed, workload, i), so the same
seed gives the same invocations and every round does the same amount of
work up to the drawn parameters.

Sizes are those of the acceptance tests and of the figures the roadmap
asks for: sugawara 6/8, heisenberg 8/8, primary-field 6/6, verma 5/6,
intertwine 4/5, cocycle and reduce at window 12, witt-jacobi and extension
past 8.  The command line ties normal-pair's k range to --max-index, so the
acceptance sweep 4/6/5 (|k| <= 6) runs as the CLI default 4/5 (|k| <= 4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checker


@dataclass
class Invocation:
    args: list[str]
    expected: list[dict]
    exit_code: int = 0

    def serial(self) -> "Invocation":
        """The same invocation without --jobs: the matched serial run."""
        at = self.args.index("--jobs")
        return Invocation(self.args[:at] + self.args[at + 2:], self.expected, self.exit_code)


def _rational(rng, span, max_den, nonzero=True):
    while True:
        den = rng.randint(1, max_den)
        value = Fraction(rng.randint(-span * den, span * den), den)
        if value or not nonzero:
            return value


def _charge(rng):
    # Denominators 1..7: Fraction cost grows with the denominator.
    return _rational(rng, 2, 7)


def _verify(kind, *options):
    return ["verify", kind, *options, "--format", "json"]


def _fock(rng, kind, max_index, max_level):
    alpha = _charge(rng)
    expected = {"sugawara": checker.sugawara, "primary-field": checker.primary_field,
                "normal-pair": checker.normal_pair, "heisenberg": checker.heisenberg}[kind]
    return Invocation(_verify(kind, "--max-index", str(max_index), "--max-level",
                              str(max_level), f"--alpha={alpha}"),
                      expected(max_index, max_level, alpha))


# Ordered by typical duration.  A run holds about two rounds, so the median
# lies between heisenberg and normal-pair and the tail is the slowest
# sugawara sweep.  The jobs2 workload reruns the slots that FOCK_JOBS2 and
# VERMA_JOBS2 index, with --jobs 2.
FOCK = [("primary-field", 6, 6), ("heisenberg", 8, 8), ("normal-pair", 4, 5),
        ("sugawara", 6, 8)]
FOCK_JOBS2 = (2, 3)


def fock_round(rng):
    return [_fock(rng, *slot) for slot in FOCK]


def _weights(rng):
    # Nonzero (c, h): a zero weight drops whole terms of the straightening.
    return _rational(rng, 10, 7), _rational(rng, 3, 7)


def _verma_slot(rng, slot):
    kind = slot[0]
    if kind == "verma-hw":
        c, h = _weights(rng)
        return Invocation(_verify(kind, f"--c={c}", f"--h={h}"), checker.verma_hw(c, h))
    _, max_index, max_level = slot
    size = ["--max-index", str(max_index), "--max-level", str(max_level)]
    if kind == "intertwine":
        alpha = _charge(rng)
        return Invocation(_verify(kind, *size, f"--alpha={alpha}"),
                          checker.intertwine(max_index, max_level, alpha))
    c, h = _weights(rng)
    return Invocation(_verify(kind, *size, f"--c={c}", f"--h={h}"),
                      checker.verma(max_index, max_level, c, h))


# Three of five slots are verma 5/6, so with the six or more rounds of a run
# both the median and the tail fall among verma sweeps.
VERMA = [("verma-hw",), ("intertwine", 4, 5), ("verma", 5, 6), ("verma", 5, 6),
         ("verma", 5, 6)]
VERMA_JOBS2 = (2,)


def verma_round(rng):
    return [_verma_slot(rng, slot) for slot in VERMA]


def jobs2_round(seed, index):
    """Round `index` of fock and of verma, cut to the jobs2 slots, with --jobs 2."""
    fock = fock_round(_rng(seed, "fock", index))
    verma = verma_round(_rng(seed, "verma", index))
    chosen = [fock[i] for i in FOCK_JOBS2] + [verma[i] for i in VERMA_JOBS2]
    return [Invocation(inv.args + ["--jobs", "2"], inv.expected, inv.exit_code)
            for inv in chosen]


# ---------------------------------------------------------------------------
# Cocycle tables for the algebra workload.  A valid table holds
# r0 * omega + d(beta0) on every pair of a window twice the processing window
# (the identity reaches index sums up to twice the window, so a narrower
# table would fail by design); beta0 lives on the processing window.

def _omega(m, n):
    return Fraction(m ** 3 - m, 12) if m + n == 0 else 0


def _cocycle_table(rng, window, r0):
    beta0 = {n: _rational(rng, 3, 6) if rng.random() < 0.6 else Fraction(0)
             for n in range(-window, window + 1)}
    table_window = 2 * window
    table = {}
    for m in range(-table_window, table_window + 1):
        for n in range(m + 1, table_window + 1):
            value = r0 * _omega(m, n) + (m - n) * beta0.get(m + n, 0)
            if value:
                table[(m, n)] = Fraction(value)
    return table, table_window, beta0


def _write_table(path: Path, table, table_window):
    lines = [f"window\t{table_window}"]
    lines += [f"{m}\t{n}\t{value}" for (m, n), value in sorted(table.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _cocycle_check(rng, workdir, name, window, corrupt):
    table, table_window, _ = _cocycle_table(rng, window, _rational(rng, 3, 5, nonzero=False))
    if corrupt:
        # One entry inside the processing window, shifted by a nonzero amount.
        # Redraw until the shift is visible to the identity on the window.
        original = dict(table)
        while True:
            m = rng.randint(-window, window - 1)
            n = rng.randint(m + 1, window)
            table = dict(original)
            table[(m, n)] = table.get((m, n), 0) + _rational(rng, 2, 5)
            if checker.first_cocycle_defect(table, window) is not None:
                break
    expected, exit_code = checker.cocycle(table, table_window, window)
    path = _write_table(workdir / name, table, table_window)
    return Invocation(_verify("cocycle", "--input", path, "--window", str(window)),
                      expected, exit_code)


def _reduce(rng, workdir, name, window):
    r0 = _rational(rng, 3, 5, nonzero=False)
    table, table_window, beta0 = _cocycle_table(rng, window, r0)
    path = _write_table(workdir / name, table, table_window)
    return Invocation(["reduce", "--input", path, "--window", str(window), "--format", "json"],
                      checker.reduce(table_window, window, r0, beta0))


def _nontrivial(rng, workdir, name, window):
    # Half the tables are coboundaries (r0 = 0), for which no witness exists.
    r0 = _rational(rng, 3, 5) if rng.random() < 0.5 else Fraction(0)
    table, table_window, _ = _cocycle_table(rng, window, r0)
    path = _write_table(workdir / name, table, table_window)
    return Invocation(["nontrivial", "--input", path, "--window", str(window),
                       "--format", "json"],
                      checker.nontrivial(table, table_window, window))


def algebra_round(rng, workdir):
    # Six invocations dominated by start-up and table parsing, then four
    # sweeps of one to three seconds.  Two rounds fill a run, so the median
    # falls inside the first group and the tail is the slowest sweep.
    return [
        Invocation(_verify("virasoro-constants", "--max-index", "8"),
                   checker.virasoro_constants(8)),
        _cocycle_check(rng, workdir, "valid12.tsv", 12, corrupt=False),
        _cocycle_check(rng, workdir, "corrupt12.tsv", 12, corrupt=True),
        _nontrivial(rng, workdir, "nontrivial8.tsv", 8),
        _nontrivial(rng, workdir, "nontrivial32.tsv", 32),
        _reduce(rng, workdir, "reduce12.tsv", 12),
        Invocation(_verify("witt-jacobi", "--max-index", "10"), checker.witt_jacobi(10)),
        _reduce(rng, workdir, "reduce24.tsv", 24),
        _reduce(rng, workdir, "reduce32.tsv", 32),
        Invocation(_verify("extension", "--max-index", "10"), checker.extension(10)),
    ]


WORKLOADS = ("fock", "verma", "algebra", "jobs2")


def _rng(seed, workload, index):
    return random.Random(f"{seed}/{workload}/{index}")


def make_round(workload, seed, index, workdir: Path) -> list[Invocation]:
    """The invocations of round `index`; table files are written to workdir."""
    if workload == "jobs2":
        return jobs2_round(seed, index)
    rng = _rng(seed, workload, index)
    if workload == "algebra":
        return algebra_round(rng, workdir)
    return {"fock": fock_round, "verma": verma_round}[workload](rng)


def setup_probe() -> Invocation:
    """A `vira` process that runs no sweep: start-up, import and option parsing."""
    return Invocation(_verify("sum-identity", "--max-index", "0"), checker.sum_identity(0))
