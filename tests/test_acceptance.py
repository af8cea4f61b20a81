"""Acceptance gate: the package's headline guarantees at full scale.

Each test is one acceptance criterion, checked with exact rational equality
(no tolerances anywhere).  Random sweeps use fixed seeds so reruns are
byte-reproducible.  A criterion prints its verdict line even when it fails,
so a scan of the output gives the full scoreboard.
"""

import json
import random
import shlex
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import DATA, GOLDEN, invoke
from virasoro import cohomology as co
from virasoro import extension as ext
from virasoro import fock, verma, witt
from virasoro.core import FreeVector

SEED = 20260819


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL {label}")
        raise
    print(f"criterion {number:02d} PASS {label}")


def random_scalar(rng, span=6, max_den=5):
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_witt_vector(rng):
    return FreeVector({rng.randint(-10, 10): random_scalar(rng)
                       for _ in range(rng.randint(1, 3))})


def random_cochain(rng, window=6):
    support = rng.sample(range(-window, window + 1), rng.randint(0, 5))
    return co.OneCochain(window, {n: random_scalar(rng) for n in support})


def test_01_witt_jacobi():
    with criterion(1, "Jacobi and alternating laws for the degree-indexed bracket"):
        report = witt.jacobi_basis_sweep(8)
        assert report.status == "pass"
        assert report.checked_count == 4913
        rng = random.Random(SEED)
        for _ in range(500):
            x, y, z = (random_witt_vector(rng) for _ in range(3))
            assert witt.jacobi_defect(x, y, z).is_zero()
            assert witt.bracket(x, x).is_zero()


def test_02_cocycle_identity():
    with criterion(2, "defining 2-cocycle identity on window 12 plus its integer core"):
        report = co.check_cocycle_identity(co.VIRASORO, 12)
        assert report.status == "pass"
        assert report.checked_count == 15625
        for m in range(-50, 51):
            for n in range(-50, 51):
                assert ((2 * m + n) * (n**3 - n)
                        == (n - m) * ((n + m) ** 3 - (n + m))
                        + (2 * n + m) * (m**3 - m))


def test_03_cocycle_values_and_witness():
    with criterion(3, "pinned cocycle values and the nontriviality witness"):
        assert co.virasoro_cocycle(3, -3) == Fraction(2)
        assert co.virasoro_cocycle(6, -6) == Fraction(35, 2)
        witness = co.nontriviality_witness(co.VIRASORO, 6)
        assert witness is not None
        assert witness == (1, 2)
        rng = random.Random(SEED)
        for _ in range(20):
            beta = random_cochain(rng)
            assert co.nontriviality_witness(co.coboundary(beta), 6) is None


def test_04_reduction_round_trip():
    with criterion(4, "reduction recovers the multiplier of a shifted cocycle"):
        rng = random.Random(SEED)
        for trip in range(100):
            r0 = Fraction(0) if trip == 0 else Fraction(rng.randint(-3, 3),
                                                        rng.randint(1, 4))
            beta0 = random_cochain(rng, window=6)
            omega = r0 * co.VIRASORO + co.coboundary(beta0)
            beta, r, residual = co.reduce_cocycle(omega, 12)
            assert r == r0
            assert residual.status == "pass"
            for n in range(-12, 13):
                assert beta.value(n) == -beta0.value(n)


def test_05_structure_constants_and_predicate():
    with criterion(5, "structure constants and the central-extension predicate"):
        assert ext.check_virasoro_constants(8).status == "pass"
        assert ext.check_heisenberg_constants(10).status == "pass"
        assert ext.check_extension_predicate(ext.WITT, co.VIRASORO, 8).status == "pass"
        assert ext.check_extension_predicate(ext.ABELIAN, ext.HEISENBERG, 8).status == "pass"


def test_06_current_relations_and_truncation():
    with criterion(6, "current commutation relations and the truncation margin"):
        for alpha in (Fraction(0), Fraction(2, 3)):
            report = fock.check_heisenberg_relations(8, 8, alpha)
            assert report.status == "pass"
            assert report.checked_count == 17 * 17 * 67
        rng = random.Random(SEED)
        for _ in range(200):
            alpha = random_scalar(rng)
            terms = FreeVector(
                (tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 3))),
                              reverse=True)), random_scalar(rng))
                for _ in range(rng.randint(1, 3)))
            v = fock.FockVector(alpha, terms)
            bound = fock.truncation_bound(v)
            for l in range(bound, bound + 11):
                assert fock.j_action(l, v).is_zero()


def test_07_normal_pair_symmetry_and_vanishing():
    with criterion(7, "normal-ordered pairs: index symmetry and out-of-range vanishing"):
        alpha = Fraction(1, 2)
        for partition in fock.partitions_up_to(6):
            v = fock.basis(alpha, partition) if partition else fock.vacuum(alpha)
            bound = fock.truncation_bound(v)
            for k in range(-8, 9):
                for l in range(k, 9):
                    lhs = fock.normal_pair(k, l, v)
                    assert lhs == fock.normal_pair(l, k, v)
                    if max(k, l) >= bound:
                        assert lhs.is_zero()


def test_08_primary_field():
    with criterion(8, "commutator of quadratic generators with currents"):
        report = fock.check_primary_field(6, 6, Fraction(2, 3))
        assert report.status == "pass"
        assert report.checked_count == 13 * 13 * 30


def test_09_normal_pair_commutator():
    with criterion(9, "quadratic-generator commutator with one normal pair, "
                      "including indicator central terms"):
        report = fock.sweep_normal_pair(4, 6, 5, Fraction(1, 2))
        assert report.status == "pass"
        assert report.checked_count == 9 * 9 * 13 * 19


def test_10_sugawara_commutator():
    with criterion(10, "the bracket of quadratic generators closes with central charge 1"):
        report = fock.check_sugawara_commutator(6, 8, Fraction(1, 2))
        assert report.status == "pass"
        assert report.checked_count == 13 * 13 * 67


def test_11_weighted_sum():
    with criterion(11, "closed form of the weighted index sum"):
        for n in range(101):
            assert fock.check_weighted_sum(n).passed()
        report = fock.check_weighted_sum(100)
        assert report.status == "pass"
        assert report.checked_count == 101


def test_12_verma_relations():
    with criterion(12, "highest-weight module bracket relations at four weight fixtures"):
        fixtures = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1, 2)),
                    (Fraction(1, 2), Fraction(1, 16)), (Fraction(-22, 5), Fraction(-1, 5))]
        for c, h in fixtures:
            report = verma.check_verma_relations(5, 6, c, h)
            assert report.status == "pass"
            assert report.checked_count == 11 * 11 * 30
            for partition in fock.partitions_up_to(6):
                v = verma.basis(c, h, partition)
                assert verma.l_action(0, v) == (h + sum(partition)) * v


def test_13_universal_map():
    with criterion(13, "canonical map to the charged module: vacuum image, "
                       "intertwining, precondition"):
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(2)):
            hw = verma.hw_vector(Fraction(1), alpha * alpha / 2)
            assert verma.universal_map(alpha, hw) == fock.vacuum(alpha)
            report = verma.check_intertwining(alpha, 4, 5)
            assert report.status == "pass"
            assert report.checked_count == 9 * 19
        with pytest.raises(ValueError, match="central charge 1"):
            verma.universal_map(Fraction(1, 2), verma.hw_vector(Fraction(2), Fraction(1, 8)))
        with pytest.raises(ValueError, match="alpha\\^2/2"):
            verma.universal_map(Fraction(1, 2), verma.hw_vector(Fraction(1), Fraction(1, 4)))


GOLDEN_COMMANDS = {
    "witt_jacobi.jsonl": ["verify", "witt-jacobi", "--max-index", "4", "--format", "json"],
    "cocycle_virasoro.jsonl": ["verify", "cocycle", "--virasoro", "--window", "6",
                               "--format", "json"],
    "cocycle_fail.jsonl": ["verify", "cocycle", "--input", str(DATA / "sign_window3.tsv"),
                           "--window", "3", "--format", "json"],
    "reduce_virasoro.jsonl": ["reduce", "--input", str(DATA / "virasoro_window8.tsv"),
                              "--window", "4", "--format", "json"],
    "nontrivial_virasoro.jsonl": ["nontrivial", "--virasoro", "--window", "8",
                                  "--format", "json"],
    "sugawara.jsonl": ["verify", "sugawara", "--max-index", "2", "--max-level", "3",
                       "--format", "json"],
    "extension.jsonl": ["verify", "extension", "--max-index", "3", "--format", "json"],
    "virasoro_constants.jsonl": ["verify", "virasoro-constants", "--max-index", "3",
                                 "--format", "json"],
    "heisenberg.jsonl": ["verify", "heisenberg", "--max-index", "2", "--max-level", "3",
                         "--format", "json"],
    "primary_field.jsonl": ["verify", "primary-field", "--max-index", "2", "--max-level", "3",
                            "--format", "json"],
    "verma.jsonl": ["verify", "verma", "--max-index", "2", "--max-level", "3",
                    "--c", "-22/5", "--h", "-1/5", "--format", "json"],
    "normal_pair.jsonl": ["verify", "normal-pair", "--max-index", "1", "--max-level", "3",
                          "--format", "json"],
    "intertwine.jsonl": ["verify", "intertwine", "--max-index", "2", "--max-level", "3",
                         "--format", "json"],
    "verma_hw.jsonl": ["verify", "verma-hw", "--c", "-22/5", "--h", "-1/5", "--format", "json"],
    "sum_identity.jsonl": ["verify", "sum-identity", "--max-index", "10", "--format", "json"],
    # text copies: the shlex quoting of parameter and counterexample values
    "cocycle_fail.txt": ["verify", "cocycle", "--input", str(DATA / "sign_window3.tsv"),
                         "--window", "3", "--format", "text"],
    "reduce_virasoro.txt": ["reduce", "--input", str(DATA / "virasoro_window8.tsv"),
                            "--window", "4", "--format", "text"],
}
FAILING_GOLDENS = {"cocycle_fail.jsonl", "cocycle_fail.txt"}


def test_14_cli_contract():
    with criterion(14, "CLI reports are byte-stable and exit codes follow the contract"):
        for name, args in GOLDEN_COMMANDS.items():
            frozen = (GOLDEN / name).read_text(encoding="utf-8")
            first = invoke(*args)
            second = invoke(*args)
            assert first.output == second.output, name
            assert first.output == frozen, name
            # exit codes: 0 all pass, 1 some check failed
            assert first.exit_code == (1 if name in FAILING_GOLDENS else 0), name
            if name.endswith(".jsonl"):
                for line in first.output.splitlines():
                    json.loads(line)
        # exit code 2: unusable input
        garbage = [
            ["verify", "sugawara", "--alpha", "1/0"],
            ["verify", "no-such-kind"],
            ["verify", "cocycle"],
            ["reduce", "--input", str(DATA / "sign_window3.tsv"), "--window", "3"],
            ["nontrivial", "--virasoro", "--input", str(DATA / "sign_window3.tsv")],
        ]
        for args in garbage:
            assert invoke(*args).exit_code == 2, shlex.join(args)
