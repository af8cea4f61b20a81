"""The sweep runner: worker clamping, and every partition sweep driven to FAIL.

Each injected defect corrupts one cached basis action: a J column, an L
column of the Fock module, or an L column of the highest-weight module.  The reports below are
the full first-counterexample records, and they must not depend on the job
count.
"""

import concurrent.futures
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import reset_columns, swapped
from virasoro import fock, sweeps, verma
from virasoro.core import FreeVector

A = Fraction(1, 2)
C, H = Fraction(-22, 5), Fraction(-1, 5)


def broken_j():
    """J(0) on J(-2)J(-1)|α⟩ returns (α + 1) times it instead of α times it."""
    original = fock._j_basis

    @lru_cache(maxsize=None)
    def broken(k, partition, alpha):
        out = original(k, partition, alpha)
        if k == 0 and partition == (2, 1):
            return out + FreeVector.basis(partition)
        return out

    return swapped(fock, "_j_basis", broken)


def broken_l():
    """L(-1) on J(-1)|α⟩ picks up one extra J(-1)J(-1)|α⟩; the J columns are intact."""
    original = fock._sugawara_basis

    @lru_cache(maxsize=None)
    def broken(n, partition, alpha):
        out = original(n, partition, alpha)
        if n == -1 and partition == (1,):
            return out + FreeVector.basis((1, 1))
        return out

    return swapped(fock, "_sugawara_basis", broken)


def broken_act():
    """L(0) on L(-2)|c,h⟩ picks up one extra L(-2)|c,h⟩."""
    original = verma._act_basis

    @lru_cache(maxsize=None)
    def broken(a, partition, c, h):
        out = original(a, partition, c, h)
        if a == 0 and partition == (2,):
            return out + FreeVector.basis((2,))
        return out

    return swapped(verma, "_act_basis", broken)


@pytest.fixture
def j_defect():
    with broken_j():
        yield


FAILURES = [
    (broken_j, lambda jobs: fock.check_heisenberg_relations(2, 3, A, jobs),
     "FAIL heisenberg-relations alpha=1/2 max_index=2 max_level=3 checked_count=16 "
     "counterexample.actual='-1·J(-2)J(-1)|α⟩' counterexample.expected=0 "
     "counterexample.indices.k=-2 counterexample.indices.l=0 "
     "counterexample.input='1·J(-1)|α⟩'"),
    (broken_j, lambda jobs: fock.check_primary_field(2, 3, A, jobs),
     "FAIL primary-field alpha=1/2 max_index=2 max_level=3 checked_count=2 "
     "counterexample.actual='1·J(-2)J(-2)J(-1)|α⟩ + 2·J(-4)J(-1)|α⟩' "
     "counterexample.expected='2·J(-4)J(-1)|α⟩' "
     "counterexample.indices.k=-2 counterexample.indices.n=-2 "
     "counterexample.input='1·J(-1)|α⟩'"),
    (broken_j, lambda jobs: fock.check_normal_pair_commutator(1, 0, 0, 3, A),
     "FAIL normal-pair-commutator alpha=1/2 k=0 m=0 max_level=3 n=1 checked_count=6 "
     "counterexample.actual='4·J(-1)J(-1)|α⟩ + 1·J(-2)|α⟩' counterexample.expected=0 "
     "counterexample.indices.k=0 counterexample.indices.m=0 counterexample.indices.n=1 "
     "counterexample.input='1·J(-2)J(-1)|α⟩'"),
    (broken_j, lambda jobs: fock.sweep_normal_pair(1, 1, 3, A, jobs),
     "FAIL normal-pair-commutator alpha=1/2 max_index=1 max_k=1 max_level=3 checked_count=3 "
     "counterexample.actual='-3/2·J(-2)J(-1)J(-1)|α⟩' "
     "counterexample.expected='1/2·J(-2)J(-1)J(-1)|α⟩' "
     "counterexample.indices.k=-1 counterexample.indices.m=-1 counterexample.indices.n=-1 "
     "counterexample.input='1·J(-1)J(-1)|α⟩'"),
    (broken_j, lambda jobs: fock.check_sugawara_commutator(2, 3, A, jobs),
     "FAIL sugawara-commutator alpha=1/2 max_index=2 max_level=3 checked_count=9 "
     "counterexample.actual='-3/2·J(-2)J(-1)J(-1)|α⟩ + -1/2·J(-3)J(-1)|α⟩ + -1·J(-4)|α⟩' "
     "counterexample.expected='-1·J(-2)J(-1)J(-1)|α⟩ + -1/2·J(-3)J(-1)|α⟩ + -1·J(-4)|α⟩' "
     "counterexample.indices.m=-1 counterexample.indices.n=-2 "
     "counterexample.input='1·J(-1)|α⟩'"),
    (broken_act, lambda jobs: verma.check_verma_relations(2, 3, C, H, jobs),
     "FAIL verma-relations c=-22/5 h=-1/5 max_index=2 max_level=3 checked_count=15 "
     "counterexample.actual='-3·L(-2)|c,h⟩' counterexample.expected='-2·L(-2)|c,h⟩' "
     "counterexample.indices.m=0 counterexample.indices.n=-2 "
     "counterexample.input='1·|c,h⟩'"),
    (broken_act, lambda jobs: verma.check_intertwining(A, 2, 3, jobs),
     "FAIL fock-verma-intertwining alpha=1/2 max_index=2 max_level=3 checked_count=18 "
     "counterexample.actual='25/16·J(-1)J(-1)|α⟩ + 25/16·J(-2)|α⟩' "
     "counterexample.expected='17/16·J(-1)J(-1)|α⟩ + 17/16·J(-2)|α⟩' "
     "counterexample.indices.a=0 counterexample.input='1·L(-2)|c,h⟩'"),
    (broken_j, lambda jobs: verma.check_intertwining(A, 2, 3, jobs),
     "FAIL fock-verma-intertwining alpha=1/2 max_index=2 max_level=3 checked_count=7 "
     "counterexample.actual='1/2·J(-2)J(-1)J(-1)J(-1)|α⟩ + 1/2·J(-2)J(-2)J(-1)|α⟩ "
     "+ 1/4·J(-3)J(-1)J(-1)|α⟩ + 5/4·J(-3)J(-2)|α⟩ + 2·J(-4)J(-1)|α⟩ + 3/2·J(-5)|α⟩' "
     "counterexample.expected='1/2·J(-2)J(-1)J(-1)J(-1)|α⟩ + 3/2·J(-2)J(-2)J(-1)|α⟩ "
     "+ 1/4·J(-3)J(-1)J(-1)|α⟩ + 5/4·J(-3)J(-2)|α⟩ + 2·J(-4)J(-1)|α⟩ + 3/2·J(-5)|α⟩' "
     "counterexample.indices.a=-2 counterexample.input='1·L(-3)|c,h⟩'"),
    (broken_l, lambda jobs: fock.check_sugawara_commutator(2, 3, A, jobs),
     "FAIL sugawara-commutator alpha=1/2 max_index=2 max_level=3 checked_count=9 "
     "counterexample.actual='1/2·J(-1)J(-1)J(-1)J(-1)|α⟩ + -1/2·J(-2)J(-1)J(-1)|α⟩ "
     "+ 3/2·J(-3)J(-1)|α⟩ + -1·J(-4)|α⟩' "
     "counterexample.expected='-1·J(-2)J(-1)J(-1)|α⟩ + -1/2·J(-3)J(-1)|α⟩ + -1·J(-4)|α⟩' "
     "counterexample.indices.m=-1 counterexample.indices.n=-2 "
     "counterexample.input='1·J(-1)|α⟩'"),
    (broken_l, lambda jobs: fock.check_primary_field(2, 3, A, jobs),
     "FAIL primary-field alpha=1/2 max_index=2 max_level=3 checked_count=37 "
     "counterexample.actual='-1·J(-2)J(-1)J(-1)|α⟩ + 2·J(-3)J(-1)|α⟩' "
     "counterexample.expected='2·J(-3)J(-1)|α⟩' "
     "counterexample.indices.k=-2 counterexample.indices.n=-1 "
     "counterexample.input='1·J(-1)|α⟩'"),
    (broken_l, lambda jobs: verma.check_intertwining(A, 2, 3, jobs),
     "FAIL fock-verma-intertwining alpha=1/2 max_index=2 max_level=3 checked_count=13 "
     "counterexample.actual='3/8·J(-1)J(-1)J(-1)J(-1)|α⟩ + 9/8·J(-2)J(-1)J(-1)|α⟩ "
     "+ 1/4·J(-2)J(-2)|α⟩ + 7/4·J(-3)J(-1)|α⟩ + 3/2·J(-4)|α⟩' "
     "counterexample.expected='1/8·J(-1)J(-1)J(-1)J(-1)|α⟩ + 7/8·J(-2)J(-1)J(-1)|α⟩ "
     "+ 1/4·J(-2)J(-2)|α⟩ + 3/4·J(-3)J(-1)|α⟩ + 3/2·J(-4)|α⟩' "
     "counterexample.indices.a=-1 counterexample.input='1·L(-2)L(-1)|c,h⟩'"),
]


FAILURE_IDS = ["heisenberg", "primary-field", "normal-pair-one", "normal-pair-sweep", "sugawara",
               "verma-relations", "intertwining-verma", "intertwining-fock", "sugawara-l-column",
               "primary-field-l-column", "intertwining-l-column"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("defect,run,expected", FAILURES, ids=FAILURE_IDS)
def test_injected_defect_fails_with_exact_report(defect, run, expected, jobs):
    with defect():
        assert run(jobs).to_text() == expected


# The J case of "sugawara" patches the J builder only; its sweep reads L columns alone.  The
# intertwining cases reach the canonical map's image table, built through the L columns.
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", ["heisenberg", "sugawara", "sugawara-l-column",
                                  "verma-relations", "intertwining-fock", "intertwining-l-column"])
def test_column_tables_follow_a_replaced_builder(case, jobs):
    """Resetting the tables and caches around a builder swap keeps every sweep coherent.

    The first sweep passes and fills the tables; conftest.swapped resets them and swaps a
    builder, so the pinned report must show; after the undo and a reset the sweep passes again.
    """
    defect, run, expected = dict(zip(FAILURE_IDS, FAILURES))[case]
    reset_columns()
    assert run(1).status == "pass"
    with defect():
        assert run(jobs).to_text() == expected
    assert run(jobs).status == "pass"


def test_tables_call_each_builder_once_per_entry(monkeypatch):
    """Across full sweeps and a canonical map call, each table entry is built once.

    A call that a builder makes while building (L reads J, L(a) recurses, an image reads the
    image of its tail) is not counted.
    """
    calls, depth = Counter(), [0]

    def counted(name, builder):
        def build(*args):
            if not depth[0]:
                calls[name, args] += 1
            depth[0] += 1
            try:
                return builder(*args)
            finally:
                depth[0] -= 1
        return build

    for module, name in ((fock, "_j_basis"), (fock, "_sugawara_basis"), (verma, "_act_basis"),
                         (verma, "_image")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for report in (fock.check_heisenberg_relations(2, 3, A), fock.check_primary_field(2, 3, A),
                   fock.sweep_normal_pair(1, 1, 3, A), fock.check_sugawara_commutator(2, 3, A),
                   verma.check_verma_relations(2, 3, C, H), verma.check_intertwining(A, 2, 3)):
        assert report.status == "pass"
    # Every partition of level <= 3 was a start of the intertwining sweep, so its image is built.
    every = verma.VermaVector(1, A * A / 2, dict.fromkeys(fock.partitions_up_to(3), 1))
    verma.universal_map(A, every)
    assert {name for name, _ in calls} == {"_j_basis", "_sugawara_basis", "_act_basis", "_image"}
    assert set(calls.values()) == {1}


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert sweeps.worker_count(10**6, 169) == 2
    assert sweeps.worker_count(10**6, 1) == 1
    assert sweeps.worker_count(1, 169) == 1


def test_worker_count_reads_the_usable_cpus(monkeypatch):
    # an affinity mask of one CPU on an eight-CPU machine
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert sweeps.worker_count(8, 81) == 1
    # without affinity support the CPU count caps, and an unknown count means one
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sweeps.worker_count(8, 81) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sweeps.worker_count(8, 81) == 1


def test_parallel_sweep_stops_at_the_earliest_failing_record(j_defect, monkeypatch):
    handed = []

    class LazyExecutor:
        """A pool that computes each record in this process when it is asked for."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, work, chunksize=1):
            for task in work:
                handed.append(task)
                yield fn(task)

    serial = fock.check_heisenberg_relations(2, 3, A, jobs=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", LazyExecutor)
    assert fock.check_heisenberg_relations(2, 3, A, jobs=2) == serial
    # the failing record (k, l) = (-2, 0) is the third of 25
    assert serial.counterexample["indices"] == {"k": "-2", "l": "0"}
    assert len(handed) == 3


def test_serial_sweep_decides_no_record_after_its_first_failing_one(j_defect, monkeypatch):
    decided = []
    decide = sweeps.decide_record

    def counting(identity, starts, render, indices):
        decided.append(indices)
        return decide(identity, starts, render, indices)

    monkeypatch.setattr(sweeps, "decide_record", counting)
    report = fock.check_heisenberg_relations(2, 3, A, jobs=1)
    # the failing record (k, l) = (-2, 0) is the third of 25
    assert report.counterexample["indices"] == {"k": "-2", "l": "0"}
    assert decided == [{"k": -2, "l": -2}, {"k": -2, "l": -1}, {"k": -2, "l": 0}]


def test_one_task_sweep_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-task sweep must run serially")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    report = fock.sweep_normal_pair(0, 0, 2, A, jobs=10**6)
    assert report.status == "pass"
    assert report.checked_count == len(fock.partitions_up_to(2))
