"""The sweep runner: worker clamping, and every partition sweep driven to FAIL.

Each injected defect corrupts one cached basis action: a J column, an L
column of the Fock module, or an L column of the highest-weight module.  The reports below are
the full first-counterexample records, and they must not depend on the job
count.
"""

import concurrent.futures
import os
from fractions import Fraction
from functools import lru_cache

import pytest

from virasoro import fock, sweeps, verma
from virasoro.core import FreeVector

A = Fraction(1, 2)
C, H = Fraction(-22, 5), Fraction(-1, 5)


def _clear_caches():
    for cached in (fock._j_basis, fock._sugawara_basis, verma._act_basis):
        cached.cache_clear()


@pytest.fixture
def j_defect(monkeypatch):
    """J(0) on J(-2)J(-1)|α⟩ returns (α + 1) times it instead of α times it."""
    original = fock._j_basis

    @lru_cache(maxsize=None)
    def broken(k, partition, alpha):
        out = original(k, partition, alpha)
        if k == 0 and partition == (2, 1):
            return out + FreeVector.basis(partition)
        return out

    _clear_caches()
    monkeypatch.setattr(fock, "_j_basis", broken)
    yield
    monkeypatch.undo()
    _clear_caches()


@pytest.fixture
def l_defect(monkeypatch):
    """L(-1) on J(-1)|α⟩ picks up one extra J(-1)J(-1)|α⟩; the J columns are intact."""
    original = fock._sugawara_basis

    @lru_cache(maxsize=None)
    def broken(n, partition, alpha):
        out = original(n, partition, alpha)
        if n == -1 and partition == (1,):
            return out + FreeVector.basis((1, 1))
        return out

    _clear_caches()
    monkeypatch.setattr(fock, "_sugawara_basis", broken)
    yield
    monkeypatch.undo()
    _clear_caches()


@pytest.fixture
def act_defect(monkeypatch):
    """L(0) on L(-2)|c,h⟩ picks up one extra L(-2)|c,h⟩."""
    original = verma._act_basis

    @lru_cache(maxsize=None)
    def broken(a, partition, c, h):
        out = original(a, partition, c, h)
        if a == 0 and partition == (2,):
            return out + FreeVector.basis((2,))
        return out

    _clear_caches()
    monkeypatch.setattr(verma, "_act_basis", broken)
    yield
    monkeypatch.undo()
    _clear_caches()


FAILURES = [
    ("j_defect", lambda jobs: fock.check_heisenberg_relations(2, 3, A, jobs),
     "FAIL heisenberg-relations alpha=1/2 max_index=2 max_level=3 checked_count=16 "
     "counterexample.actual='-1·J(-2)J(-1)|α⟩' counterexample.expected=0 "
     "counterexample.indices.k=-2 counterexample.indices.l=0 "
     "counterexample.input='1·J(-1)|α⟩'"),
    ("j_defect", lambda jobs: fock.check_primary_field(2, 3, A, jobs),
     "FAIL primary-field alpha=1/2 max_index=2 max_level=3 checked_count=2 "
     "counterexample.actual='1·J(-2)J(-2)J(-1)|α⟩ + 2·J(-4)J(-1)|α⟩' "
     "counterexample.expected='2·J(-4)J(-1)|α⟩' "
     "counterexample.indices.k=-2 counterexample.indices.n=-2 "
     "counterexample.input='1·J(-1)|α⟩'"),
    ("j_defect", lambda jobs: fock.check_normal_pair_commutator(1, 0, 0, 3, A),
     "FAIL normal-pair-commutator alpha=1/2 k=0 m=0 max_level=3 n=1 checked_count=6 "
     "counterexample.actual='4·J(-1)J(-1)|α⟩ + 1·J(-2)|α⟩' counterexample.expected=0 "
     "counterexample.indices.k=0 counterexample.indices.m=0 counterexample.indices.n=1 "
     "counterexample.input='1·J(-2)J(-1)|α⟩'"),
    ("j_defect", lambda jobs: fock.sweep_normal_pair(1, 1, 3, A, jobs),
     "FAIL normal-pair-commutator alpha=1/2 max_index=1 max_k=1 max_level=3 checked_count=3 "
     "counterexample.actual='-3/2·J(-2)J(-1)J(-1)|α⟩' "
     "counterexample.expected='1/2·J(-2)J(-1)J(-1)|α⟩' "
     "counterexample.indices.k=-1 counterexample.indices.m=-1 counterexample.indices.n=-1 "
     "counterexample.input='1·J(-1)J(-1)|α⟩'"),
    ("j_defect", lambda jobs: fock.check_sugawara_commutator(2, 3, A, jobs),
     "FAIL sugawara-commutator alpha=1/2 max_index=2 max_level=3 checked_count=9 "
     "counterexample.actual='-3/2·J(-2)J(-1)J(-1)|α⟩ + -1/2·J(-3)J(-1)|α⟩ + -1·J(-4)|α⟩' "
     "counterexample.expected='-1·J(-2)J(-1)J(-1)|α⟩ + -1/2·J(-3)J(-1)|α⟩ + -1·J(-4)|α⟩' "
     "counterexample.indices.m=-1 counterexample.indices.n=-2 "
     "counterexample.input='1·J(-1)|α⟩'"),
    ("act_defect", lambda jobs: verma.check_verma_relations(2, 3, C, H, jobs),
     "FAIL verma-relations c=-22/5 h=-1/5 max_index=2 max_level=3 checked_count=15 "
     "counterexample.actual='-3·L(-2)|c,h⟩' counterexample.expected='-2·L(-2)|c,h⟩' "
     "counterexample.indices.m=0 counterexample.indices.n=-2 "
     "counterexample.input='1·|c,h⟩'"),
    ("act_defect", lambda jobs: verma.check_intertwining(A, 2, 3, jobs),
     "FAIL fock-verma-intertwining alpha=1/2 max_index=2 max_level=3 checked_count=18 "
     "counterexample.actual='25/16·J(-1)J(-1)|α⟩ + 25/16·J(-2)|α⟩' "
     "counterexample.expected='17/16·J(-1)J(-1)|α⟩ + 17/16·J(-2)|α⟩' "
     "counterexample.indices.a=0 counterexample.input='1·L(-2)|c,h⟩'"),
    ("j_defect", lambda jobs: verma.check_intertwining(A, 2, 3, jobs),
     "FAIL fock-verma-intertwining alpha=1/2 max_index=2 max_level=3 checked_count=7 "
     "counterexample.actual='1/2·J(-2)J(-1)J(-1)J(-1)|α⟩ + 1/2·J(-2)J(-2)J(-1)|α⟩ "
     "+ 1/4·J(-3)J(-1)J(-1)|α⟩ + 5/4·J(-3)J(-2)|α⟩ + 2·J(-4)J(-1)|α⟩ + 3/2·J(-5)|α⟩' "
     "counterexample.expected='1/2·J(-2)J(-1)J(-1)J(-1)|α⟩ + 3/2·J(-2)J(-2)J(-1)|α⟩ "
     "+ 1/4·J(-3)J(-1)J(-1)|α⟩ + 5/4·J(-3)J(-2)|α⟩ + 2·J(-4)J(-1)|α⟩ + 3/2·J(-5)|α⟩' "
     "counterexample.indices.a=-2 counterexample.input='1·L(-3)|c,h⟩'"),
    ("l_defect", lambda jobs: fock.check_sugawara_commutator(2, 3, A, jobs),
     "FAIL sugawara-commutator alpha=1/2 max_index=2 max_level=3 checked_count=9 "
     "counterexample.actual='1/2·J(-1)J(-1)J(-1)J(-1)|α⟩ + -1/2·J(-2)J(-1)J(-1)|α⟩ "
     "+ 3/2·J(-3)J(-1)|α⟩ + -1·J(-4)|α⟩' "
     "counterexample.expected='-1·J(-2)J(-1)J(-1)|α⟩ + -1/2·J(-3)J(-1)|α⟩ + -1·J(-4)|α⟩' "
     "counterexample.indices.m=-1 counterexample.indices.n=-2 "
     "counterexample.input='1·J(-1)|α⟩'"),
    ("l_defect", lambda jobs: fock.check_primary_field(2, 3, A, jobs),
     "FAIL primary-field alpha=1/2 max_index=2 max_level=3 checked_count=37 "
     "counterexample.actual='-1·J(-2)J(-1)J(-1)|α⟩ + 2·J(-3)J(-1)|α⟩' "
     "counterexample.expected='2·J(-3)J(-1)|α⟩' "
     "counterexample.indices.k=-2 counterexample.indices.n=-1 "
     "counterexample.input='1·J(-1)|α⟩'"),
    ("l_defect", lambda jobs: verma.check_intertwining(A, 2, 3, jobs),
     "FAIL fock-verma-intertwining alpha=1/2 max_index=2 max_level=3 checked_count=13 "
     "counterexample.actual='3/8·J(-1)J(-1)J(-1)J(-1)|α⟩ + 9/8·J(-2)J(-1)J(-1)|α⟩ "
     "+ 1/4·J(-2)J(-2)|α⟩ + 7/4·J(-3)J(-1)|α⟩ + 3/2·J(-4)|α⟩' "
     "counterexample.expected='1/8·J(-1)J(-1)J(-1)J(-1)|α⟩ + 7/8·J(-2)J(-1)J(-1)|α⟩ "
     "+ 1/4·J(-2)J(-2)|α⟩ + 3/4·J(-3)J(-1)|α⟩ + 3/2·J(-4)|α⟩' "
     "counterexample.indices.a=-1 counterexample.input='1·L(-2)L(-1)|c,h⟩'"),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("defect,run,expected", FAILURES,
                         ids=["heisenberg", "primary-field", "normal-pair-one",
                              "normal-pair-sweep", "sugawara", "verma-relations",
                              "intertwining-verma", "intertwining-fock", "sugawara-l-column",
                              "primary-field-l-column", "intertwining-l-column"])
def test_injected_defect_fails_with_exact_report(request, defect, run, expected, jobs):
    request.getfixturevalue(defect)
    assert run(jobs).to_text() == expected


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
