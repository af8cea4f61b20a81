"""The sweep runner: worker clamping, the record plan, and every partition sweep driven to FAIL.

Each injected defect corrupts one cached basis action: a J column, an L
column of the Fock module, or an L column of the highest-weight module.  The reports below are
the full first-counterexample records, and they must not depend on the job
count.
"""

import errno
import os
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import corrupted, reset_columns, swapped
from virasoro import fock, sweeps, verma, witt
from virasoro.core import Column, FreeVector, partitions_up_to
from virasoro.reports import first_counterexample

A = Fraction(1, 2)
C, H = Fraction(-22, 5), Fraction(-1, 5)


def broken_j():
    """J(0) on J(-2)J(-1)|α⟩ returns (α + 1) times it instead of α times it."""
    return corrupted(fock, "_j_basis", {(0, (2, 1)): FreeVector.basis((2, 1))})


def broken_l():
    """L(-1) on J(-1)|α⟩ picks up one extra J(-1)J(-1)|α⟩; the J columns are intact."""
    return corrupted(fock, "_sugawara_basis", {(-1, (1,)): FreeVector.basis((1, 1))})


def broken_act():
    """L(0) on L(-2)|c,h⟩ picks up one extra L(-2)|c,h⟩."""
    return corrupted(verma, "_act_basis", {(0, (2,)): FreeVector.basis((2,))})


@pytest.fixture
def j_defect():
    with broken_j():
        yield


def test_first_counterexample_counts_holding_outcomes_and_held_counts():
    """None is one instance that holds, an int n is n of them, and a dict is the counterexample."""
    def outcomes():
        yield from [None, 3, 0, None, 2, {"indices": {}}]
        raise AssertionError("read past the counterexample")

    report = first_counterexample("toy", {}, outcomes())
    assert (report.status, report.checked_count, report.counterexample) == ("fail", 8,
                                                                            {"indices": {}})
    assert first_counterexample("toy", {}, iter([4, 0, 5])) == ("toy", {}, "pass", 9, None)
    assert first_counterexample("toy", {}, iter([])) == ("toy", {}, "pass", 0, None)


@pytest.mark.parametrize("bad,outcomes", [(5, [0, {"start": 5}]), (7, [2, {"start": 7}]),
                                          (9, [4])])
def test_decide_record_counts_the_starts_before_the_failing_one(bad, outcomes):
    def identity(bad):  # lhs - rhs is e_bad on the start bad and zero on every other
        return [(1, (lambda a: FreeVector.basis(a, int(a == bad)),))], []

    def render(indices, start, sides):
        return {"start": start}

    assert sweeps.decide_record(identity, [5, 6, 7, 8], render, {"bad": bad}) == outcomes


FAILURES = [
    (broken_j, lambda jobs: fock.check_heisenberg_relations(2, 3, A, jobs),
     "FAIL heisenberg-relations alpha=1/2 max_index=2 max_level=3 checked_count=16 "
     "counterexample.actual='-1·J(-2)J(-1)|α⟩' counterexample.expected=0 "
     "counterexample.indices.k=-2 counterexample.indices.l=0 "
     "counterexample.input='1·J(-1)|α⟩'"),
    (broken_j, lambda jobs: fock.check_primary_field(2, 3, A, jobs),
     "FAIL primary-field alpha=1/2 max_index=2 max_level=3 checked_count=16 "
     "counterexample.actual='-1/2·J(-2)J(-1)|α⟩' counterexample.expected=0 "
     "counterexample.indices.k=0 counterexample.indices.n=-2 "
     "counterexample.input='1·J(-1)|α⟩'"),
    (broken_j, lambda jobs: fock.sweep_normal_pair(1, 1, 3, A, jobs),
     "FAIL normal-pair-commutator alpha=1/2 max_index=1 max_k=1 max_level=3 checked_count=3 "
     "counterexample.actual='-3/2·J(-2)J(-1)J(-1)|α⟩' "
     "counterexample.expected='1/2·J(-2)J(-1)J(-1)|α⟩' "
     "counterexample.indices.k=-1 counterexample.indices.m=-1 counterexample.indices.n=-1 "
     "counterexample.input='1·J(-1)J(-1)|α⟩'"),
    (broken_j, lambda jobs: fock.check_sugawara_commutator(2, 3, A, jobs),
     "FAIL sugawara-commutator alpha=1/2 max_index=2 max_level=3 checked_count=34 "
     "counterexample.actual='-14·J(-2)J(-1)|α⟩' counterexample.expected='-13·J(-2)J(-1)|α⟩' "
     "counterexample.indices.m=2 counterexample.indices.n=-2 "
     "counterexample.input='1·J(-2)J(-1)|α⟩'"),
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
    # This sweep reads J only inside L columns, and an L column reads the corrupted image only
    # as L(k) on a partition ending in k, 2, 1 with k >= 2, of level >= 5.  At max_level 3
    # and 4 none of the L columns it reads is corrupted and it passes, so it runs to level 5.
    (broken_j, lambda jobs: verma.check_intertwining(A, 2, 5, jobs),
     "FAIL fock-verma-intertwining alpha=1/2 max_index=2 max_level=5 checked_count=89 "
     "counterexample.actual='135/16·J(-1)J(-1)J(-1)|α⟩ + 405/8·J(-2)J(-1)|α⟩ "
     "+ 135/2·J(-3)|α⟩' "
     "counterexample.expected='135/16·J(-1)J(-1)J(-1)|α⟩ + 435/8·J(-2)J(-1)|α⟩ "
     "+ 135/2·J(-3)|α⟩' "
     "counterexample.indices.a=2 counterexample.input='1·L(-1)L(-1)L(-1)L(-1)L(-1)|c,h⟩'"),
    (broken_l, lambda jobs: fock.check_sugawara_commutator(2, 3, A, jobs),
     "FAIL sugawara-commutator alpha=1/2 max_index=2 max_level=3 checked_count=8 "
     "counterexample.actual='-1/2·J(-1)J(-1)J(-1)|α⟩ + -1·J(-2)J(-1)|α⟩ + -1/2·J(-3)|α⟩' "
     "counterexample.expected='-1·J(-2)J(-1)|α⟩ + -1/2·J(-3)|α⟩' "
     "counterexample.indices.m=-1 counterexample.indices.n=-2 "
     "counterexample.input='1·|α⟩'"),
    (broken_l, lambda jobs: fock.check_primary_field(2, 3, A, jobs),
     "FAIL primary-field alpha=1/2 max_index=2 max_level=3 checked_count=43 "
     "counterexample.actual='1·J(-1)J(-1)|α⟩ + 1·J(-2)|α⟩' "
     "counterexample.expected='1·J(-2)|α⟩' "
     "counterexample.indices.k=-1 counterexample.indices.n=-1 "
     "counterexample.input='1·|α⟩'"),
    (broken_l, lambda jobs: verma.check_intertwining(A, 2, 3, jobs),
     "FAIL fock-verma-intertwining alpha=1/2 max_index=2 max_level=3 checked_count=11 "
     "counterexample.actual='1/4·J(-1)J(-1)J(-1)|α⟩ + 5/4·J(-2)J(-1)|α⟩ + 1·J(-3)|α⟩' "
     "counterexample.expected='3/4·J(-1)J(-1)J(-1)|α⟩ + 5/4·J(-2)J(-1)|α⟩ + 1·J(-3)|α⟩' "
     "counterexample.indices.a=-1 counterexample.input='1·L(-2)|c,h⟩'"),
]


FAILURE_IDS = ["heisenberg", "primary-field", "normal-pair-sweep", "sugawara",
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

    The first sweep passes and fills the tables; conftest.corrupted resets them and swaps a
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
    every = verma.VermaVector(1, A * A / 2, dict.fromkeys(partitions_up_to(3), 1))
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


def test_serial_sweep_decides_no_record_after_its_first_failing_one(j_defect, monkeypatch):
    decided = []
    decide = sweeps.decide_record

    def counting(identity, starts, render, indices):
        decided.append(indices)
        return decide(identity, starts, render, indices)

    monkeypatch.setattr(sweeps, "decide_record", counting)
    report = fock.check_heisenberg_relations(2, 3, A, jobs=1)
    # the failing record (k, l) = (-2, 0) is the third of 25; (-2, -2) is formally zero
    assert report.counterexample["indices"] == {"k": "-2", "l": "0"}
    assert decided == [{"k": -2, "l": -1}, {"k": -2, "l": 0}]


def test_worker_count_is_one_without_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork", raising=False)
    assert sweeps.worker_count(8, 81) == 1


@pytest.fixture
def forks(monkeypatch):
    """The children forked while the test runs, on three usable CPUs."""
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", counting)
    return pids


class Broken(Exception):
    """A fault of the program, raised by a builder."""


def toy_sweep(jobs, failing=None, raising=None, records=12):
    """run_sweep over records 0..records - 1 on the starts 0..4, every record decided.

    Record r compares two tables of its own, which differ at start 3 of the failing record; the
    raising record's second table raises Broken when it builds start 3.  Its closures are never
    pickled: forked children inherit them.
    """
    def build(r, start):
        if r == raising and start == 3:
            raise Broken(r)
        return FreeVector.basis(start, 1 + (r == failing and start == 3))

    tables = [(Column(FreeVector.basis).__getitem__, Column(partial(build, r)).__getitem__)
              for r in range(records)]
    return sweeps.run_sweep("toy", {}, lambda r: ([(1, (tables[r][0],))], [(1, (tables[r][1],))]),
                            [{"r": r} for r in range(records)], range(5),
                            lambda indices, start, _: indices | {"start": start}, jobs)


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("failing", [None, 0, 1, 6, 10, 11])
def test_forked_sweep_reports_as_the_serial_one(forks, failing, jobs):
    serial = toy_sweep(1, failing)
    assert forks == []
    assert toy_sweep(jobs, failing) == serial
    assert len(forks) == jobs - 1
    if failing is None:
        assert (serial.status, serial.checked_count) == ("pass", 60)
    else:
        assert serial.counterexample == {"r": failing, "start": 3}
        assert serial.checked_count == 5 * failing + 4


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("raising", [0, 6, 11])
def test_forked_sweep_raises_a_builder_fault_as_the_serial_one(forks, raising, jobs):
    with pytest.raises(Broken):
        toy_sweep(1, raising=raising)
    with pytest.raises(Broken):
        toy_sweep(jobs, raising=raising)
    assert len(forks) == jobs - 1


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("failing,raising", [(2, 10), (6, 7), (0, 11)])
def test_forked_sweep_reports_a_failure_before_a_fault(forks, failing, raising, jobs):
    """The record after the failing one is never reached serially, so its fault is not raised."""
    serial = toy_sweep(1, failing, raising)
    assert serial.counterexample == {"r": failing, "start": 3}
    assert toy_sweep(jobs, failing, raising) == serial


def test_forked_child_stops_at_its_first_counterexample(forks, monkeypatch, tmp_path):
    """The child decides record 0, which fails, and no later one; this process waits for it."""
    log, decide = tmp_path / "decided", sweeps.decide_record

    def logging(identity, starts, render, indices):
        with open(log, "a", encoding="utf-8") as stream:
            stream.write(f"{os.getpid()} {indices['r']}\n")
        return decide(identity, starts, render, indices)

    monkeypatch.setattr(sweeps, "decide_record", logging)
    assert toy_sweep(2, failing=0).counterexample == {"r": 0, "start": 3}
    lines = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    assert [record for pid, record in lines if int(pid) == forks[0]] == ["0"]
    assert "0" not in [record for pid, record in lines if int(pid) == os.getpid()]


def test_builder_fault_in_a_module_sweep_raises_under_jobs(forks):
    original = fock._j_basis

    def build(index, start, *parameters):
        if index == 2:
            raise Broken(index)
        return original(index, start, *parameters)

    with swapped(fock, "_j_basis", build):
        for jobs in (1, 2):
            with pytest.raises(Broken):
                fock.check_heisenberg_relations(2, 3, A, jobs)
    assert len(forks) == 1


def test_forked_sweeps_leave_no_child(forks):
    assert toy_sweep(2).status == "pass"
    assert toy_sweep(2, failing=3).status == "fail"
    with pytest.raises(Broken):
        toy_sweep(2, raising=5)
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("refused", ["fork", "pipe"])
@pytest.mark.parametrize("failing,raising", [(None, None), (0, None), (6, None), (11, None),
                                             (None, 6)])
def test_refused_fork_leaves_the_unforked_records_to_this_process(forks, monkeypatch, refused,
                                                                 failing, raising):
    """The system refuses the second of two children: the first decides records 0..3, this
    process every other one, and the report, fds and children are those of a serial run."""
    if raising is None:
        serial = toy_sweep(1, failing)
    else:
        with pytest.raises(Broken):
            toy_sweep(1, raising=raising)
    calls, call = [], getattr(os, refused)

    def second_refused():
        calls.append(refused)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return call()

    monkeypatch.setattr(os, refused, second_refused)
    fds = sorted(os.listdir("/proc/self/fd"))
    if raising is None:
        assert toy_sweep(3, failing) == serial
    else:
        with pytest.raises(Broken):
            toy_sweep(3, raising=raising)
    assert len(calls) == 2 and len(forks) == 1
    assert sorted(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_task_sweep_forks_no_child(forks):
    report = fock.sweep_normal_pair(0, 0, 2, A, jobs=10**6)
    assert report.status == "pass"
    assert report.checked_count == len(partitions_up_to(2))
    # the one record (k, l) = (0, 0) is formally zero, so no record is decided
    report = fock.check_heisenberg_relations(0, 2, A, jobs=10**6)
    assert report.status == "pass"
    assert report.checked_count == len(partitions_up_to(2))
    assert forks == []


def test_serial_sweep_builds_each_record_once(monkeypatch):
    """The plan and the serial decisions share one build of each record's sides."""
    calls = Counter()

    def counted(name, identity):
        def counting(*args, **indices):
            calls[name] += 1
            return identity(*args, **indices)
        return counting

    monkeypatch.setattr(fock, "_normal_pair_commutator",
                        counted("normal-pair", fock._normal_pair_commutator))
    jacobi = witt.jacobi_identity
    monkeypatch.setattr(witt, "jacobi_identity", lambda pair: counted("witt", jacobi(pair)))
    assert fock.sweep_normal_pair(4, 4, 5, A).passed()
    assert witt.jacobi_basis_sweep(3).passed()
    # 9^3 normal-pair records, 477 of them decided; 7^2 Jacobi records, every one decided
    assert calls == {"normal-pair": 729, "witt": 49}


@pytest.fixture
def decided(monkeypatch):
    """The indices of every record handed to sweeps.decide_record, in order."""
    handed = []
    decide = sweeps.decide_record

    def counting(identity, starts, render, indices):
        handed.append(indices)
        return decide(identity, starts, render, indices)

    monkeypatch.setattr(sweeps, "decide_record", counting)
    return handed


# (sweep at a benchmark size, its max_level, records decided, records): [L(n), L(m)] and
# [J(k), J(l)] decide one record of each pair {(n, m), (m, n)} with n != m, and normal-pair
# one of each pair {k, m - k}; the primary field and the intertwining repeat no defect.
PLANNED = {
    "sugawara": (lambda: fock.check_sugawara_commutator(6, 8, A), 8, 78, 169),
    "heisenberg": (lambda: fock.check_heisenberg_relations(8, 8, A), 8, 136, 289),
    "normal-pair": (lambda: fock.sweep_normal_pair(4, 4, 5, A), 5, 477, 729),
    "verma": (lambda: verma.check_verma_relations(5, 6, C, H), 6, 55, 121),
    "primary-field": (lambda: fock.check_primary_field(6, 6, A), 6, 169, 169),
    "intertwine": (lambda: verma.check_intertwining(A, 4, 5), 5, 9, 9),
}


@pytest.mark.parametrize("case", PLANNED)
def test_sweep_decides_each_distinct_formal_defect_once(case, decided):
    run, max_level, decisions, records = PLANNED[case]
    report = run()
    assert report.status == "pass"
    assert report.checked_count == records * len(partitions_up_to(max_level))
    assert len(decided) == decisions


def _synthetic(records):
    """run_sweep over the starts -2..2, record r having the sides records[r].

    f and g are two tables of the same columns, with f(0) = 0, so [(1, "f")] against
    [(1, "g")] holds; f and g differ as chains, as a defect in one of two builders would make
    them.  A failing start is rendered as its record and start.
    """
    f, g = (Column(lambda start: FreeVector.basis(start + 1, start)).__getitem__ for _ in "fg")
    sides = [tuple([(coeff, tuple({"f": f, "g": g}[name] for name in chain))
                    for coeff, chain in side] for side in record) for record in records]
    return sweeps.run_sweep("synthetic", {}, lambda r: sides[r],
                            [{"r": r} for r in range(len(records))], range(-2, 3),
                            lambda indices, start, _: indices | {"start": start}, 1)


# records, the records decided, and the report's counterexample (None: every record holds)
SYNTHETIC = {
    "zero": ([([(1, "f")], [(1, "f")]), ([(1, "f"), (-1, "f")], []), ([(0, "fg")], [])],
             [], None),
    "equal": ([([(1, "f")], [(1, "g")]), ([(1, "f"), (0, "")], [(1, "g")])], [0], None),
    "negated": ([([(1, "f")], [(1, "g")]), ([(1, "g")], [(1, "f")]),
                 ([(-1, "f")], [(-1, "g")])], [0], None),
    "other coefficients": ([([(1, "f")], [(1, "g")]), ([(2, "f")], [(2, "g")])], [0, 1], None),
    "partly negated": ([([(1, "f")], [(1, "g")]), ([(-1, "f")], [(1, "g")])], [0, 1],
                       {"r": 1, "start": -2}),
    "other order": ([([(1, "fg")], [(1, "gf")]), ([(1, "gf")], [(1, "fg")]),
                     ([(1, "fg")], [(1, "gf"), (0, "f")])], [0], None),
    # the same set of terms as record 0, and as a set of terms the sides of record 2 agree
    "repeated term": ([([(1, "f")], [(1, "g")]), ([(1, "f"), (1, "f")], [(1, "g"), (1, "g")]),
                       ([(1, "f"), (1, "f")], [(1, "f")])], [0, 1, 2], {"r": 2, "start": -2}),
}


@pytest.mark.parametrize("case", SYNTHETIC)
def test_plan_decides_only_new_nonzero_formal_sums(case, decided):
    """Every record counts; a zero, equal or negated formal lhs - rhs is not decided."""
    records, decisions, found = SYNTHETIC[case]
    report = _synthetic(records)
    assert report.counterexample == found
    assert report.checked_count == 5 * len(records) - 4 * (found is not None)
    assert decided == [{"r": r} for r in decisions]


SWEEPS = {
    "_j_basis": [lambda jobs: fock.check_heisenberg_relations(2, 3, A, jobs),
                 lambda jobs: fock.sweep_normal_pair(1, 1, 3, A, jobs),
                 lambda jobs: fock.check_sugawara_commutator(2, 3, A, jobs)],
    "_sugawara_basis": [lambda jobs: fock.check_sugawara_commutator(2, 3, A, jobs),
                        lambda jobs: fock.check_primary_field(2, 3, A, jobs),
                        lambda jobs: verma.check_intertwining(A, 2, 3, jobs)],
    "_act_basis": [lambda jobs: verma.check_verma_relations(2, 3, C, H, jobs),
                   lambda jobs: verma.check_intertwining(A, 2, 3, jobs)],
}


def every_record(check_name, parameters, identity, tasks, starts, render, jobs):
    """run_sweep without the plan: every record decided, serially."""
    decide = partial(sweeps.decide_record, identity, starts, render)
    return first_counterexample(check_name, parameters, chain.from_iterable(map(decide, tasks)))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(SWEEPS)),
       defects=st.dictionaries(st.tuples(st.integers(-4, 4), st.sampled_from(
           partitions_up_to(3))), st.tuples(st.sampled_from(partitions_up_to(4)),
                                             st.integers(-2, 2)), max_size=3))
def test_planned_sweep_reports_as_deciding_every_record(data, name, defects):
    run = data.draw(st.sampled_from(SWEEPS[name]))
    module = verma if name == "_act_basis" else fock
    vectors = {key: FreeVector.basis(*value) for key, value in defects.items()}
    with corrupted(module, name, vectors), pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweeps, "run_sweep", every_record)
        reference = run(1)
        patch.undo()
        event(f"reference {reference.status}")
        assert run(1) == reference
        assert run(2) == reference


def _shared_prefix_sweep(sweep, jobs):
    """A sweep over the starts 0..4 whose records share the prefix f under coefficients 2 and -3.

    Record r compares coeff * f then g against the one column fg = g∘f, or against bad, which
    differs from fg at start 3; record 0 writes its right side 2 fg as fg + fg, record 3
    repeats record 0, and record 2 fails first.
    """
    f = Column(lambda start: FreeVector.basis(start + 1, Fraction(1, 2))).__getitem__
    g = Column(lambda start: FreeVector.basis(2 * start, 3)).__getitem__
    fg, bad = (Column(lambda start, extra=extra: FreeVector.basis(
        2 * start + 2, Fraction(3, 2) + extra * (start == 3))).__getitem__ for extra in (0, 1))
    records = [(2, [(1, fg), (1, fg)]), (-3, [(-3, fg)]), (-3, [(-3, bad)]),
               (2, [(1, fg), (1, fg)]), (2, [(2, bad)])]

    def identity(r):
        coeff, rhs = records[r]
        return [(coeff, (f, g))], [(c, (column,)) for c, column in rhs]

    return sweep("shared-prefix", {}, identity, [{"r": r} for r in range(len(records))],
                 range(5), lambda indices, start, _: indices | {"start": start}, jobs)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_shared_prefix_sweep_reports_as_without_a_memo(forks, jobs):
    reference = _shared_prefix_sweep(every_record, 1)
    assert (reference.counterexample, reference.checked_count) == ({"r": 2, "start": 3}, 14)
    assert _shared_prefix_sweep(sweeps.run_sweep, jobs) == reference


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_prefix_memo_lives_for_one_sweep(forks, monkeypatch, tmp_path, jobs):
    """Each run_sweep call has its own memo, which every process deciding its records first
    reads empty, so a builder swapped between sweeps meets no paths of the last one: the sweep
    passes, fails with its pinned report, and passes again.  The forked children log their
    calls too."""
    log, sweep, kept, chain_tables = tmp_path / "calls", [0], [], sweeps.chain_tables

    def seen(starts, terms, memo=None):  # each call's sweep, process, memo and the memo's size
        kept.append(memo)  # alive to the end, so no later memo takes its id
        with open(log, "a") as out:
            out.write(f"{sweep[0]} {os.getpid()} {id(memo)} {len(memo)}\n")
        return chain_tables(starts, terms, memo)

    monkeypatch.setattr(sweeps, "chain_tables", seen)
    defect, run, expected = dict(zip(FAILURE_IDS, FAILURES))["normal-pair-sweep"]
    reset_columns()
    assert run(jobs).status == "pass"
    sweep[0] = 1
    with defect():
        assert run(jobs).to_text() == expected
    sweep[0] = 2
    assert run(jobs).status == "pass"
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    first = {}
    for number, pid, _, size in calls:
        first.setdefault((number, pid), size)
    assert set(first.values()) == {0}
    assert len({(number, memo) for number, _, memo, _ in calls}) == 3
    assert len({memo for _, _, memo, _ in calls}) == 3
    processes = {pid for _, pid, _, _ in calls}
    assert processes <= {os.getpid(), *forks}
    assert (len(processes) > 1) == (jobs > 1)
