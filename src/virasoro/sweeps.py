"""The runner shared by the identity sweeps.

A sweep checks one identity on every start of a basis list (partitions of a
module up to a level bound, or the indices of a window) for each index
record.  The identity maps a record's indices to its two sides, each a list
of chain terms (coeff, (f_1, ..., f_k)) standing for the operator sum of
coeff * f_k...f_1, every f a cached basis column (see `core.chain_tables`).
One pass decides a record: it applies lhs - rhs to every start into the
start's own integer table, and the first start with a nonzero table, in
canonical order (records as listed, then starts as listed), is rendered as
the counterexample.  Each record gets its own report; the sweep's report
adds their counts up to the earliest failing record.  A serial run starts
no record after that one.  A parallel run cancels only the chunks still
waiting in its pool: the workers' chunks and up to workers + 1 queued for
them run on (60 of 81 records of heisenberg 4/4 failing at record 4, on 2
workers).  Records are independent and the merge stops at the earliest
failing one, so reports are identical for any job count.
"""

from __future__ import annotations

import os
from contextlib import closing
from itertools import product

from .core import ModuleVector, apply, chain_tables
from .reports import VerificationReport, counterexample, first_counterexample


def index_grid(**bounds) -> list[dict]:
    """One index record per point with |index| <= bound, in lexicographic order."""
    ranges = (range(-bound, bound + 1) for bound in bounds.values())
    return [dict(zip(bounds, point)) for point in product(*ranges)]


def worker_count(jobs: int, task_count: int) -> int:
    """Worker processes for a sweep: at most the request, the usable CPUs and the tasks.

    A process pool starts all of its workers at the first submission, so an
    unclamped request would start that many processes.  The usable CPUs are
    those this process may run on, which an affinity mask can make fewer
    than the machine has.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, cpus, task_count)


def module_counterexample(unit: ModuleVector, target: ModuleVector, indices: dict,
                          partition, sides) -> dict:
    """The two sides applied to the basis vector partition of unit's module, into target's."""
    vector = type(unit).basis(partition, module=unit.module)
    lhs, rhs = (apply(side, vector, target) for side in sides)
    return counterexample(indices, expected=str(rhs), actual=str(lhs), input_text=str(vector))


def _sweep_task(task) -> VerificationReport:
    check_name, parameters, identity, indices, starts, render = task
    sides = identity(**indices)
    tables, _ = chain_tables(starts, sides[0] + [(-coeff, chain) for coeff, chain in sides[1]])
    return first_counterexample(check_name, parameters, (
        render(indices, start, sides) if any(table.values()) else None
        for start, table in zip(starts, tables)))


def _merge(report: VerificationReport, records) -> VerificationReport:
    """Add the records' counts to report's, up to and including the first failing one."""
    for record in records:
        report = record._replace(checked_count=report.checked_count + record.checked_count)
        if not record.passed():
            break
    return report


def run_sweep(check_name: str, parameters: dict, identity, tasks: list[dict], starts,
              render, jobs: int) -> VerificationReport:
    """Check the sides identity(**indices) on every record and every start.

    render(indices, start, sides) gives the counterexample record of a start
    where the sides differ.  The identity and render must be picklable when
    more than one worker runs.
    """
    work = [(check_name, parameters, identity, indices, starts, render) for indices in tasks]
    empty = first_counterexample(check_name, parameters, ())
    workers = worker_count(jobs, len(work))
    if workers <= 1:
        return _merge(empty, map(_sweep_task, work))
    from concurrent.futures import ProcessPoolExecutor
    # Closing the result iterator cancels the chunks still waiting in the pool; the chunks
    # already taken or queued for the workers run on, and the merge ignores their reports.
    with ProcessPoolExecutor(max_workers=workers) as pool, closing(pool.map(
            _sweep_task, work, chunksize=max(1, len(work) // (workers * 4)))) as records:
        return _merge(empty, records)
