"""The runner shared by the identity sweeps over partition-graded modules.

A sweep checks one identity on every basis vector of a module up to a level
bound, for each index record of a window.  The identity maps a record's
indices to its two sides, each a list of chain terms (coeff, (f_1, ..., f_k))
standing for the operator sum of coeff * f_k...f_1, every f a cached basis
column (see `core.chain_tables`).  One pass decides a record: it applies
lhs - rhs to every basis vector e of the window into e's own integer table.
Only where that defect is nonzero are the two sides applied to e by
`core.apply` and rendered for the report.  The first vector where the sides
differ, in canonical order (index records as listed, then partitions by
level and lexicographically), is the counterexample.  Each record gets its
own report; the sweep's report adds their counts up to the earliest failing
record.  A serial run starts no record after that one, and a parallel run
cancels the records no worker has taken yet.  Workers compute records
independently, so reports are identical for any job count.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import replace
from itertools import product

from .core import ModuleVector, apply, chain_tables, partitions_up_to
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


def _sweep_task(task) -> VerificationReport:
    check_name, parameters, identity, indices, unit, target, max_level = task
    sides = identity(**indices)
    defect = sides[0] + [(-coeff, chain) for coeff, chain in sides[1]]
    partitions = partitions_up_to(max_level)
    tables, _ = chain_tables(partitions, defect)

    def outcome(partition, table):
        if not any(table.values()):
            return None
        vector = type(unit).basis(partition, module=unit.module)
        lhs, rhs = (apply(side, vector, target) for side in sides)
        return counterexample(indices, expected=str(rhs), actual=str(lhs), input_text=str(vector))

    return first_counterexample(check_name, parameters, map(outcome, partitions, tables))


def _merge(report: VerificationReport, records) -> VerificationReport:
    """Add the records' counts to report's, up to and including the first failing one."""
    for record in records:
        report = replace(record, checked_count=report.checked_count + record.checked_count)
        if not record.passed():
            break
    return report


def run_sweep(check_name: str, parameters: dict, identity, tasks: list[dict],
              unit: ModuleVector, max_level: int, jobs: int,
              target: ModuleVector | None = None) -> VerificationReport:
    """Check the sides identity(**indices) on every record and every basis vector.

    The basis vectors are those of unit's module up to max_level; the two
    sides are rendered as vectors of target's module, unit's by default.
    The identity must be picklable when more than one worker runs.
    """
    target = unit if target is None else target
    work = [(check_name, parameters, identity, indices, unit, target, max_level)
            for indices in tasks]
    empty = first_counterexample(check_name, parameters, ())
    workers = worker_count(jobs, len(work))
    if workers <= 1:
        return _merge(empty, map(_sweep_task, work))
    from concurrent.futures import ProcessPoolExecutor
    # Closing the result iterator cancels the chunks that have not started.
    with ProcessPoolExecutor(max_workers=workers) as pool, closing(pool.map(
            _sweep_task, work, chunksize=max(1, len(work) // (workers * 4)))) as records:
        return _merge(empty, records)
