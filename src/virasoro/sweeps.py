"""The runner shared by the identity sweeps over partition-graded modules.

A sweep checks one identity on every basis vector of a module up to a level
bound, for each index record of a window.  The identity is a function
(indices..., v) -> (lhs, rhs) of one basis vector v; the first vector where
the two sides differ, in canonical order (index records as listed, then
partitions by level and lexicographically), is the counterexample.  Serial
runs stop at the first failing record; parallel runs compute records
independently and merge in canonical order, so reports are identical for any
job count.
"""

from __future__ import annotations

import os
from itertools import product

from .core import FreeVector, ModuleVector, partitions_up_to
from .reports import VerificationReport, counterexample, failing, passing


def index_grid(**bounds) -> list[dict]:
    """One index record per point with |index| <= bound, in lexicographic order."""
    ranges = (range(-bound, bound + 1) for bound in bounds.values())
    return [dict(zip(bounds, point)) for point in product(*ranges)]


def worker_count(jobs: int, task_count: int) -> int:
    """Worker processes for a sweep: at most the request, the CPUs and the tasks.

    A process pool starts all of its workers at the first submission, so an
    unclamped request would start that many processes.
    """
    return min(jobs, os.cpu_count() or 1, task_count)


def _sweep_task(task):
    identity, indices, unit, max_level = task
    count = 0
    for partition in partitions_up_to(max_level):
        count += 1
        v = unit.with_terms(FreeVector.basis(partition))
        lhs, rhs = identity(**indices, v=v)
        if lhs != rhs:
            return counterexample(indices, expected=str(rhs), actual=str(lhs),
                                  input_text=str(v)), count
    return None, count


def run_sweep(check_name: str, parameters: dict, identity, tasks: list[dict],
              unit: ModuleVector, max_level: int, jobs: int) -> VerificationReport:
    """Check identity(**indices, v=v) for every record and every basis vector v.

    The basis vectors are those of unit's module up to max_level.  The
    identity must be picklable when more than one worker runs.
    """
    work = [(identity, indices, unit, max_level) for indices in tasks]
    workers = worker_count(jobs, len(work))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task, work,
                                    chunksize=max(1, len(work) // (workers * 4))))
    else:
        results = []
        for task in work:
            results.append(_sweep_task(task))
            if results[-1][0] is not None:
                break
    checked = 0
    for found, count in results:
        checked += count
        if found is not None:
            return failing(check_name, parameters, checked, found)
    return passing(check_name, parameters, checked)
