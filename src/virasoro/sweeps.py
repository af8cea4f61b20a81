"""The runner shared by the identity sweeps.

A sweep checks one identity on every start of a basis list (partitions of a
module up to a level bound, or the indices of a window) for each index
record.  The identity maps a record's indices to its two sides, each a list
of chain terms (coeff, (f_1, ..., f_k)) standing for the operator sum of
coeff * f_k...f_1, every f a cached basis column (see `core.chain_tables`).
`decide_record` decides a record in one pass: it applies lhs - rhs to every
start into the start's own integer table, and returns None for each start
that holds, up to and including the first start with a nonzero table, which
is rendered as the counterexample.  `run_sweep` chains these outcomes, in
canonical order (records as listed, then starts as listed), into
`reports.first_counterexample`, which counts them up to the first
counterexample.  A serial run decides no record after the failing one.  A
parallel run cancels only the chunks still waiting in its pool: the workers'
chunks and up to workers + 1 queued for them run on (60 of 81 records of
heisenberg 4/4 failing at record 4, on 2 workers), and the count ignores
their outcomes.  So reports are identical for any job count.
"""

from __future__ import annotations

import os
from contextlib import closing
from functools import partial
from itertools import chain, product

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


def decide_record(identity, starts, render, indices: dict) -> list:
    """The outcomes of one record, from one chain_tables pass of lhs - rhs over the starts.

    None for each start that holds, up to and including the first
    counterexample, render(indices, start, sides).
    """
    sides = identity(**indices)
    tables, _ = chain_tables(starts, sides[0] + [(-coeff, factors) for coeff, factors in sides[1]])
    for held, (start, table) in enumerate(zip(starts, tables)):
        if any(table.values()):
            return [None] * held + [render(indices, start, sides)]
    return [None] * len(tables)


def run_sweep(check_name: str, parameters: dict, identity, tasks: list[dict], starts,
              render, jobs: int) -> VerificationReport:
    """Check the sides identity(**indices) on every record and every start.

    render(indices, start, sides) gives the counterexample record of a start
    where the sides differ.  The identity and render must be picklable when
    more than one worker runs.
    """
    decide = partial(decide_record, identity, starts, render)
    workers = worker_count(jobs, len(tasks))
    if workers <= 1:
        return first_counterexample(check_name, parameters, chain.from_iterable(map(decide, tasks)))
    from concurrent.futures import ProcessPoolExecutor
    # Closing the result iterator cancels the chunks still waiting in the pool; the chunks
    # already taken or queued for the workers run on, and the count ignores their outcomes.
    with ProcessPoolExecutor(max_workers=workers) as pool, closing(pool.map(
            decide, tasks, chunksize=max(1, len(tasks) // (workers * 4)))) as records:
        return first_counterexample(check_name, parameters, chain.from_iterable(records))
