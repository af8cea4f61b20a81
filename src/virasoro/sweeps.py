"""The runner shared by the identity sweeps.

A sweep checks one identity on every start of a basis list (partitions of a
module up to a level bound, or the indices of a window) for each index record.
The identity maps a record's indices to its two sides, each a list of chain
terms (coeff, (f_1, ..., f_k)) standing for the operator sum of coeff *
f_k...f_1, every f a cached basis column (see `core.chain_tables`).  `plan`
writes a record's formal sum lhs - rhs as the set of its nonzero (chain, coeff)
terms and marks the record decided only if that set is nonempty and neither an
earlier record's set nor its negation, as the antisymmetric [L(n), L(m)] and
[J(k), J(l)] repeat each defect negated: equal sums give equal tables, so every
other record holds unless an earlier one has failed.  `decide_record` decides a
record in one pass: it applies lhs - rhs to every start into the start's own
integer table, and returns None for each start that holds, up to and including
the first start with a nonzero table, which is rendered as the counterexample.
The plan and the serial decisions share one build of each record's sides; pool
workers get the bare identity and rebuild a record's sides from its indices.
`run_sweep` chains these outcomes and the held records' in canonical order
(records, then starts) into `reports.first_counterexample`, which counts them
up to the first counterexample.  A serial run decides no record after the
failing one.  A parallel run cancels only the chunks still waiting in its pool:
the workers' chunks and up to workers + 1 queued for them run on (16 to 36 of
the 36 decided records of heisenberg 4/4 failing at record 4, on 2 workers),
and the count ignores their outcomes.  Reports are identical for any job count.
"""

from __future__ import annotations

import os
from contextlib import closing
from functools import lru_cache, partial
from itertools import chain, compress, product

from .core import ModuleVector, apply, as_pair, chain_tables, format_scalar, partitions_up_to
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
    return counterexample(indices, expected=str(rhs), actual=str(lhs), input=str(vector))


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


def plan(identity, tasks: list[dict]) -> list[bool]:
    """Per record, whether to decide it: the set of nonzero (chain, coeff) terms of its formal
    lhs - rhs is nonempty, and neither it nor its negation is an earlier record's set."""
    seen, decided = set(), []
    for indices in tasks:
        lhs, rhs = identity(**indices)
        formal = {}
        for coeff, factors in lhs + [(-coeff, factors) for coeff, factors in rhs]:
            formal[factors] = formal.get(factors, 0) + coeff
        terms = frozenset((factors, coeff) for factors, coeff in formal.items() if coeff)
        negated = frozenset((factors, -coeff) for factors, coeff in terms)
        decided.append(bool(terms) and terms not in seen and negated not in seen)
        seen.add(terms)
    return decided


def run_sweep(check_name: str, parameters: dict, identity, tasks: list[dict], starts,
              render, jobs: int) -> VerificationReport:
    """Check the sides identity(**indices) on every record and every start.

    render(indices, start, sides) gives the counterexample record of a start
    where the sides differ.  The identity and render must be picklable when
    more than one worker runs.
    """
    built = lru_cache(maxsize=None)(identity)  # for the plan and serial decisions; not picklable
    decided, held = plan(built, tasks), [None] * len(starts)
    work = list(compress(tasks, decided))

    def merged(outcomes):  # the decided records' outcomes, each other record's as held
        return chain.from_iterable(next(outcomes) if new else held for new in decided)

    workers = worker_count(jobs, len(work))
    decide = partial(decide_record, built if workers <= 1 else identity, starts, render)
    if workers <= 1:
        return first_counterexample(check_name, parameters, merged(map(decide, work)))
    from concurrent.futures import ProcessPoolExecutor
    # Closing the result iterator cancels the chunks still waiting in the pool; the chunks
    # already taken or queued for the workers run on, and the count ignores their outcomes.
    with ProcessPoolExecutor(max_workers=workers) as pool, closing(pool.map(
            decide, work, chunksize=max(1, len(work) // (workers * 4)))) as records:
        return first_counterexample(check_name, parameters, merged(records))


def module_sweep(check_name: str, parameters: dict, identity, tasks: list[dict], max_level: int,
                 unit: ModuleVector, jobs: int,
                 target: ModuleVector | None = None) -> VerificationReport:
    """run_sweep on the partitions up to max_level of unit's module, mapped into target's.

    target defaults to unit.  The report gains max_level and target's module parameters, and
    identity takes their (numerator, denominator) pairs first, as column keys.
    """
    target = unit if target is None else target
    fields = dict(zip(target.parameters, map(format_scalar, target.module)))
    return run_sweep(check_name, parameters | fields | {"max_level": str(max_level)},
                     partial(identity, *map(as_pair, target.module)), tasks,
                     partitions_up_to(max_level), partial(module_counterexample, unit, target),
                     jobs)
