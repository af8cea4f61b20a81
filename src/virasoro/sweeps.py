"""The runner shared by the identity sweeps.

A sweep checks one identity on every start of a basis list (partitions of a
module up to a level bound, or the indices of a window) for each index record.
The identity maps a record's indices to its two sides, each a list of chain
terms (coeff, (f_1, ..., f_k)) standing for the operator sum of coeff *
f_k...f_1, every f a cached basis column (see `core.chain_tables`).  `plan`
picks the records whose formal defect is new and `decide_record` decides one in
a single pass; `run_sweep` chains their outcomes and each other record's count
of starts in canonical order (records, then starts) into
`reports.first_counterexample`, which counts them up to the first
counterexample, serially or, under --jobs, through `forked_outcomes`.  A serial
run decides no record after the failing one, and reports are identical for any
job count.
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
    """Processes for a sweep: at most the request, the usable CPUs and the tasks.

    Each process past the first is a child forked as the sweep starts; without os.fork
    (Windows) a sweep runs serially.  The usable CPUs are those this process may run on,
    which an affinity mask can make fewer than the machine has.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, cpus if hasattr(os, "fork") else 1, task_count)


def module_counterexample(unit: ModuleVector, target: ModuleVector, indices: dict,
                          partition, sides) -> dict:
    """The two sides applied to the basis vector partition of unit's module, into target's."""
    vector = type(unit).basis(partition, module=unit.module)
    lhs, rhs = (apply(side, vector, target) for side in sides)
    return counterexample(indices, expected=str(rhs), actual=str(lhs), input=str(vector))


def decide_record(identity, starts, render, indices: dict) -> list:
    """The outcomes of one record, from one chain_tables pass of lhs - rhs over the starts.

    [held, render(indices, start, sides)] when the first failing start comes after held
    starts that hold, else [len(starts)].
    """
    sides = identity(**indices)
    tables, _ = chain_tables(starts, sides[0] + [(-coeff, factors) for coeff, factors in sides[1]])
    for held, (start, table) in enumerate(zip(starts, tables)):
        if any(table.values()):
            return [held, render(indices, start, sides)]
    return [len(starts)]


def plan(identity, tasks: list[dict]) -> list[bool]:
    """Per record, whether to decide it: the set of nonzero (chain, coeff) terms of its formal
    lhs - rhs is nonempty, and neither it nor its negation is an earlier record's set.

    Equal sums give equal tables, so every other record holds unless an earlier one has
    failed; the antisymmetric [L(n), L(m)] and [J(k), J(l)] repeat each defect negated.
    """
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


def forked_outcomes(decide, work: list, workers: int):
    """decide(record) for each record of work in order, shared with workers - 1 forked children.

    Child j decides work from n * j // workers up to the next child's start, front to back, up
    to its first counterexample, and pipes each outcome as a length-prefixed marshal frame.
    While the next outcome is unknown and no frame waits, this process decides the last record
    neither known nor a live child's current one, and keeps its exception for that record's
    turn.  Closing the generator kills and reaps the children.
    """
    import marshal
    import select
    from signal import SIGKILL
    outcomes, children, poller = [None] * len(work), {}, select.poll()
    bounds = [len(work) * j // workers for j in range(workers - 1)] + [len(work)]
    try:
        for start, end in zip(bounds, bounds[1:]):
            read, write = os.pipe()
            pid = os.fork()
            if not pid:
                try:
                    for outcome in map(decide, work[start:end]):
                        frame = marshal.dumps(outcome)
                        os.write(write, len(frame).to_bytes(4, "big") + frame)
                        if len(outcome) > 1:  # a counterexample: no later record counts
                            break
                finally:
                    os._exit(0)
            os.close(write)
            children[read] = [start, b"", pid]  # the next record it sends, its unread bytes
            poller.register(read, select.POLLIN)
        top = len(work) - 1  # the records past top are known
        for turn in range(len(work)):
            while outcomes[turn] is None:
                top = next(index for index in range(top, turn - 1, -1) if outcomes[index] is None)
                current = {child[0] for child in children.values()}
                back = next((index for index in range(top, turn - 1, -1)
                             if outcomes[index] is None and index not in current), None)
                ready = poller.poll(None if back is None else 0)
                if not ready:
                    try:
                        outcomes[back] = decide(work[back])
                    except Exception as exc:
                        outcomes[back] = exc
                for fd, _ in ready:
                    child, chunk = children[fd], os.read(fd, 1 << 16)
                    child[1] += chunk
                    while len(child[1]) >= 4 + (size := int.from_bytes(child[1][:4], "big")):
                        outcomes[child[0]] = marshal.loads(child[1][4:4 + size])
                        child[0], child[1] = child[0] + 1, child[1][4 + size:]
                    if not chunk:  # it has ended, and what it did not send is ours
                        poller.unregister(fd)
                        child[0] = -1
            if isinstance(outcomes[turn], Exception):
                raise outcomes[turn]
            yield outcomes[turn]
    finally:
        for fd, (*_, pid) in children.items():
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


def run_sweep(check_name: str, parameters: dict, identity, tasks: list[dict], starts,
              render, jobs: int) -> VerificationReport:
    """Check the sides identity(**indices) on every record and every start.

    render(indices, start, sides) gives the counterexample record of a start
    where the sides differ.  Forked children inherit the memoized sides, so
    neither the identity nor render is ever pickled.
    """
    built = lru_cache(maxsize=None)(identity)  # one build per record, for the plan and decisions
    decided, held = plan(built, tasks), [len(starts)]
    work = list(compress(tasks, decided))
    decide, workers = partial(decide_record, built, starts, render), worker_count(jobs, len(work))
    with closing((decide(record) for record in work) if workers <= 1
                 else forked_outcomes(decide, work, workers)) as outcomes:
        return first_counterexample(check_name, parameters, chain.from_iterable(
            next(outcomes) if new else held for new in decided))


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
