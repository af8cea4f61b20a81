"""The chain kernel core.chain_tables against the vector path and the oracles.

The module sweeps decide each record on one chain_tables pass over its
partitions.  Here chain_tables is checked against a per-start Fraction
reference, and every chain of operator columns is also applied one vector
at a time (j_action, sugawara_l, normal_pair, l_action) and by the
word-rewriting oracles; and whole sweeps, with one cached column corrupted
at random, are rerun as the vector path would run them, instance by
instance.  The vector operators apply the same chains through core.apply,
so the word-rewriting oracles are the independent check; core.apply itself
is checked against one-start chain_tables passes summed in Fraction
arithmetic.
"""

from contextlib import ExitStack
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from conftest import corrupted
from virasoro import fock, verma
from virasoro.core import FreeVector, apply, as_pair, chain_tables, partitions_up_to
from virasoro.reports import counterexample
from virasoro.sweeps import index_grid

# Denominators 1 to 7, zero and negatives.
exact = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7))
nonzero = st.builds(Fraction, st.integers(1, 7) | st.integers(-7, -1), st.integers(1, 7))
small = st.integers(-3, 3)
basis_partitions = st.sampled_from(partitions_up_to(3))
fock_ops = st.one_of(st.tuples(st.just("J"), small), st.tuples(st.just("L"), small),
                     st.tuples(st.just("P"), small, small))


def _fock_factors(op, alpha):
    """The columns of one operator, first acting first; P(k, l) is :J(k)J(l):."""
    key = as_pair(alpha)
    if op[0] == "J":
        return (fock.j_column(op[1], key),)
    if op[0] == "L":
        return (fock.sugawara_column(op[1], key),)
    return fock.j_column(max(op[1:]), key), fock.j_column(min(op[1:]), key)


def _fock_vector_step(op, v):
    if op[0] == "J":
        return fock.j_action(op[1], v)
    if op[0] == "L":
        return fock.sugawara_l(op[1], v)
    return fock.normal_pair(op[1], op[2], v)


def _fock_oracle_step(op, partition, alpha):
    if op[0] == "J":
        return oracles.fock_word_action((op[1],), partition, alpha)
    if op[0] == "L":
        return oracles.fock_sugawara(op[1], partition, alpha)
    return oracles.fock_word_action(tuple(sorted(op[1:])), partition, alpha)


def _oracle_chain(step, partition, ops):
    current = {partition: Fraction(1)}
    for op in ops:
        following = {}
        for middle, coeff in current.items():
            for part, value in step(op, middle).items():
                following[part] = following.get(part, 0) + coeff * value
        current = {part: value for part, value in following.items() if value}
    return current


def _combined(terms_values):
    total = {}
    for coeff, values in terms_values:
        for part, value in values.items():
            total[part] = total.get(part, 0) + coeff * value
    return {part: value for part, value in total.items() if value}


def _kernel(partition, terms):
    (table,), den = chain_tables((partition,), terms)
    return dict(FreeVector._reduce(table, den).items())


terms_of = st.lists(st.tuples(exact, st.lists(fock_ops, max_size=3)), min_size=1, max_size=3)
words_of = st.lists(st.tuples(exact, st.lists(small, max_size=3)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(alpha=exact, partition=basis_partitions, terms=terms_of)
def test_fock_chains_match_vector_path_and_oracle(alpha, partition, terms):
    kernel = _kernel(partition, [(coeff, sum((_fock_factors(op, alpha) for op in ops), ()))
                                 for coeff, ops in terms])
    vectors = []
    for coeff, ops in terms:
        v = fock.basis(alpha, partition)
        for op in ops:
            v = _fock_vector_step(op, v)
        vectors.append((coeff, v))
    assert kernel == dict(fock.FockVector.linear_combination(vectors, (alpha,)).items())
    assert kernel == _combined(
        [(coeff, _oracle_chain(lambda op, p: _fock_oracle_step(op, p, alpha), partition, ops))
         for coeff, ops in terms])


@settings(max_examples=60, deadline=None)
@given(c=exact, h=exact, partition=basis_partitions, terms=words_of)
def test_verma_chains_match_vector_path_and_oracle(c, h, partition, terms):
    key = (as_pair(c), as_pair(h))
    kernel = _kernel(partition, [(coeff, tuple(verma.act_column(a, *key) for a in word))
                                 for coeff, word in terms])
    vectors = []
    for coeff, word in terms:
        v = verma.basis(c, h, partition)
        for a in word:
            v = verma.l_action(a, v)
        vectors.append((coeff, v))
    assert kernel == dict(verma.VermaVector.linear_combination(vectors, (c, h)).items())
    assert kernel == _combined(
        [(coeff, _oracle_chain(lambda a, p: oracles.verma_word_action((a,), p, c, h),
                               partition, word)) for coeff, word in terms])


def _chain_sum_reference(v, terms):
    """Sum over v's support of coeff * the one-start chain_tables of index, in Fractions."""
    total = {}
    for index, coeff in v.items():
        (table,), den = chain_tables((index,), terms)
        for key, value in table.items():
            total[key] = total.get(key, 0) + coeff * Fraction(value, den)
    return {key: value for key, value in total.items() if value}


vectors_of = st.lists(st.tuples(basis_partitions, exact), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(alpha=exact, c=exact, h=exact, coeffs=vectors_of, terms=terms_of, words=words_of)
def test_apply_is_the_sum_of_chain_sums(alpha, c, h, coeffs, terms, words):
    fock_terms = [(coeff, sum((_fock_factors(op, alpha) for op in ops), ()))
                  for coeff, ops in terms]
    u = fock.FockVector(alpha, coeffs)
    image = apply(fock_terms, u)
    assert type(image) is fock.FockVector and image.module == u.module
    assert dict(image.items()) == _chain_sum_reference(u, fock_terms)

    verma_terms = [(coeff, tuple(verma.act_column(a, as_pair(c), as_pair(h)) for a in word))
                   for coeff, word in words]
    v = verma.VermaVector(c, h, coeffs)
    image = apply(verma_terms, v)
    assert type(image) is verma.VermaVector and image.module == v.module
    assert dict(image.items()) == _chain_sum_reference(v, verma_terms)

    # The intertwining side: Verma input, Fock target, through the canonical map's images.
    w = verma.VermaVector(1, alpha * alpha / 2, coeffs)
    sides = [(coeff, (verma.image_column(as_pair(alpha)),) + chain) for coeff, chain in fock_terms]
    image = apply(sides, w, fock.vacuum(alpha))
    assert type(image) is fock.FockVector and image.module == (alpha,)
    assert dict(image.items()) == _chain_sum_reference(w, sides)


# Fock and Verma columns in one chain: the kernel reads partitions as opaque indices, and
# the charge and (c, h) give the columns different denominators.
mixed_ops = st.one_of(fock_ops, st.tuples(st.just("V"), small))
mixed_terms = st.lists(st.tuples(exact, st.lists(mixed_ops, max_size=3)), max_size=4)


@settings(max_examples=80, deadline=None)
@given(alpha=exact, c=exact, h=exact, terms=mixed_terms,
       starts=st.lists(st.sampled_from(partitions_up_to(2)), max_size=6))
def test_chain_tables_match_per_start_fractions(alpha, c, h, terms, starts):
    def factors(op):
        if op[0] == "V":
            return (verma.act_column(op[1], as_pair(c), as_pair(h)),)
        return _fock_factors(op, alpha)

    chains = [(coeff, sum((factors(op) for op in ops), ())) for coeff, ops in terms]
    event(f"{len(starts) - len(set(starts))} repeated starts")
    tables, den = chain_tables(starts, chains)
    assert len(tables) == len(starts) and den > 0
    _assert_stepped(starts, chains, tables, den)


def _assert_stepped(starts, chains, tables, den):
    """tables / den against a reference that steps through Fraction vectors, one start at a
    time, sharing no paths between terms."""
    for start, table in zip(starts, tables):
        assert ({key: Fraction(value, den) for key, value in table.items() if value}
                == _combined([(coeff, _oracle_chain(lambda f, p: dict(f(p).items()), start, chain))
                              for coeff, chain in chains]))


# One-factor operators for the memo test: few enough that prefixes repeat.
prefix_ops = st.sampled_from([("J", -1), ("J", 0), ("J", 1), ("L", -1), ("L", 1),
                              ("V", -1), ("V", 1)])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), alpha=exact, c=exact, h=exact,
       starts=st.lists(st.sampled_from(partitions_up_to(2)), max_size=5))
def test_memo_gives_the_tables_of_calls_without_one(data, alpha, c, h, starts):
    """Terms sharing prefixes under different coefficients, split over calls through one memo.

    Each drawn prefix comes with its tail past the first factor, so two different prefixes can
    end in the same factor; coefficients include 0, chains include the empty one, and terms
    repeat.  Every call, in any order, gives the tables and denominator of a call with a memo
    of its own, and the values of the stepped Fraction reference.
    """
    def factors(ops):
        return tuple(verma.act_column(k, as_pair(c), as_pair(h)) if op == "V"
                     else _fock_factors((op, k), alpha)[0] for op, k in ops)

    drawn = data.draw(st.lists(st.lists(prefix_ops, max_size=3), min_size=1, max_size=3))
    prefixes = [factors(ops) for ops in drawn] + [factors(ops[1:]) for ops in drawn]
    term = st.tuples(exact, st.sampled_from(prefixes), st.lists(prefix_ops, max_size=1))
    terms = [(coeff, prefix + factors(last))
             for coeff, prefix, last in data.draw(st.lists(term, min_size=1, max_size=8))]
    terms += data.draw(st.lists(st.sampled_from(terms), max_size=3))
    order = data.draw(st.permutations(terms))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(order)), max_size=3)))
    memo = {}
    for begin, end in zip([0, *cuts], [*cuts, len(order)]):
        tables, den = chain_tables(starts, order[begin:end], memo)
        assert (tables, den) == chain_tables(starts, order[begin:end])
        _assert_stepped(starts, order[begin:end], tables, den)
    event(f"{sum(bool(coeff) for coeff, _ in terms) - len(memo)} prefix reuses")
    assert set(memo) == {chain[:-1] for coeff, chain in terms if coeff}


# The identities as the vector path states them: two module vectors per basis vector.

def _heisenberg(k, l, v):
    J = fock.j_action
    return J(k, J(l, v)) - J(l, J(k, v)), (k if k + l == 0 else 0) * v


def _primary_field(n, k, v):
    J, L = fock.j_action, fock.sugawara_l
    return L(n, J(k, v)) - J(k, L(n, v)), -k * J(n + k, v)


def _normal_pair_commutator(n, m, k, v):
    P, L = fock.normal_pair, fock.sugawara_l
    indicator = (0 <= k < -n) - (-n <= k < 0) if n + m == 0 else 0
    return (L(n, P(m - k, k, v)) - P(m - k, k, L(n, v)),
            -k * P(m - k, n + k, v) + (k - m) * P(n + m - k, k, v)
            + k * (n + k) * indicator * v)


def _sugawara_commutator(n, m, v):
    L = fock.sugawara_l
    central = Fraction(n**3 - n, 12) if n + m == 0 else 0
    return L(n, L(m, v)) - L(m, L(n, v)), (n - m) * L(n + m, v) + central * v


def _verma_relations(n, m, v):
    L = verma.l_action
    central = Fraction(n**3 - n, 12) * v.c if n + m == 0 else 0
    return L(n, L(m, v)) - L(m, L(n, v)), (n - m) * L(n + m, v) + central * v


def _reference(identity, records, unit, max_level):
    """Status, checked_count and counterexample of the sweep, one instance at a time."""
    checked = 0
    for indices in records:
        for partition in partitions_up_to(max_level):
            v = type(unit).basis(partition, module=unit.module)
            lhs, rhs = identity(**indices, v=v)
            checked += 1
            if lhs != rhs:
                return "fail", checked, counterexample(indices, expected=str(rhs),
                                                       actual=str(lhs), input=str(v))
    return "pass", checked, None


def _sweeps(alpha, c, h):
    """(family of columns it reads, library report, reference run) for each sweep."""
    units = fock.vacuum(alpha), verma.hw_vector(c, h), verma.hw_vector(1, alpha * alpha / 2)

    def intertwining(a, v):
        return (verma.universal_map(alpha, verma.l_action(a, v)),
                fock.sugawara_l(a, verma.universal_map(alpha, v)))

    return [
        (("j",), lambda: fock.check_heisenberg_relations(2, 3, alpha),
         lambda: _reference(_heisenberg, index_grid(k=2, l=2), units[0], 3)),
        (("j", "l"), lambda: fock.check_primary_field(2, 3, alpha),
         lambda: _reference(_primary_field, index_grid(n=2, k=2), units[0], 3)),
        (("j", "l"), lambda: fock.sweep_normal_pair(1, 2, 3, alpha),
         lambda: _reference(_normal_pair_commutator, index_grid(n=1, m=1, k=2), units[0], 3)),
        (("j", "l"), lambda: fock.check_sugawara_commutator(2, 3, alpha),
         lambda: _reference(_sugawara_commutator, index_grid(n=2, m=2), units[0], 3)),
        (("act",), lambda: verma.check_verma_relations(2, 3, c, h),
         lambda: _reference(_verma_relations, index_grid(n=2, m=2), units[1], 3)),
        (("j", "l", "act"), lambda: verma.check_intertwining(alpha, 2, 3),
         lambda: _reference(intertwining, index_grid(a=2), units[2], 3)),
    ]


COLUMNS = {"j": (fock, "_j_basis"), "l": (fock, "_sugawara_basis"), "act": (verma, "_act_basis")}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), alpha=exact, c=exact, h=exact, which=st.integers(0, 5))
def test_corrupted_column_gives_the_same_report_on_both_paths(data, alpha, c, h, which):
    families, run, reference = _sweeps(alpha, c, h)[which]
    module, name = COLUMNS[data.draw(st.sampled_from(families))]
    index, at = data.draw(small), data.draw(basis_partitions)
    extra, scale = data.draw(basis_partitions), data.draw(nonzero)
    with corrupted(module, name, {(index, at): FreeVector.basis(extra, scale)}):
        report = run()
        event(f"report {report.status}")
        assert (report.status, report.checked_count, report.counterexample) == reference()


A = Fraction(1, 2)


@pytest.fixture
def corrupt_j():
    """Adds e_p to J(k) e_p for each given (k, p), swapped in until the test ends."""
    with ExitStack() as stack:
        yield lambda *at: stack.enter_context(
            corrupted(fock, "_j_basis", {(k, p): FreeVector.basis(p) for k, p in at}))


def _failing_partitions(indices):
    """The partitions whose heisenberg defect table is nonzero in the record of indices."""
    lhs, rhs = fock._heisenberg(as_pair(A), **indices)
    partitions = partitions_up_to(3)
    tables, _ = chain_tables(partitions, lhs + [(-coeff, chain) for coeff, chain in rhs])
    return [partition for partition, table in zip(partitions, tables) if any(table.values())]


@pytest.mark.parametrize("jobs", [1, 2])
def test_first_failure_at_the_last_partition_of_its_record(corrupt_j, jobs):
    # J(0) on J(-3)|α⟩ is read first in record (k, l) = (-2, 0), the third of 25, and
    # (3,) is the last of the 7 partitions up to level 3
    corrupt_j((0, (3,)))
    assert _failing_partitions({"k": -2, "l": 0}) == [partitions_up_to(3)[-1]] == [(3,)]
    report = fock.check_heisenberg_relations(2, 3, A, jobs)
    assert (report.status, report.checked_count, report.counterexample) == _reference(
        _heisenberg, index_grid(k=2, l=2), fock.vacuum(A), 3)
    assert report.to_text() == (
        "FAIL heisenberg-relations alpha=1/2 max_index=2 max_level=3 checked_count=21 "
        "counterexample.actual='1·J(-3)J(-2)|α⟩' counterexample.expected=0 "
        "counterexample.indices.k=-2 counterexample.indices.l=0 "
        "counterexample.input='1·J(-3)|α⟩'")


@pytest.mark.parametrize("jobs", [1, 2])
def test_two_failing_partitions_report_the_earlier(corrupt_j, jobs):
    corrupt_j((0, (1,)), (0, (1, 1, 1)))
    assert _failing_partitions({"k": -2, "l": 0}) == [(1,), (1, 1, 1)]
    report = fock.check_heisenberg_relations(2, 3, A, jobs)
    assert (report.status, report.checked_count, report.counterexample) == _reference(
        _heisenberg, index_grid(k=2, l=2), fock.vacuum(A), 3)
    # two records of 7 before, then (1,), the second partition of the record
    assert report.to_text() == (
        "FAIL heisenberg-relations alpha=1/2 max_index=2 max_level=3 checked_count=16 "
        "counterexample.actual='1·J(-2)J(-1)|α⟩' counterexample.expected=0 "
        "counterexample.indices.k=-2 counterexample.indices.l=0 "
        "counterexample.input='1·J(-1)|α⟩'")
