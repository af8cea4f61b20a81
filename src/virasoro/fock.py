"""Charged Fock modules and the quadratic generators acting on them.

The module of charge alpha has one basis vector per partition: the partition
(k_m >= ... >= k_1) stands for the monomial J(-k_m)...J(-k_1) applied to the
vacuum.  Current operators J(k) act by inserting a part (k < 0), scaling by
alpha (k = 0), or removing a part with a multiplicity factor (k > 0).  The
quadratic generators L(n) are finite sums of normal-ordered current pairs,
multiplied out on the vacuum only; every other image follows from its tail.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm

from .core import ZERO, FreeVector, ModuleVector, Partition, apply, as_pair, as_scalar, column
from .reports import VerificationReport, first_counterexample, mismatch
from .sweeps import index_grid, module_sweep


def as_partition(parts) -> Partition:
    partition = tuple(sorted(parts, reverse=True))
    if any(not isinstance(part, int) or part <= 0 for part in partition):
        raise ValueError(f"partition parts must be positive integers, got {parts!r}")
    return partition


def insert_part(partition: Partition, part: int) -> Partition:
    return tuple(sorted(partition + (part,), reverse=True))


def remove_part(partition: Partition, part: int) -> Partition:
    out = list(partition)
    out.remove(part)
    return tuple(out)


class FockVector(ModuleVector):
    """Element of the charge-alpha module: sparse partition -> scalar map."""
    parameters = ("alpha",)
    noun, letter, ket = "charge", "J", "|α⟩"


def vacuum(alpha) -> FockVector:
    return FockVector.basis((), module=(as_scalar(alpha),))


def basis(alpha, partition) -> FockVector:
    return FockVector.basis(as_partition(partition), module=(as_scalar(alpha),))


# The operator caches take the charge as its (numerator, denominator) pair.

@lru_cache(maxsize=None)
def _j_basis(k: int, partition: Partition, alpha: tuple[int, int]) -> FreeVector:
    """J(k) on one basis vector (see j_action), as one integer entry or none."""
    if k < 0:
        return FreeVector._wrap({insert_part(partition, -k): 1})
    if k == 0:
        return FreeVector._wrap({partition: alpha[0]} if alpha[0] else {}, alpha[1])
    multiplicity = partition.count(k)
    return FreeVector._wrap({remove_part(partition, k): multiplicity * k} if multiplicity else {})


def j_column(k: int, alpha: tuple[int, int]):
    """partition -> J(k) on its basis vector, from the table of (_j_basis, k, alpha)."""
    return column(_j_basis, k, alpha)


def _pair_chain(k: int, l: int, alpha: tuple[int, int]) -> tuple:
    """:J(k)J(l): as a chain of J columns; the higher (annihilation-type) index acts first."""
    return j_column(max(k, l), alpha), j_column(min(k, l), alpha)


def j_action(k: int, v: FockVector) -> FockVector:
    """Current operator J(k).

    k < 0 inserts a part |k|; k = 0 scales by the charge; k > 0 removes one
    copy of k weighted by k times its multiplicity (zero if k is not a part).
    """
    return apply([(1, (j_column(k, as_pair(v.alpha)),))], v)


def truncation_bound(v: FockVector) -> int:
    """Least N >= 1 with J(l) v = 0 for every l >= N: one past the largest part."""
    return 1 + max((partition[0] for partition in v._num if partition), default=0)


def normal_pair(k: int, l: int, v: FockVector) -> FockVector:
    """Normal-ordered pair :J(k)J(l): applied to v (see _pair_chain)."""
    return apply([(1, _pair_chain(k, l, as_pair(v.alpha)))], v)


@lru_cache(maxsize=None)
def _sugawara_basis(n: int, partition: Partition, alpha: tuple[int, int]) -> FreeVector:
    """L(n) on one basis vector, from the pair formula on the vacuum, each pair {h, n - h} once.

    Any other from its tail: with k the largest part, [L(n), J(-k)] = k J(n-k) gives
    L(n)|k, rest> = J(-k) L(n)|rest> + k J(n-k)|rest>, and J(-k) relabels each key.
    """
    if partition:
        k, rest = partition[0], partition[1:]
        tail, current = _sugawara_basis(n, rest, alpha), _j_basis(n - k, rest, alpha)
        den = lcm(tail._den, current._den)
        scale, weight = den // tail._den, k * (den // current._den)
        table = {}
        for key, value in tail._num.items():
            at = 0
            while at < len(key) and key[at] > k:
                at += 1
            table[key[:at] + (k,) + key[at:]] = scale * value
        size, divisor = len(table) + len(current._num), scale
        for key, value in current._num.items():
            value *= weight
            table[key] = table.get(key, 0) + value
            divisor = gcd(divisor, value)
        # The tail is in lowest terms, so gcd(den, its relabelled numerators) is scale, and
        # none is 0.  Unless an added key lands on a relabelled one, gcd(den, table) is then
        # gcd(scale, added numerators), and the table needs no reduction when that is 1.
        if len(table) == size and divisor == 1:
            return FreeVector._wrap(table, den)
        return FreeVector._reduce(table, den)
    return apply([(Fraction(1, 1 + (2 * h == n)), _pair_chain(n - h, h, alpha))
                  for h in range((n + 1) // 2, 1)], FreeVector.basis(()))


def sugawara_column(n: int, alpha: tuple[int, int]):
    """partition -> L(n) on its basis vector, from the table of (_sugawara_basis, n, alpha)."""
    return column(_sugawara_basis, n, alpha)


def sugawara_l(n: int, v: FockVector) -> FockVector:
    """Quadratic generator L(n) = 1/2 * sum over k of :J(n-k)J(k):.

    Only indices with n - N < k < N contribute, where N is the truncation
    bound, so the sum is finite; every omitted term vanishes on v.
    """
    return apply([(1, (sugawara_column(n, as_pair(v.alpha)),))], v)


def check_weighted_sum(max_n: int) -> VerificationReport:
    """sum_{0 <= l < n} (n - l) l against (n^3 - n)/6, the scalar behind [L(n), L(-n)]."""
    return first_counterexample("weighted-sum-identity", {"max_n": str(max_n)}, (
        mismatch({"n": n}, Fraction(n**3 - n, 6), sum((n - l) * l for l in range(n)))
        for n in range(max_n + 1)))


# Sweeps: each identity maps the charge's pair and the indices to its two sides as chain terms.

def _heisenberg(alpha, k, l):
    J = partial(j_column, alpha=alpha)
    return [(1, (J(l), J(k))), (-1, (J(k), J(l)))], [(k if k + l == 0 else 0, ())]


def check_heisenberg_relations(max_index: int, max_level: int, alpha,
                               jobs: int = 1) -> VerificationReport:
    """[J(k), J(l)] = k delta_{k,-l} id on every basis vector of the window."""
    return module_sweep("heisenberg-relations", {"max_index": str(max_index)}, _heisenberg,
                        index_grid(k=max_index, l=max_index), max_level, vacuum(alpha), jobs)


def _primary_field(alpha, n, k):
    J, L = j_column(k, alpha), sugawara_column(n, alpha)
    return [(1, (J, L)), (-1, (L, J))], [(-k, (j_column(n + k, alpha),))]


def check_primary_field(max_index: int, max_level: int, alpha,
                        jobs: int = 1) -> VerificationReport:
    """[L(n), J(k)] = -k J(n+k) on every basis vector of the window."""
    return module_sweep("primary-field", {"max_index": str(max_index)}, _primary_field,
                        index_grid(n=max_index, k=max_index), max_level, vacuum(alpha), jobs)


def _normal_pair_commutator(alpha, n, m, k):
    indicator = (0 <= k < -n) - (-n <= k < 0) if n + m == 0 else 0
    pair, L = _pair_chain(m - k, k, alpha), (sugawara_column(n, alpha),)
    return ([(1, pair + L), (-1, L + pair)],
            [(-k, _pair_chain(m - k, n + k, alpha)), (k - m, _pair_chain(n + m - k, k, alpha)),
             (k * (n + k) * indicator, ())])


def sweep_normal_pair(max_index: int, max_k: int, max_level: int, alpha,
                      jobs: int = 1) -> VerificationReport:
    """[L(n), :J(m-k)J(k):] against its closed form, |n|, |m| <= max_index, |k| <= max_k.

    The closed form is -k :J(m-k)J(n+k): - (m-k) :J(n+m-k)J(k): plus the
    central term k(n+k) delta_{n+m,0} (1_{0<=k<-n} - 1_{-n<=k<0}).
    """
    return module_sweep("normal-pair-commutator", dict(max_index=str(max_index), max_k=str(max_k)),
                        _normal_pair_commutator, index_grid(n=max_index, m=max_index, k=max_k),
                        max_level, vacuum(alpha), jobs)


def virasoro_commutator(L, central_charge, n: int, m: int):
    """[L(n), L(m)] = (n - m) L(n+m) + (n^3 - n)/12 delta_{n,-m} central_charge; L(k) a column."""
    central = Fraction(n**3 - n, 12) * central_charge if n + m == 0 else ZERO
    return [(1, (L(m), L(n))), (-1, (L(n), L(m)))], [(n - m, (L(n + m),)), (central, ())]


def _sugawara_commutator(alpha, n, m):
    return virasoro_commutator(partial(sugawara_column, alpha=alpha), 1, n, m)


def check_sugawara_commutator(max_index: int, max_level: int, alpha,
                              jobs: int = 1) -> VerificationReport:
    """[L(n), L(m)] = (n - m) L(n+m) + (n^3 - n)/12 delta_{n,-m} id.

    The central charge is 1, independent of the charge alpha.
    """
    return module_sweep("sugawara-commutator", {"max_index": str(max_index)}, _sugawara_commutator,
                        index_grid(n=max_index, m=max_index), max_level, vacuum(alpha), jobs)
