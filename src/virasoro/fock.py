"""Charged Fock modules and the quadratic generators acting on them.

The module of charge alpha has one basis vector per partition: the partition
(k_m >= ... >= k_1) stands for the monomial J(-k_m)...J(-k_1) applied to the
vacuum.  Current operators J(k) act by inserting a part (k < 0), scaling by
alpha (k = 0), or removing a part with a multiplicity factor (k > 0).  The
quadratic generators L(n) are finite sums of normal-ordered current pairs;
the truncation bound of a vector tells how far those sums have to reach.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .core import (ZERO, FreeVector, ModuleVector, Partition, as_pair, as_scalar, format_scalar,
                   linear_extend, partitions_of_level, partitions_up_to)
from .reports import VerificationReport, first_counterexample, mismatch
from .sweeps import index_grid, run_sweep

# partitions_of_level and partitions_up_to enumerate the basis; importable from here.


def as_partition(parts) -> Partition:
    partition = tuple(sorted(parts, reverse=True))
    if any(not isinstance(part, int) or part <= 0 for part in partition):
        raise ValueError(f"partition parts must be positive integers, got {parts!r}")
    return partition


def level(partition: Partition) -> int:
    return sum(partition)


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


format_vector = FockVector.__str__


# The operator caches take the charge as its (numerator, denominator) pair.

@lru_cache(maxsize=None)
def _j_basis(k: int, partition: Partition, alpha: tuple[int, int]) -> FreeVector:
    if k < 0:
        return FreeVector.basis(insert_part(partition, -k))
    if k == 0:
        return FreeVector.basis(partition, Fraction(*alpha))
    multiplicity = partition.count(k)
    if not multiplicity:
        return FreeVector.zero()
    return FreeVector.basis(remove_part(partition, k), multiplicity * k)


def j_action(k: int, v: FockVector) -> FockVector:
    """Current operator J(k).

    k < 0 inserts a part |k|; k = 0 scales by the charge; k > 0 removes one
    copy of k weighted by k times its multiplicity (zero if k is not a part).
    """
    alpha = as_pair(v.alpha)
    return linear_extend(lambda p: _j_basis(k, p, alpha), v)


def truncation_bound(v: FockVector) -> int:
    """Least N >= 1 with J(l) v = 0 for every l >= N: one past the largest part."""
    return 1 + max((partition[0] for partition in v._num if partition), default=0)


def normal_pair(k: int, l: int, v: FockVector) -> FockVector:
    """Normal-ordered pair :J(k)J(l): applied to v.

    The higher index acts first, so annihilation-type operators hit the
    vector before creation-type ones; the result is symmetric in (k, l).
    """
    if k <= l:
        return j_action(k, j_action(l, v))
    return j_action(l, j_action(k, v))


@lru_cache(maxsize=None)
def _sugawara_basis(n: int, partition: Partition, alpha: tuple[int, int]) -> FreeVector:
    """1/2 * sum of :J(n-k)J(k): on one basis vector, multiplied out of the J columns."""
    bound = partition[0] + 1 if partition else 1
    # As in normal_pair, the higher index acts first.
    firsts = [(first, min(n - k, k)) for k in range(n - bound + 1, bound)
              if (first := _j_basis(max(n - k, k), partition, alpha))._num]
    den = lcm(*(first._den for first, _ in firsts))
    return FreeVector.linear_combination(
        [(value * (den // first._den), _j_basis(second, middle, alpha))
         for first, second in firsts for middle, value in first._num.items()], den=2 * den)


def sugawara_l(n: int, v: FockVector) -> FockVector:
    """Quadratic generator L(n) = 1/2 * sum over k of :J(n-k)J(k):.

    Only indices with n - N < k < N contribute, where N is the truncation
    bound, so the sum is finite; every omitted term vanishes on v.
    """
    alpha = as_pair(v.alpha)
    return linear_extend(lambda p: _sugawara_basis(n, p, alpha), v)


def weighted_sum_check(n: int) -> bool:
    """sum_{0 <= l < n} (n - l) l == (n^3 - n)/6, the scalar behind [L(n), L(-n)]."""
    return _weighted_sum_defect(n) is None


def _weighted_sum_defect(n: int) -> dict | None:
    return mismatch({"n": n}, Fraction(n**3 - n, 6), sum((n - l) * l for l in range(n)))


def check_weighted_sum(max_n: int) -> VerificationReport:
    return first_counterexample("weighted-sum-identity", {"max_n": str(max_n)},
                                map(_weighted_sum_defect, range(max_n + 1)))


# Sweeps: each identity maps indices and a basis vector to the two sides that must agree.

def _heisenberg(k, l, v):
    return (j_action(k, j_action(l, v)) - j_action(l, j_action(k, v)),
            (k if k + l == 0 else 0) * v)


def check_heisenberg_relations(max_index: int, max_level: int, alpha,
                               jobs: int = 1) -> VerificationReport:
    """[J(k), J(l)] = k delta_{k,-l} id on every basis vector of the window."""
    alpha = as_scalar(alpha)
    parameters = {"max_index": str(max_index), "max_level": str(max_level),
                  "alpha": format_scalar(alpha)}
    return run_sweep("heisenberg-relations", parameters, _heisenberg,
                     index_grid(k=max_index, l=max_index), vacuum(alpha), max_level, jobs)


def _primary_field(n, k, v):
    return (sugawara_l(n, j_action(k, v)) - j_action(k, sugawara_l(n, v)),
            -k * j_action(n + k, v))


def check_primary_field(max_index: int, max_level: int, alpha,
                        jobs: int = 1) -> VerificationReport:
    """[L(n), J(k)] = -k J(n+k) on every basis vector of the window."""
    alpha = as_scalar(alpha)
    parameters = {"max_index": str(max_index), "max_level": str(max_level),
                  "alpha": format_scalar(alpha)}
    return run_sweep("primary-field", parameters, _primary_field,
                     index_grid(n=max_index, k=max_index), vacuum(alpha), max_level, jobs)


def _normal_pair_commutator(n, m, k, v):
    indicator = (0 <= k < -n) - (-n <= k < 0) if n + m == 0 else 0
    lhs = sugawara_l(n, normal_pair(m - k, k, v)) - normal_pair(m - k, k, sugawara_l(n, v))
    rhs = FockVector.linear_combination([(-k, normal_pair(m - k, n + k, v)),
                                         (k - m, normal_pair(n + m - k, k, v)),
                                         (k * (n + k) * indicator, v)], v.module)
    return lhs, rhs


def check_normal_pair_commutator(n: int, m: int, k: int, max_level: int,
                                 alpha) -> VerificationReport:
    """[L(n), :J(m-k)J(k):] expanded against its closed form, one index triple.

    The closed form is -k :J(m-k)J(n+k): - (m-k) :J(n+m-k)J(k): plus the
    central term k(n+k) delta_{n+m,0} (1_{0<=k<-n} - 1_{-n<=k<0}).
    """
    alpha = as_scalar(alpha)
    parameters = {"n": str(n), "m": str(m), "k": str(k),
                  "max_level": str(max_level), "alpha": format_scalar(alpha)}
    return run_sweep("normal-pair-commutator", parameters, _normal_pair_commutator,
                     [{"n": n, "m": m, "k": k}], vacuum(alpha), max_level, 1)


def sweep_normal_pair(max_index: int, max_k: int, max_level: int, alpha,
                      jobs: int = 1) -> VerificationReport:
    """check_normal_pair_commutator over |n|, |m| <= max_index, |k| <= max_k."""
    alpha = as_scalar(alpha)
    parameters = {"max_index": str(max_index), "max_k": str(max_k),
                  "max_level": str(max_level), "alpha": format_scalar(alpha)}
    return run_sweep("normal-pair-commutator", parameters, _normal_pair_commutator,
                     index_grid(n=max_index, m=max_index, k=max_k),
                     vacuum(alpha), max_level, jobs)


def _sugawara_commutator(n, m, v):
    central = Fraction(n**3 - n, 12) if n + m == 0 else ZERO
    return (sugawara_l(n, sugawara_l(m, v)) - sugawara_l(m, sugawara_l(n, v)),
            FockVector.linear_combination([(n - m, sugawara_l(n + m, v)), (central, v)], v.module))


def check_sugawara_commutator(max_index: int, max_level: int, alpha,
                              jobs: int = 1) -> VerificationReport:
    """[L(n), L(m)] = (n - m) L(n+m) + (n^3 - n)/12 delta_{n,-m} id.

    The central charge is 1, independent of the charge alpha.
    """
    alpha = as_scalar(alpha)
    parameters = {"max_index": str(max_index), "max_level": str(max_level),
                  "alpha": format_scalar(alpha)}
    return run_sweep("sugawara-commutator", parameters, _sugawara_commutator,
                     index_grid(n=max_index, m=max_index), vacuum(alpha), max_level, jobs)
