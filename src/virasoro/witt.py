"""The Witt algebra: basis l(n) for integer n, bracket [l(m), l(n)] = (m - n) l(m + n)."""

from __future__ import annotations

from functools import partial
from typing import Callable

from .core import Column, FreeVector, apply, bilinear_extend
from .reports import VerificationReport, counterexample
from .sweeps import index_grid, run_sweep


def bracket_pair(m: int, n: int) -> FreeVector:
    """Bracket of two basis vectors; the (m - n) coefficient makes m == n vanish."""
    return FreeVector.basis(m + n, m - n)


def bracket(x: FreeVector, y: FreeVector) -> FreeVector:
    return bilinear_extend(bracket_pair, x, y, FreeVector.zero())


def jacobi_defect(x: FreeVector, y: FreeVector, z: FreeVector) -> FreeVector:
    return bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))


def format_vector(v: FreeVector) -> str:
    if v.is_zero():
        return "0"
    return " + ".join(f"{coeff}·l({n})" for n, coeff in v.items())


def jacobi_identity(ad: Column) -> Callable:
    """(m, n) -> [e_m, [e_n, x]] + [e_n, [x, e_m]] + [x, [e_m, e_n]] against 0, in chain terms.

    ad is the caller's bracket table, ad[a](b) = [e_a, e_b]: a `core.Column` of the `__getitem__`
    of `core.Column`s, so each ordered bracket is built once.  With R_a = [., e_a] read as
    R_a x = ad_x a, the sides are ad_m ad_n x + ad_n R_m x + sum_p c_p R_p x, where
    [e_m, e_n] = sum_p c_p e_p.  No antisymmetry is assumed.
    """
    right = Column(lambda a: lambda x: ad[x](a))  # one R_a per a, so a sweep's memo shares it

    def sides(m, n):
        return [(1, (ad[n], ad[m])), (1, (right[m], ad[n]))] + [
            (c, (right[p],)) for p, c in ad[m](n).items()], []
    return sides


def jacobi_basis_sweep(max_index: int) -> VerificationReport:
    """Jacobi identity over all basis triples with |m|, |n|, |k| <= max_index.

    Triples run in lexicographic order of (m, n, k); the first defect is
    reported.  Each record (m, n) is decided by one `run_sweep` pass over
    the window's l(k), reading every basis bracket [l(a), l(b)] once.  Every
    triple is decided: nothing here checks antisymmetry, which the extension
    predicate's ascending-triple shortcut needs.
    """
    def render(indices, k, sides):
        return counterexample(indices | {"k": k}, expected="0",
                              actual=format_vector(apply(sides[0], FreeVector.basis(k))))

    ad = Column(lambda a: Column(partial(bracket_pair, a)).__getitem__)
    return run_sweep("witt-jacobi", {"max_index": str(max_index)}, jacobi_identity(ad),
                     index_grid(m=max_index, n=max_index), range(-max_index, max_index + 1),
                     render, 1)
