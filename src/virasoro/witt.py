"""The Witt algebra: basis l(n) for integer n, bracket [l(m), l(n)] = (m - n) l(m + n)."""

from __future__ import annotations

from itertools import product

from .core import FreeVector, bilinear_extend
from .reports import VerificationReport, first_counterexample, mismatch


def basis(n: int) -> FreeVector:
    return FreeVector.basis(n)


def bracket_pair(m: int, n: int) -> FreeVector:
    """Bracket of two basis vectors; the (m - n) coefficient makes m == n vanish."""
    return FreeVector.basis(m + n, m - n)


def bracket(x: FreeVector, y: FreeVector) -> FreeVector:
    return bilinear_extend(bracket_pair, x, y, FreeVector.zero())


def jacobi_defect(x: FreeVector, y: FreeVector, z: FreeVector) -> FreeVector:
    return bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))


def check_jacobi(x: FreeVector, y: FreeVector, z: FreeVector) -> bool:
    return jacobi_defect(x, y, z).is_zero()


def format_vector(v: FreeVector) -> str:
    if v.is_zero():
        return "0"
    return " + ".join(f"{coeff}·l({n})" for n, coeff in v.items())


def jacobi_basis_sweep(max_index: int) -> VerificationReport:
    """Jacobi identity over all basis triples with |m|, |n|, |k| <= max_index.

    Triples run in lexicographic order of (m, n, k); the first defect is
    reported.
    """
    indices = range(-max_index, max_index + 1)
    return first_counterexample(
        "witt-jacobi", {"max_index": str(max_index)},
        (mismatch({"m": m, "n": n, "k": k}, FreeVector.zero(),
                  jacobi_defect(basis(m), basis(n), basis(k)), format_vector)
         for m, n, k in product(indices, repeat=3)))
