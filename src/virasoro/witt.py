"""The Witt algebra: basis l(n) for integer n, bracket [l(m), l(n)] = (m - n) l(m + n)."""

from __future__ import annotations

from itertools import product

from .core import BracketTable, FreeVector, bilinear_extend
from .reports import VerificationReport, first_counterexample, mismatch


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
    reported.  Each basis bracket [l(a), l(b)] is computed once, and every
    defect is read off those brackets by bilinearity.
    """
    indices = range(-max_index, max_index + 1)
    table = BracketTable(FreeVector, bracket_pair)

    def outcomes():
        for m, n, k in product(indices, repeat=3):
            defect = table.jacobi_defect(m, n, k)
            yield mismatch({"m": m, "n": n, "k": k}, FreeVector.zero(), defect,
                           format_vector) if defect else None

    return first_counterexample("witt-jacobi", {"max_index": str(max_index)}, outcomes())
