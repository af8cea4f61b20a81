"""Highest-weight modules with an ordered-monomial basis.

A basis vector of the module with parameters (c, h) is a partition
(n_m >= ... >= n_1) standing for L(-n_m)...L(-n_1) applied to the
highest-weight vector.  Generators act by a straightening recursion that
moves L(a) past the leading lowering operator with the bracket
[L(a), L(b)] = (a - b) L(a+b) + (a^3 - a)/12 delta_{a,-b} C, where C acts as
the scalar c.  The canonical map onto the charge-alpha Fock module sends the
monomial to the corresponding product of quadratic generators applied to the
vacuum; it exists exactly when c = 1 and h = alpha^2 / 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from . import fock
from .core import (ZERO, FreeVector, ModuleVector, Partition, apply, as_pair, as_scalar, column,
                   format_scalar)
from .fock import as_partition
from .reports import VerificationReport, first_counterexample, mismatch
from .sweeps import index_grid, module_sweep


class VermaVector(ModuleVector):
    """Element of the (c, h) module: sparse partition -> scalar map."""
    parameters = ("c", "h")
    noun, letter, ket = "weight", "L", "|c,h⟩"


def hw_vector(c, h) -> VermaVector:
    return VermaVector.basis((), module=(as_scalar(c), as_scalar(h)))


def basis(c, h, partition) -> VermaVector:
    return VermaVector.basis(as_partition(partition), module=(as_scalar(c), as_scalar(h)))


@lru_cache(maxsize=None)
def _act_basis(a: int, partition: Partition, c: tuple[int, int],
               h: tuple[int, int]) -> FreeVector:
    """L(a) applied to one ordered monomial, straightened back into the basis.

    c and h are (numerator, denominator) pairs.  A lowering operator at least
    as large as the leading part (any one, on the empty monomial) prepends
    canonically.  Otherwise, on the empty monomial, positive generators
    annihilate and L(0) is the h eigenvalue; on any other, L(a) is commuted
    past the leading L(-p), which strictly shrinks the monomial every
    recursive call takes as input.
    """
    if a < 0 and -a >= (partition[0] if partition else 0):
        return FreeVector.basis((-a,) + partition)
    if not partition:
        if a > 0:
            return FreeVector.zero()
        return FreeVector.basis((), Fraction(*h))
    p = partition[0]
    rest = partition[1:]
    # L(a) L(-p) = L(-p) L(a) + (a + p) L(a - p) + delta_{a,p} (a^3 - a)/12 C
    moved = _act_basis(a, rest, c, h)
    den = moved._den
    pairs = [(value, _act_basis(-p, inner, c, h)) for inner, value in moved._num.items()]
    if a + p:
        pairs.append(((a + p) * den, _act_basis(a - p, rest, c, h)))
    if a == p:
        pairs.append((Fraction((a**3 - a) * c[0] * den, 12 * c[1]), FreeVector.basis(rest)))
    return FreeVector.linear_combination(pairs, den=den)


def act_column(a: int, c: tuple[int, int], h: tuple[int, int]):
    """partition -> L(a) on its basis monomial, from the table of (_act_basis, a, c, h)."""
    return column(_act_basis, a, c, h)


def l_action(a: int, v: VermaVector) -> VermaVector:
    return apply([(1, (act_column(a, *map(as_pair, v.module)),))], v)


def _relations(c, h, n, m):
    return fock.virasoro_commutator(partial(act_column, c=c, h=h), Fraction(*c), n, m)


def check_verma_relations(max_index: int, max_level: int, c, h,
                          jobs: int = 1) -> VerificationReport:
    """[L(n), L(m)] = (n - m) L(n+m) + (n^3 - n)/12 delta_{n,-m} c on the basis."""
    return module_sweep("verma-relations", {"max_index": str(max_index)}, _relations,
                        index_grid(n=max_index, m=max_index), max_level, hw_vector(c, h), jobs)


def verma_hw_check(c, h, max_index: int = 10) -> VerificationReport:
    """L(0) v = h v, C v = c v and L(n) v = 0 for 1 <= n <= max_index."""
    v = hw_vector(c, h)
    parameters = dict(zip(v.parameters, map(format_scalar, v.module)), max_index=str(max_index))
    # C read off the straightening: [L(3), L(-3)] = 6 L(0) + 2C, and L(3) v = 0.
    central = Fraction(1, 2) * (l_action(3, l_action(-3, v)) - 6 * l_action(0, v))
    cases = [("L(0)", l_action(0, v), v.h * v), ("C", central, v.c * v)]
    cases += [(f"L({n})", l_action(n, v), ZERO * v) for n in range(1, max_index + 1)]
    return first_counterexample("verma-highest-weight", parameters,
                                (mismatch({"operator": label}, expected, actual, input=str(v))
                                 for label, actual, expected in cases))


def universal_map(alpha, v: VermaVector) -> fock.FockVector:
    """The canonical module map onto the charge-alpha Fock module.

    Sends L(-n_m)...L(-n_1)|c,h> to L(-n_m)...L(-n_1) acting on the vacuum
    through the quadratic generators.  Defined only for c = 1 and
    h = alpha^2 / 2; anything else is a rejected input.
    """
    alpha = as_scalar(alpha)
    if v.c != 1 or v.h != alpha * alpha / 2:
        raise ValueError(
            "the canonical map into the charged Fock module requires central "
            f"charge 1 and highest weight alpha^2/2 = {alpha * alpha / 2}; "
            f"got (c, h) = ({format_scalar(v.c)}, {format_scalar(v.h)})")
    return apply([(1, (image_column(as_pair(alpha)),))], v, fock.vacuum(alpha))


def _image(alpha: tuple[int, int], partition: Partition) -> FreeVector:
    """The Fock image of one basis monomial: L(-p) on the image of the rest."""
    return FreeVector.basis(()) if not partition else apply(
        [(1, (fock.sugawara_column(-partition[0], alpha),))], image_column(alpha)(partition[1:]))


def image_column(alpha: tuple[int, int]):
    """partition -> its image under the canonical map, from the table of (_image, alpha)."""
    return column(_image, alpha)


def _intertwining(alpha, a):
    image, h = image_column(alpha), as_pair(Fraction(*alpha) ** 2 / 2)
    return [(1, (act_column(a, (1, 1), h), image))], [(1, (image, fock.sugawara_column(a, alpha)))]


def check_intertwining(alpha, max_index: int, max_level: int,
                       jobs: int = 1) -> VerificationReport:
    """The canonical map commutes with every generator on the window basis."""
    alpha = as_scalar(alpha)
    return module_sweep("fock-verma-intertwining", {"max_index": str(max_index)}, _intertwining,
                        index_grid(a=max_index), max_level, hw_vector(1, alpha * alpha / 2), jobs,
                        fock.vacuum(alpha))
