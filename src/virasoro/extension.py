"""Central extensions built from 2-cocycles.

An extension element is a vector X + A * C, written (X, A).  The bracket
    [(X, A), (Y, B)] = ([X, Y], omega(X, Y))
ignores the incoming center components; the center is spanned by C = emb(1).
Two concrete instances matter here: the Witt algebra with the Virasoro
cocycle, and the abelian algebra of currents with the Heisenberg cocycle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import lcm
from typing import Callable, NamedTuple

from . import witt
from .cohomology import VIRASORO, CocycleOracle, OneCochain
from .core import ONE, ZERO, Column, FreeVector, apply, as_scalar, bilinear_extend, format_scalar
from .reports import VerificationReport, counterexample, first_counterexample, mismatch
from .sweeps import decide_record


class BaseAlgebra(NamedTuple):
    """Integer-indexed Lie algebra given by its bracket on basis pairs."""
    name: str
    bracket_pair: Callable[[int, int], FreeVector]


WITT = BaseAlgebra("witt", witt.bracket_pair)
ABELIAN = BaseAlgebra("abelian", lambda m, n: FreeVector.zero())


def heisenberg_cocycle(k: int, l: int) -> Fraction:
    """k on index pairs summing to zero, else 0."""
    if k + l != 0:
        return ZERO
    return Fraction(k)


HEISENBERG = CocycleOracle(heisenberg_cocycle, "heisenberg")


class ExtElement(FreeVector):
    """Element X + a * C of a central extension: one vector whose index (n,)
    stands for l(n) and () for C, so that all indices are mutually sortable.
    body and center are read-only views of the two parts."""

    __slots__ = ()

    def __init__(self, body: FreeVector, center=ZERO):
        # both parts are in lowest terms, so their union over the lcm is too
        center = as_scalar(center)
        self._den = lcm(body._den, center.denominator)
        scale = self._den // body._den
        self._num = {(n,): scale * value for n, value in body._num.items()}
        if center:
            self._num[()] = center.numerator * (self._den // center.denominator)
        self.module = ()

    @property
    def body(self) -> FreeVector:
        return FreeVector._reduce({key[0]: value for key, value in self._num.items() if key},
                                  self._den)

    @property
    def center(self) -> Fraction:
        return self.coeff(())


def emb(a) -> ExtElement:
    """Central element a * C."""
    return ExtElement.basis((), a)


def proj(u: ExtElement) -> FreeVector:
    return u.body


def std_section(x: FreeVector) -> ExtElement:
    return ExtElement(x)


def ext_bracket(base: BaseAlgebra, omega: CocycleOracle,
                u: ExtElement, v: ExtElement) -> ExtElement:
    """[(X, A), (Y, B)] = ([X, Y], omega(X, Y)); C is central."""
    zero = ExtElement.zero()

    def pair(i: tuple, j: tuple) -> ExtElement:
        return ExtElement(base.bracket_pair(*i, *j), omega(*i, *j)) if i and j else zero

    return bilinear_extend(pair, u, v, zero)


def twist_by_coboundary(beta: OneCochain, u: ExtElement) -> ExtElement:
    """(X, A) -> (X, A - beta(X)), the equivalence shifting a cocycle by d beta."""
    return u - emb(beta.apply(u.body))


def format_element(u: ExtElement) -> str:
    return f"{witt.format_vector(u.body)} ⊕ {format_scalar(u.center)}·C"


def _basis_brackets(base: BaseAlgebra, omega: CocycleOracle) -> Column:
    """The table ad[i](j) = [e_i, e_j] of ext_bracket on basis elements, built on first read."""
    return Column(lambda i: Column(lambda j: ext_bracket(
        base, omega, ExtElement.basis(i), ExtElement.basis(j))).__getitem__)


def check_virasoro_constants(max_index: int) -> VerificationReport:
    """Structure constants of the Witt extension by the Virasoro cocycle.

    [L_m, L_n] = (m - n) L_{m+n} + (m^3 - m)/12 * delta_{m,-n} C and
    [C, L_n] = [L_n, C] = 0, for all |m|, |n| <= max_index.
    """
    def closed_form(m, n):
        return ExtElement(FreeVector.basis(m + n, m - n),
                          Fraction(m**3 - m, 12) if m + n == 0 else ZERO)

    return _constants_check("virasoro-constants", _basis_brackets(WITT, VIRASORO), closed_form,
                            max_index)


def check_heisenberg_constants(max_index: int) -> VerificationReport:
    """[J_k, J_l] = k delta_{k,-l} K and [K, J_k] = 0 for |k|, |l| <= max_index."""
    return _constants_check("heisenberg-constants", _basis_brackets(ABELIAN, HEISENBERG),
                            lambda k, l: emb(k if k + l == 0 else 0), max_index)


def _constants_check(check_name: str, ad: Column, closed_form: Callable,
                     max_index: int) -> VerificationReport:
    """Each bracket ad[i](j) of the `_basis_brackets` table against its closed form:
    [l(m), l(n)] in lexicographic order of (m, n), then [C, l(n)] and [l(n), C] for each n."""
    indices = range(-max_index, max_index + 1)
    pairs = (mismatch({"m": m, "n": n}, closed_form(m, n), ad[(m,)]((n,)), format_element)
             for m, n in product(indices, repeat=2))
    with_center = (mismatch({"left": label, "n": n}, emb(ZERO), ad[left](right), format_element)
                   for n in indices
                   for left, right, label in (((), (n,), "C"), ((n,), (), str(n))))
    return first_counterexample(check_name, {"max_index": str(max_index)},
                                chain(pairs, with_center))


def check_extension_predicate(base: BaseAlgebra, omega: CocycleOracle,
                              max_index: int) -> VerificationReport:
    """Window-scale certificate that (base, omega) define a central extension.

    Three legs, in order:
      (i)   centrality: [emb(1), u] = [u, emb(1)] = 0 over the window basis;
      (ii)  bracket compatibility: the extension bracket is alternating,
            antisymmetric and satisfies Jacobi on the window basis, and
            projecting it recovers the base bracket of the projections
            (checked on center-shifted pairs, so the centers are ignored);
      (iii) sections: proj(std_section(x)) = x and proj(emb(1)) = 0.
    Each basis-pair bracket is computed once, in the `_basis_brackets` table
    `ad` that every leg but the projection reads.  The Jacobi leg decides only
    the ascending triples u < v < w in the labeled order C, l(-W), ..., l(W),
    those of a record (u, v) by one `sweeps.decide_record` pass over the w
    after v (see `witt.jacobi_identity`); every other triple is counted as
    held.  That is exact: once the window bracket is alternating and
    antisymmetric, the defect, bilinear in the outer brackets, is 0 on a triple
    with a repeat and is ± that of its ascending permutation, which comes
    earlier in the stream.
    Antisymmetry of the outer brackets [x, l(s)], |s| <= 2W, is not used.
    """
    parameters = {"max_index": str(max_index), "base": base.name,
                  "cocycle": omega.description}
    central, zero = emb(ONE), emb(ZERO)
    # the window basis, C and l(n), in order: basis index -> label
    name = {(): "C"} | {(n,): str(n) for n in range(-max_index, max_index + 1)}
    ad = _basis_brackets(base, omega)
    jacobi = witt.jacobi_identity(ad)

    def jacobi_failure(indices, k, sides):
        return counterexample({"u": name[indices["m"]], "v": name[indices["n"]], "w": name[k]},
                              expected=format_element(zero),
                              actual=format_element(apply(sides[0], ExtElement.basis(k))),
                              leg="bracket")

    def outcomes():
        # (i) centrality
        for i, label in name.items():
            for left, right, side in (((), i, "C"), (i, (), label)):
                yield mismatch({"u": label, "left": side}, zero, ad[left](right),
                               format_element, leg="centrality")

        # (ii) bracket compatibility
        for i, label in name.items():
            yield mismatch({"u": label}, zero, ad[i](i), format_element, leg="bracket")
        for (i, label_u), (j, label_v) in product(name.items(), repeat=2):
            indices = {"u": label_u, "v": label_v}
            yield mismatch(indices, -ad[j](i), ad[i](j), format_element, leg="bracket")
            u, v = ExtElement.basis(i), ExtElement.basis(j)
            yield mismatch(indices,
                           bilinear_extend(base.bracket_pair, proj(u), proj(v), FreeVector.zero()),
                           proj(ext_bracket(base, omega, u + central, v - central)),
                           witt.format_vector, leg="bracket")
        basis = list(name)  # only ascending triples are decided (see the docstring)
        for (a, i), (b, j) in product(enumerate(basis), repeat=2):
            yield from [None] * (b + 1 if a < b else len(basis))
            if a < b:
                yield from decide_record(jacobi, basis[b + 1:], jacobi_failure, {"m": i, "n": j})

        # (iii) sections
        for n in range(-max_index, max_index + 1):
            x = FreeVector.basis(n)
            yield mismatch({"n": str(n)}, x, proj(std_section(x)), witt.format_vector,
                           leg="section")
        yield mismatch({"u": "C"}, FreeVector.zero(), proj(central), witt.format_vector,
                       leg="section")

    return first_counterexample("extension-predicate", parameters, outcomes())
