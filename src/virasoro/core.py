"""Exact scalars, finitely supported vectors and partition-graded modules.

The ground field is the rationals; arithmetic never rounds.  A vector is a
sparse map from basis indices to integer numerators over one shared positive
denominator, kept in lowest terms, so the hot loops add and multiply plain
integers and equality is structural.  Scalars cross the API boundary as
fractions.Fraction (lowest terms, positive denominator).  The Fock and
highest-weight modules share one vector type over a partition basis.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Mapping

ZERO = Fraction(0)
ONE = Fraction(1)

# ASCII digits only: \d and int() also read other scripts' digits, and int()
# takes "+" and "_" too.  An integer has an optional leading minus; a scalar
# is "p/q" or "p".
_INTEGER = "-?[0-9]+"
_INTEGER_RE = re.compile(_INTEGER)
_SCALAR_RE = re.compile(f"{_INTEGER}(/[0-9]+)?")


class ScalarFormatError(ValueError):
    """Raised for text that is not a valid exact rational."""


def _parsed(convert: Callable[[str], object], text: str, pattern: re.Pattern, kind: str):
    """convert(text stripped, U+2212 read as "-") if it matches and int() takes its digits."""
    normalized = text.strip().replace("−", "-")
    if not pattern.fullmatch(normalized):
        raise ScalarFormatError(f"invalid {kind} {text!r}")
    try:
        return convert(normalized)
    except ValueError:
        raise ScalarFormatError(f"invalid {kind} {text!r}: too many digits") from None


def parse_integer(text: str) -> int:
    """Parse a decimal integer; a leading ASCII hyphen or U+2212 minus is accepted."""
    return _parsed(int, text, _INTEGER_RE, "integer")


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q" or "p" exactly.

    A leading ASCII hyphen or Unicode minus (U+2212) is accepted; a zero
    denominator is rejected.
    """
    try:
        return _parsed(Fraction, text, _SCALAR_RE, "scalar")
    except ZeroDivisionError:
        raise ScalarFormatError(f"invalid scalar {text!r}: zero denominator") from None


def format_scalar(value: Fraction) -> str:
    """Lowest terms, positive denominator, "/1" suppressed, in full past int()'s digit limit."""
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}".removesuffix("/1")


def as_scalar(value) -> Fraction:
    """Coerce an int or Fraction; anything inexact is a type error."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact scalar required, got {type(value).__name__}")


class FreeVector:
    """Finitely supported map from basis indices to scalars.

    Any hashable, sortable index type works: integers for the Witt basis,
    integer tuples for partition-indexed modules.  The coefficients are
    integer numerators `_num` over one positive denominator `_den`, in lowest
    terms (`gcd(_den, *_num.values()) == 1`, and 1 for the zero vector);
    zero numerators are never stored, so equality is structural.  `coeff`
    and `items` return Fractions.  `module` holds the exact parameters of
    the module the vector lies in, empty for a plain vector; a subclass
    names them in `parameters` (each readable as an attribute) and calls
    them its `noun` when two vectors disagree on them.  Every operation
    returns a vector of its operand's class and module, and vectors combine
    only within one class and module.  Instances are treated as immutable;
    every operation returns a new vector.
    """

    __slots__ = ("_num", "_den", "module")
    parameters: tuple[str, ...] = ()
    noun = "module"

    def __init_subclass__(cls):
        for position, name in enumerate(cls.parameters):
            setattr(cls, name, property(lambda self, position=position: self.module[position]))

    def __init__(self, coeffs: Mapping | Iterable | None = None):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs or ()
        vector = FreeVector._reduce(*_accumulate(
            (value.numerator, value.denominator, {index: 1})
            for index, raw in items for value in (as_scalar(raw),) if value))
        self._num, self._den, self.module = vector._num, vector._den, ()

    @classmethod
    def _wrap(cls, num: dict, den: int = 1, module: tuple = ()) -> "FreeVector":
        vector = cls.__new__(cls)
        vector._num = num
        vector._den = den
        vector.module = module
        return vector

    @classmethod
    def _sum(cls, pairs: Iterable[tuple], module: tuple = (), den: int = 1) -> "FreeVector":
        """Sum of coeff/den * vector over (coeff, vector) pairs, coeff an int or a Fraction.

        The numerators are added as integers in one `_accumulate` pass and
        the sum is reduced once.
        """
        scaled = [(coeff.numerator, coeff.denominator * den * vector._den, vector)
                  for coeff, vector in pairs if coeff and vector._num]
        if len(scaled) == 1 and scaled[0][0] == 1 and scaled[0][1] == scaled[0][2]._den:
            return cls._wrap(scaled[0][2]._num, scaled[0][1], module)   # numerator tables shared
        return cls._reduce(*_accumulate((p, q, vector._num) for p, q, vector in scaled), module)

    @classmethod
    def _reduce(cls, table: dict, den: int, module: tuple = ()) -> "FreeVector":
        """The vector of integer numerators `table` over `den`, zeros dropped, in lowest terms."""
        if 0 in table.values():
            table = {index: value for index, value in table.items() if value}
        if den != 1:
            divisor = gcd(den, *table.values())
            if divisor != 1:
                den //= divisor
                table = {index: value // divisor for index, value in table.items()}
        return cls._wrap(table, den, module)

    @classmethod
    def zero(cls) -> "FreeVector":
        return cls._wrap({})

    @classmethod
    def basis(cls, index, coeff=ONE, module: tuple = ()) -> "FreeVector":
        coeff = as_scalar(coeff)
        return cls._wrap({index: coeff.numerator} if coeff else {}, coeff.denominator, module)

    linear_combination = _sum

    def coeff(self, index) -> Fraction:
        return Fraction(self._num.get(index, 0), self._den)

    def items(self) -> list[tuple]:
        return [(index, Fraction(value, self._den)) for index, value in sorted(self._num.items())]

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __add__(self, other, sign=1):
        if type(other) is not type(self):
            return NotImplemented
        if self.module != other.module:
            shown = ["(" + ", ".join(map(str, v.module)) + ")" for v in (self, other)]
            raise ValueError(f"cannot combine vectors of {self.noun} {shown[0]} and {shown[1]}")
        return self._sum(((1, self), (sign, other)), self.module)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self._wrap({index: -value for index, value in self._num.items()},
                          self._den, self.module)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self._sum(((scalar, self),), self.module)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.module == other.module and self._den == other._den
                and self._num == other._num)

    def __repr__(self):
        arguments = self.module + (dict(self.items()),)
        return f"{type(self).__name__}({', '.join(map(repr, arguments))})"


def _accumulate(columns: Iterable[tuple]) -> tuple[dict, int]:
    """Sum of value/q * column over (value, q, column) triples of ints and numerator tables.

    One pass: the partial sum is rescaled when the lcm of the q grows, then
    the scaled column is added.  Returns the integer numerators over that
    lcm, not reduced; entries that cancelled are kept as 0.
    """
    table, den = {}, 1
    get = table.get
    for value, q, column in columns:
        if den % q:
            grown = lcm(den, q)
            table = {key: grown // den * entry for key, entry in table.items()}
            get, den = table.get, grown
        value *= den // q
        for key, entry in column.items():
            table[key] = get(key, 0) + value * entry
    return table, den


def bilinear_extend(pair_map: Callable, left: FreeVector, right: FreeVector, zero: FreeVector):
    """Extend a basis-pair map bilinearly to vectors, into zero's class and module."""
    return type(zero)._sum(((a * b, pair_map(i, j)) for i, a in left._num.items()
                            for j, b in right._num.items()), zero.module, left._den * right._den)


class Column(dict):
    """index -> image, built by build(index) on its first read; `__getitem__` is a chain-term f."""

    def __init__(self, build: Callable):
        self.build = build

    def __missing__(self, index):
        image = self[index] = self.build(index)
        return image


_COLUMNS = Column(lambda key: Column(lambda start: key[0](key[1], start, *key[2])))


def column(build: Callable, index, *parameters) -> Callable:
    """start -> build(index, start, *parameters), from the table keyed (build, index, parameters).

    Tables live for the process, like the builders' caches: swapping a builder must clear both.
    """
    return _COLUMNS[build, index, parameters].__getitem__


def chain_tables(starts: Iterable, terms: Iterable[tuple]) -> tuple[list[dict], int]:
    """Per start s, the table of sum of coeff * f_k(...f_1(e_s)) over (coeff, (f_1, ..., f_k)).

    Each f maps a basis index to its image, a FreeVector (a cached column);
    the empty chain is the identity, and a term with coefficient 0 is
    skipped.  Every path through the columns carries the slot of its start,
    and its scaled last column is added into that start's integer table.
    The tables share one denominator, all rescaled when its lcm grows; as in
    `_accumulate`, they are not reduced and may keep cancelled entries as 0.
    """
    starts = list(starts)
    tables, den = [{} for _ in starts], 1
    for coeff, chain in terms:
        if not coeff:
            continue
        paths = [(coeff.numerator, coeff.denominator, slot, start)
                 for slot, start in enumerate(starts)]
        for f in chain[:-1]:
            paths = [(value * entry, q * column._den, slot, key) for value, q, slot, start in paths
                     for column in (f(start),) for key, entry in column._num.items()]
        for value, q, slot, start in paths:
            column = chain[-1](start) if chain else FreeVector.basis(start)
            q *= column._den
            if den % q:
                grown = lcm(den, q)
                tables = [{key: grown // den * entry for key, entry in table.items()}
                          for table in tables]
                den = grown
            value *= den // q
            table = tables[slot]
            for key, entry in column._num.items():
                table[key] = table.get(key, 0) + value * entry
    return tables, den


def apply(terms: list[tuple], v: FreeVector, target: FreeVector | None = None) -> FreeVector:
    """Sum of coeff * f_k(...f_1(v)) over chain terms (coeff, (f_1, ..., f_k)), as in chain_tables.

    The tables of v's support are summed, each scaled by its numerator, in
    one `_accumulate` pass; the result is a vector of target's class and
    module, v's by default.
    """
    target = v if target is None else target
    tables, den = chain_tables(v._num, terms)
    table, den = _accumulate((value, den, table) for value, table in zip(v._num.values(), tables))
    return type(target)._reduce(table, den * v._den, target.module)


def as_pair(value: int | Fraction) -> tuple[int, int]:
    """Numerator and denominator of an exact scalar: a cache key that hashes ints."""
    return value.numerator, value.denominator


Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def partitions_of_level(n: int) -> tuple[Partition, ...]:
    """All partitions of n as weakly decreasing tuples, lexicographically sorted."""
    def generate(total, max_part):
        if total == 0:
            yield ()
            return
        for part in range(min(total, max_part), 0, -1):
            for rest in generate(total - part, part):
                yield (part,) + rest
    return tuple(sorted(generate(n, n)))


def partitions_up_to(max_level: int) -> tuple[Partition, ...]:
    """Partitions of 0..max_level, ordered by (level, lexicographic)."""
    out: list[Partition] = []
    for n in range(max_level + 1):
        out.extend(partitions_of_level(n))
    return tuple(out)


class ModuleVector(FreeVector):
    """Element of a partition-graded module fixed by exact parameters.

    The coefficients map partitions to scalars: (p_m >= ... >= p_1) stands
    for X(-p_m)...X(-p_1) applied to the generating vector, X being the
    generator letter.  A subclass declares its `parameters`, the values its
    constructor takes before the terms; its `noun`; and the `letter` and
    `ket` it renders with.
    """

    __slots__ = ()
    letter = ket = ""

    def __init__(self, *values):
        *module, terms = values
        if len(module) != len(self.parameters):
            raise TypeError(f"{type(self).__name__} takes {self.parameters} and the terms")
        super().__init__(terms)
        self.module = tuple(map(as_scalar, module))

    def __str__(self):
        if self.is_zero():
            return "0"
        rendered = []
        for partition, coeff in sorted(self.items(), key=lambda item: (sum(item[0]), item[0])):
            word = "".join(f"{self.letter}(-{part})" for part in partition)
            rendered.append(f"{format_scalar(coeff)}·{word}{self.ket}")
        return " + ".join(rendered)
