import pickle
import sys
from collections import defaultdict
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import free_vectors, scalars
from virasoro import fock, verma
from virasoro.core import (FreeVector, ScalarFormatError, apply, as_scalar, bilinear_extend,
                           format_scalar, parse_integer, parse_scalar, partitions_up_to)

ALPHA, C, H = Fraction(1, 2), Fraction(7, 3), Fraction(-1, 5)


class TestParseScalar:
    @pytest.mark.parametrize("text,expected", [
        ("3/4", Fraction(3, 4)),
        ("7", Fraction(7)),
        ("-2", Fraction(-2)),
        ("−5/3", Fraction(-5, 3)),   # U+2212 minus
        ("  9/6  ", Fraction(3, 2)),  # surrounding whitespace, then reduced
        ("0", Fraction(0)),
        ("0/5", Fraction(0)),
    ])
    def test_accepts(self, text, expected):
        assert parse_scalar(text) == expected

    @pytest.mark.parametrize("text", [
        "", " ", "1/0", "1.5", "1/2/3", "a", "+3", "1 /2", "2/-3", "1e3", "/2", "3/",
        "３", "١/٢",
    ])
    def test_rejects(self, text):
        with pytest.raises(ScalarFormatError):
            parse_scalar(text)

    def test_zero_denominator_message(self):
        with pytest.raises(ScalarFormatError, match="zero denominator"):
            parse_scalar("1/0")

    # int() refuses more digits than sys.get_int_max_str_digits() with a bare ValueError
    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                        reason="int() converts 5,000 digits")
    @pytest.mark.parametrize("text", ["1" * 5000, "-" + "1" * 5000, "1/" + "7" * 5000],
                             ids=["integer", "negative", "denominator"])
    def test_too_many_digits_is_a_format_error(self, text):
        with pytest.raises(ScalarFormatError, match="too many digits"):
            parse_scalar(text)
        if "/" not in text:
            with pytest.raises(ScalarFormatError, match="too many digits"):
                parse_integer(text)


class TestFormatScalar:
    @pytest.mark.parametrize("value,expected", [
        (Fraction(3, 4), "3/4"),
        (Fraction(-2), "-2"),
        (Fraction(4, 2), "2"),      # "/1" suppressed
        (Fraction(1, -3), "-1/3"),  # sign moves to the numerator
        (Fraction(0), "0"),
    ])
    def test_canonical_text(self, value, expected):
        assert format_scalar(value) == expected

    @given(scalars)
    def test_round_trip(self, value):
        assert parse_scalar(format_scalar(value)) == value

    @pytest.mark.parametrize("value", [Fraction(7**6000, 3**5000), Fraction(-7**6000),
                                       Fraction(1, 3**10000)], ids=["ratio", "integer", "unit"])
    def test_every_digit_past_the_conversion_limit(self, value):
        """Rendering never stops at int()'s digit limit, which only parsing keeps."""
        parts = format_scalar(value).split("/")
        assert len(parts) == 1 + (value.denominator != 1)
        assert Fraction(*(int(Decimal(part)) for part in parts)) == value


class TestAsScalar:
    def test_coercions(self):
        assert as_scalar(3) == Fraction(3)
        assert as_scalar(Fraction(2, 5)) == Fraction(2, 5)

    @pytest.mark.parametrize("bad", [0.5, "1/2", None])
    def test_inexact_rejected(self, bad):
        with pytest.raises(TypeError):
            as_scalar(bad)


class TestFreeVector:
    def test_zero_coefficients_never_stored(self):
        v = FreeVector({1: Fraction(0), 2: Fraction(3)})
        assert [index for index, _ in v.items()] == [2]
        assert (v - v).items() == []
        assert (v - v) == FreeVector.zero()

    def test_duplicate_indices_accumulate(self):
        v = FreeVector([(1, 2), (1, 3), (2, -1), (2, 1)])
        assert v.items() == [(1, Fraction(5))]

    def test_basis_and_coeff(self):
        v = FreeVector.basis(4, Fraction(-1, 2))
        assert v.coeff(4) == Fraction(-1, 2)
        assert v.coeff(5) == 0
        assert FreeVector.basis(4, 0).is_zero()

    def test_structural_equality(self):
        assert FreeVector({1: 1, 2: 2}) == FreeVector([(2, 2), (1, 1)])
        assert FreeVector({1: 1}) != FreeVector({1: 2})
        assert FreeVector({}) == FreeVector.zero()

    def test_linear_combination(self):
        v = FreeVector.linear_combination([
            (Fraction(2), FreeVector({1: 1, 2: 1})),
            (Fraction(-1), FreeVector({2: 2})),
            (Fraction(0), FreeVector({9: 9})),
        ])
        assert v == FreeVector({1: 2})
        # One classmethod under two names: bench/child.py wraps linear_combination, and the
        # operators call _sum, so its call counter covers only the explicit combinations.
        assert FreeVector.__dict__["linear_combination"] is FreeVector.__dict__["_sum"]

    def test_scalar_multiple_rejects_floats(self):
        with pytest.raises(TypeError):
            FreeVector({1: 1}) * 0.5  # noqa: B018
        with pytest.raises(TypeError):
            FreeVector({1: 0.5})
        with pytest.raises(TypeError):
            fock.FockVector(ALPHA, {(1,): 0.5})

    @given(free_vectors(), free_vectors(), scalars)
    def test_module_axioms(self, u, v, a):
        assert u + v == v + u
        assert u + FreeVector.zero() == u
        assert u - u == FreeVector.zero()
        assert a * (u + v) == a * u + a * v
        assert (-1) * u == -u

    @given(free_vectors(), scalars, scalars)
    def test_scalar_action_associates(self, u, a, b):
        assert a * (b * u) == (a * b) * u

    def test_repr(self):
        assert repr(FreeVector({2: 1, 1: Fraction(1, 2)})) == (
            "FreeVector({1: Fraction(1, 2), 2: Fraction(1, 1)})")


MODULE_VECTORS = [fock.basis(ALPHA, (2, 1)), verma.basis(C, H, (2, 1))]


class TestModuleVector:
    """Fock and Verma vectors are FreeVectors that keep their class and module."""

    def test_other_classes_do_not_combine(self):
        with pytest.raises(TypeError):
            fock.vacuum(ALPHA) + FreeVector.basis(())  # noqa: B018
        with pytest.raises(TypeError):
            FreeVector.basis(()) + fock.vacuum(ALPHA)  # noqa: B018
        with pytest.raises(TypeError):
            verma.hw_vector(C, H) - fock.vacuum(ALPHA)  # noqa: B018
        with pytest.raises(TypeError):
            verma.hw_vector(C, H) + fock.vacuum(ALPHA)  # noqa: B018
        assert fock.vacuum(ALPHA) != FreeVector.basis(())

    def test_other_modules_do_not_combine(self):
        with pytest.raises(ValueError, match=r"vectors of charge \(1/2\) and \(3\)"):
            fock.vacuum(ALPHA) + fock.vacuum(3)  # noqa: B018
        with pytest.raises(ValueError, match=r"cannot combine vectors of weight \(7/3, -1/5\)"):
            verma.hw_vector(C, H) - verma.hw_vector(C, 0)  # noqa: B018
        assert fock.vacuum(ALPHA) != fock.vacuum(3)

    def test_module_parameters_are_required(self):
        with pytest.raises(TypeError, match=r"FockVector takes \('alpha',\) and the terms"):
            fock.FockVector({(): 1})

    @pytest.mark.parametrize("v", MODULE_VECTORS, ids=["fock", "verma"])
    def test_operations_keep_class_and_module(self, v):
        for result in (0 * v, v * 0, -v, v - v, v + v, Fraction(2, 3) * v):
            assert type(result) is type(v)
            assert result.module == v.module
        assert (v - v).is_zero()
        assert str(0 * v) == "0"

    def test_operators_keep_the_module(self):
        current = fock.j_action(-1, fock.basis(ALPHA, (2,)))
        assert type(current) is fock.FockVector
        assert current.alpha == ALPHA
        assert type(fock.sugawara_l(-1, current)) is fock.FockVector
        lowered = verma.l_action(-1, verma.basis(C, H, (2,)))
        assert type(lowered) is verma.VermaVector
        assert (lowered.c, lowered.h) == (C, H)
        image = verma.universal_map(ALPHA, verma.hw_vector(1, ALPHA * ALPHA / 2))
        assert image == fock.vacuum(ALPHA)

    @pytest.mark.parametrize("v", MODULE_VECTORS, ids=["fock", "verma"])
    def test_pickle_round_trip(self, v):
        restored = pickle.loads(pickle.dumps(v))
        assert type(restored) is type(v)
        assert restored == v
        assert restored.module == v.module

    def test_repr(self):
        assert repr(fock.basis(ALPHA, (1,))) == (
            "FockVector(Fraction(1, 2), {(1,): Fraction(1, 1)})")
        v = verma.basis(C, H, (2, 1))
        assert eval(repr(v), {"VermaVector": verma.VermaVector, "Fraction": Fraction}) == v


# Coefficient tables of mixed denominators, zero values included, over partition indices.
KEYS = partitions_up_to(3)
fraction_tables = st.dictionaries(
    st.sampled_from(KEYS),
    st.one_of(st.just(Fraction(0)), st.fractions(-6, 6, max_denominator=9)), max_size=5)


def _reference(pairs) -> dict:
    """sum of coeff * table over (coeff, Fraction dict) pairs, zeros dropped."""
    total = defaultdict(Fraction)
    for coeff, table in pairs:
        for index, value in table.items():
            total[index] += coeff * value
    return {index: value for index, value in total.items() if value}


def _column(partition) -> dict:
    return {fock.insert_part(partition, 1): Fraction(1, 3),
            partition: Fraction(-2, len(partition) + 5)}


def _pair(p, q) -> dict:
    return {fock.insert_part(p, len(q) + 1): Fraction(len(p) - len(q), 7)}


class TestCanonicalForm:
    """Integer numerators over one denominator against a plain Fraction-dict reference."""

    @staticmethod
    def assert_canonical(v, reference):
        assert v.items() == sorted(reference.items())
        for _, value in v.items() + [(None, v.coeff((9,)))]:
            assert type(value) is Fraction
            assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1
        assert all(v.coeff(index) == value for index, value in reference.items())
        assert v._den > 0 and gcd(v._den, *v._num.values()) == 1
        assert 0 not in v._num.values()
        assert v._den == 1 or reference
        restored = pickle.loads(pickle.dumps(v))
        assert (restored._den, restored.module, type(restored)) == (v._den, v.module, type(v))
        assert restored == v

    @pytest.mark.parametrize("make", [FreeVector, lambda table: fock.FockVector(ALPHA, table)],
                             ids=["plain", "fock"])
    @settings(deadline=None)
    @given(x=fraction_tables, y=fraction_tables, a=st.fractions(-5, 5, max_denominator=8),
           k=st.integers(-4, 4))
    def test_operations_match_fraction_dicts(self, make, x, y, a, k):
        u, v = make(x), make(y)
        basis_map = lambda p: FreeVector(_column(p))  # noqa: E731
        pair_map = lambda p, q: FreeVector(_pair(p, q))  # noqa: E731
        results = [
            (u, _reference([(1, x)])),
            (v, _reference([(1, y)])),
            (u + v, _reference([(1, x), (1, y)])),
            (u - v, _reference([(1, x), (-1, y)])),
            ((u + v) - v, _reference([(1, x)])),
            (-u, _reference([(-1, x)])),
            (u * k, _reference([(k, x)])),
            (a * u, _reference([(a, x)])),
            (0 * u, {}),
            (u * Fraction(0), {}),
            (u - u, {}),
            (type(u).linear_combination([(a, u), (k, v), (Fraction(0), v)], u.module),
             _reference([(a, x), (k, y)])),
            (type(u).linear_combination([(2, u), (-1, u)], u.module), _reference([(1, x)])),
            (apply([(1, (basis_map,))], u),
             _reference([(value, _column(index)) for index, value in x.items()])),
            (bilinear_extend(pair_map, u, v, FreeVector.zero()),
             _reference([(x[p] * y[q], _pair(p, q)) for p in x for q in y])),
        ]
        for vector, reference in results:
            self.assert_canonical(vector, reference)
        for (left, left_ref), (right, right_ref) in combinations(results[:-1], 2):
            assert (left == right) == (left_ref == right_ref)


class TestExtensions:
    def test_linear_extend(self):
        double = apply([(1, (lambda n: FreeVector.basis(n, 2),))], FreeVector({1: 1, 3: -1}))
        assert double == FreeVector({1: 2, 3: -2})

    def test_linear_extend_basis_vector_and_growing_denominators(self):
        images = {(1,): FreeVector({(2,): Fraction(1, 2)}),
                  (2,): FreeVector({(2,): Fraction(1, 3), (3,): 1})}
        unit = fock.basis(ALPHA, (1,))
        image = apply([(1, (images.get,))], unit)
        assert type(image) is fock.FockVector and image.module == unit.module
        assert image == fock.FockVector(ALPHA, {(2,): Fraction(1, 2)})
        mixed = apply([(1, (images.get,))],
                      fock.FockVector(ALPHA, {(1,): 3, (2,): Fraction(3, 5)}))
        assert mixed == fock.FockVector(ALPHA, {(2,): Fraction(3, 2) + Fraction(1, 5),
                                                (3,): Fraction(3, 5)})
        assert mixed._den == 10 and mixed._num == {(2,): 17, (3,): 6}

    @given(free_vectors(max_terms=3), free_vectors(max_terms=3), free_vectors(max_terms=3),
           scalars)
    def test_bilinear_extend_is_bilinear(self, u, v, w, a):
        def pair(m, n):
            return FreeVector.basis(m + n, m - n)

        zero = FreeVector.zero()
        assert (bilinear_extend(pair, u + a * v, w, zero)
                == bilinear_extend(pair, u, w, zero) + a * bilinear_extend(pair, v, w, zero))
        assert (bilinear_extend(pair, u, v + a * w, zero)
                == bilinear_extend(pair, u, v, zero) + a * bilinear_extend(pair, u, w, zero))
