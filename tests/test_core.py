from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import free_vectors, scalars
from virasoro.core import (FreeVector, ScalarFormatError, as_scalar, bilinear_extend,
                           cyclic_triple_sum, format_scalar, linear_extend, parse_scalar)


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
        assert v.support() == [2]
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

    def test_scalar_multiple_rejects_floats(self):
        with pytest.raises(TypeError):
            FreeVector({1: 1}) * 0.5  # noqa: B018

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


class TestExtensions:
    def test_linear_extend(self):
        double = linear_extend(lambda n: FreeVector.basis(n, 2), FreeVector({1: 1, 3: -1}))
        assert double == FreeVector({1: 2, 3: -2})

    def test_bilinear_extend_scalar_target(self):
        pairing = bilinear_extend(lambda m, n: Fraction(m * n),
                                  FreeVector({1: 2}), FreeVector({3: 1, 4: 1}),
                                  Fraction(0))
        assert pairing == Fraction(2 * 3 + 2 * 4)

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

    def test_cyclic_triple_sum_matches_unrolled(self):
        def mu(m, n):
            return Fraction(m - n)

        def nu(m, n):
            return FreeVector.basis(m + n, m * n)

        x, y, z = FreeVector({1: 1}), FreeVector({2: 1}), FreeVector({-3: 1})

        def mu_vec(a, b):
            return bilinear_extend(mu, a, b, Fraction(0))

        def nu_vec(a, b):
            return bilinear_extend(nu, a, b, FreeVector.zero())

        expected = (mu_vec(x, nu_vec(y, z)) + mu_vec(y, nu_vec(z, x))
                    + mu_vec(z, nu_vec(x, y)))
        assert cyclic_triple_sum(mu, nu, x, y, z, Fraction(0)) == expected
