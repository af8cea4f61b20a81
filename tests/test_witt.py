from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import free_vectors
from oracles import witt_jacobi_reference
from virasoro import witt
from virasoro.core import FreeVector


class TestBracket:
    @pytest.mark.parametrize("m,n,index,coeff", [
        (2, 3, 5, -1),
        (3, -3, 0, 6),
        (0, 5, 5, -5),
        (-1, -2, -3, 1),
    ])
    def test_basis_pairs(self, m, n, index, coeff):
        assert witt.bracket_pair(m, n) == FreeVector.basis(index, coeff)

    def test_same_index_vanishes(self):
        assert witt.bracket_pair(4, 4).is_zero()

    @given(free_vectors(max_terms=3), free_vectors(max_terms=3))
    def test_antisymmetry(self, x, y):
        assert witt.bracket(x, y) == -witt.bracket(y, x)

    @given(free_vectors(max_terms=3))
    def test_alternating(self, x):
        assert witt.bracket(x, x).is_zero()

    def test_bilinearity_example(self):
        x = FreeVector({1: Fraction(2), -2: Fraction(1, 3)})
        y = FreeVector({3: Fraction(-1)})
        # [2 l1 + (1/3) l-2, -l3] = -2(1-3) l4 - (1/3)(-2-3) l1
        assert witt.bracket(x, y) == FreeVector({4: Fraction(4), 1: Fraction(5, 3)})


class TestJacobi:
    @settings(max_examples=40)
    @given(free_vectors(max_terms=3), free_vectors(max_terms=3), free_vectors(max_terms=3))
    def test_defect_vanishes(self, x, y, z):
        assert witt.jacobi_defect(x, y, z).is_zero()

    def test_sweep_passes(self):
        report = witt.jacobi_basis_sweep(4)
        assert report.status == "pass"
        assert report.checked_count == 9 ** 3
        assert report.parameters == {"max_index": "4"}

    def test_defect_is_reported_for_broken_bracket(self, monkeypatch):
        # breaking antisymmetry by hand must produce a visible defect
        def broken(m, n):
            return FreeVector.basis(m + n, m + n)

        monkeypatch.setattr(witt, "bracket_pair", broken)
        defect = witt.jacobi_defect(FreeVector.basis(1), FreeVector.basis(2),
                                    FreeVector.basis(-1))
        # 2·l(2) from [l(1), l(1)], 0 from [l(2), 0], 6·l(2) from [l(-1), 3·l(3)]
        assert defect == FreeVector.basis(2, 8)
        # and the sweep reports the first such triple: 3 * [[l(-2), l(-2)], l(-2)]
        assert witt.jacobi_basis_sweep(2).to_text() == (
            "FAIL witt-jacobi max_index=2 checked_count=1 counterexample.actual='72·l(-6)' "
            "counterexample.expected=0 counterexample.indices.k=-2 "
            "counterexample.indices.m=-2 counterexample.indices.n=-2")

    def test_each_basis_bracket_is_computed_once(self, monkeypatch):
        calls = []
        original = witt.bracket_pair

        def counted(m, n):
            calls.append((m, n))
            return original(m, n)

        monkeypatch.setattr(witt, "bracket_pair", counted)
        assert witt.jacobi_basis_sweep(3).passed()
        assert calls and len(calls) == len(set(calls))


def _changed_at(a, b, image):
    """The Witt bracket with the basis pair (a, b) sent to image."""
    original = witt.bracket_pair
    return lambda m, n: image if (m, n) == (a, b) else original(m, n)


class TestOrderWithinRecord:
    """A record (m, n) is decided for all k in one pass; the report is still the first k."""

    def check(self, monkeypatch, corrupted, text):
        monkeypatch.setattr(witt, "bracket_pair", corrupted)
        report = witt.jacobi_basis_sweep(2)
        assert report.to_text() == text
        expected = witt_jacobi_reference(lambda m, n: dict(corrupted(m, n).items()), 2)
        assert (report.status, report.checked_count, report.counterexample) == expected

    def test_last_k_of_a_record(self, monkeypatch):
        # [l(-1), l(2)] = l(0): record (-2, -1) fails at k = 2 only
        self.check(monkeypatch, _changed_at(-1, 2, FreeVector.basis(0)), (
            "FAIL witt-jacobi max_index=2 checked_count=10 "
            "counterexample.actual='-2·l(-2) + -9·l(-1)' counterexample.expected=0 "
            "counterexample.indices.k=2 counterexample.indices.m=-2 counterexample.indices.n=-1"))

    def test_earlier_of_two_failing_k(self, monkeypatch):
        # [l(0), l(-1)] = 2·l(-1): record (-2, 0) fails at k = -1 and at k = 1
        corrupted = _changed_at(0, -1, FreeVector.basis(-1, 2))
        monkeypatch.setattr(witt, "bracket_pair", corrupted)
        assert witt.jacobi_defect(*map(FreeVector.basis, (-2, 0, 1))) == FreeVector.basis(-1, 3)
        self.check(monkeypatch, corrupted, (
            "FAIL witt-jacobi max_index=2 checked_count=12 "
            "counterexample.actual='-1·l(-3)' counterexample.expected=0 "
            "counterexample.indices.k=-1 counterexample.indices.m=-2 counterexample.indices.n=0"))


@st.composite
def corrupted_brackets(draw):
    """A window 0..3 and the Witt bracket with one basis pair changed, often into itself.

    The pair lies where the sweep reads brackets: both indices within twice
    the window.
    """
    window = draw(st.integers(0, 3))
    pair = st.integers(-2 * window, 2 * window)
    m, n = draw(pair), draw(pair)
    image = draw(st.one_of(free_vectors(max_terms=2, index_bound=2 * window),
                           st.just(witt.bracket_pair(m, n))))
    original = witt.bracket_pair
    return window, lambda a, b: image if (a, b) == (m, n) else original(a, b)


class TestSweepAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(corrupted_brackets())
    def test_report_matches_triple_bracket_loop(self, case):
        window, corrupted = case
        with patch.object(witt, "bracket_pair", corrupted):
            report = witt.jacobi_basis_sweep(window)
        expected = witt_jacobi_reference(lambda m, n: dict(corrupted(m, n).items()), window)
        assert (report.status, report.checked_count, report.counterexample) == expected


class TestFormat:
    def test_zero(self):
        assert witt.format_vector(FreeVector.zero()) == "0"

    def test_terms_sorted_by_index(self):
        v = FreeVector({3: Fraction(1, 2), -1: Fraction(-2)})
        assert witt.format_vector(v) == "-2·l(-1) + 1/2·l(3)"
