from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import partitions, scalars, swapped
from virasoro import core, fock
from virasoro.core import FreeVector, as_pair, partitions_of_level, partitions_up_to

HALF = Fraction(1, 2)


def skewed_j():
    """A fresh J builder whose J(k) adds 1/(5 + |k|) of the input to the true image.

    Its images have two entries and denominators that do not divide the charge's.
    """
    original = fock._j_basis

    @lru_cache(maxsize=None)
    def skewed(k, partition, alpha):
        return original(k, partition, alpha) + FreeVector.basis(partition, Fraction(1, 5 + abs(k)))

    return skewed


class TestPartitions:
    def test_as_partition_sorts(self):
        assert fock.as_partition([1, 3, 2]) == (3, 2, 1)
        assert fock.as_partition(()) == ()

    @pytest.mark.parametrize("bad", [(0,), (-1,), (Fraction(1, 2),), (1.0,)])
    def test_as_partition_rejects(self, bad):
        with pytest.raises(ValueError):
            fock.as_partition(bad)

    def test_insert_remove(self):
        assert fock.insert_part((3, 1), 2) == (3, 2, 1)
        assert fock.remove_part((3, 2, 2), 2) == (3, 2)

    def test_partitions_of_level(self):
        assert partitions_of_level(4) == (
            (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
        # standard partition counts p(0), ..., p(8)
        counts = [len(partitions_of_level(n)) for n in range(9)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_partitions_up_to_ordering(self):
        listed = partitions_up_to(3)
        assert listed == ((), (1,), (1, 1), (2,), (1, 1, 1), (2, 1), (3,))


class TestFockVector:
    def test_charge_mismatch_rejected(self):
        with pytest.raises(ValueError, match="charge"):
            fock.vacuum(Fraction(1, 2)) + fock.vacuum(Fraction(1, 3))

    def test_algebra(self):
        a = Fraction(1, 2)
        v = fock.basis(a, (2, 1)) + 3 * fock.basis(a, (1,))
        assert v.coeff((2, 1)) == 1
        assert v.coeff((1,)) == 3
        assert (v - v).is_zero()

    def test_format(self):
        a = Fraction(1, 2)
        v = fock.basis(a, (2, 1)) * HALF + fock.vacuum(a)
        assert str(v) == "1·|α⟩ + 1/2·J(-2)J(-1)|α⟩"
        assert str(fock.basis(a, (1,)) * 0) == "0"


class TestCurrentAction:
    def test_creation(self):
        a = Fraction(1, 2)
        assert fock.j_action(-3, fock.vacuum(a)) == fock.basis(a, (3,))
        assert fock.j_action(-1, fock.basis(a, (2, 1))) == fock.basis(a, (2, 1, 1))

    def test_charge_scaling(self):
        a = Fraction(2, 3)
        assert fock.j_action(0, fock.basis(a, (2,))) == a * fock.basis(a, (2,))

    def test_annihilation_counts_multiplicity(self):
        a = Fraction(1, 2)
        assert fock.j_action(2, fock.basis(a, (2, 2, 1))) == 4 * fock.basis(a, (2, 1))
        assert fock.j_action(2, fock.basis(a, (1, 1))).is_zero()

    @settings(max_examples=30)
    @given(partitions, st.integers(-4, 4), scalars)
    def test_matches_word_oracle(self, partition, k, alpha):
        result = fock.j_action(k, fock.basis(alpha, partition))
        assert dict(result.items()) == oracles.fock_word_action((k,), partition, alpha)

    @given(partitions, partitions, st.integers(-3, 3), scalars)
    def test_linearity(self, p1, p2, k, alpha):
        v = fock.basis(alpha, p1) + 2 * fock.basis(alpha, p2)
        assert fock.j_action(k, v) == (fock.j_action(k, fock.basis(alpha, p1))
                                       + 2 * fock.j_action(k, fock.basis(alpha, p2)))

    def test_commutation_sweep(self):
        report = fock.check_heisenberg_relations(3, 4, Fraction(1, 2))
        assert report.status == "pass"
        assert report.checked_count == 7 * 7 * len(partitions_up_to(4))


class TestTruncation:
    def test_values(self):
        a = Fraction(1, 2)
        assert fock.truncation_bound(fock.vacuum(a)) == 1
        assert fock.truncation_bound(fock.basis(a, (3, 1))) == 4

    @settings(max_examples=30)
    @given(partitions, scalars)
    def test_kills_above_bound_and_not_below(self, partition, alpha):
        v = fock.basis(alpha, partition)
        bound = fock.truncation_bound(v)
        for l in range(bound, bound + 3):
            assert fock.j_action(l, v).is_zero()
        if partition:
            assert not fock.j_action(bound - 1, v).is_zero()


class TestNormalPair:
    def test_annihilator_acts_first(self):
        vac = fock.vacuum(Fraction(1, 2))
        assert fock.normal_pair(2, -2, vac).is_zero()
        assert not fock.j_action(2, fock.j_action(-2, vac)).is_zero()

    @given(st.integers(-4, 4), st.integers(-4, 4), partitions, scalars)
    def test_symmetric_in_indices(self, k, l, partition, alpha):
        v = fock.basis(alpha, partition)
        assert fock.normal_pair(k, l, v) == fock.normal_pair(l, k, v)

    def test_central_term_appears_on_vacuum(self):
        # at n + m = 0 the commutator picks up k(n+k) with sign from the
        # indicator bracket; for (n, m, k) = (-2, 2, 1) that is -1
        a = Fraction(1, 2)
        vac = fock.vacuum(a)
        n, m, k = -2, 2, 1
        lhs = (fock.sugawara_l(n, fock.normal_pair(m - k, k, vac))
               - fock.normal_pair(m - k, k, fock.sugawara_l(n, vac)))
        noncentral = (-k * fock.normal_pair(m - k, n + k, vac)
                      - (m - k) * fock.normal_pair(n + m - k, k, vac))
        assert lhs - noncentral == -1 * vac

    def test_sweep(self):
        report = fock.sweep_normal_pair(2, 3, 3, Fraction(1, 2))
        assert report.status == "pass"
        assert report.parameters["max_k"] == "3"


class TestSugawara:
    def test_vacuum_eigenvalue(self):
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(-3)):
            vac = fock.vacuum(alpha)
            assert fock.sugawara_l(0, vac) == (alpha * alpha / 2) * vac

    def test_l0_grading_eigenvalue(self):
        a = Fraction(1, 2)
        v = fock.basis(a, (2, 1))
        assert fock.sugawara_l(0, v) == (a * a / 2 + 3) * v

    def test_lowering_examples(self):
        a = Fraction(1, 2)
        vac = fock.vacuum(a)
        assert fock.sugawara_l(-1, vac) == a * fock.basis(a, (1,))
        expected = a * fock.basis(a, (2,)) + HALF * fock.basis(a, (1, 1))
        assert fock.sugawara_l(-2, vac) == expected

    def test_raising_examples(self):
        a = Fraction(1, 2)
        assert fock.sugawara_l(1, fock.basis(a, (1,))) == a * fock.vacuum(a)
        assert fock.sugawara_l(2, fock.basis(a, (2,))) == 2 * a * fock.vacuum(a)
        assert fock.sugawara_l(2, fock.vacuum(a)).is_zero()

    def test_bracket_with_lowering_on_vacuum(self):
        a = Fraction(1, 2)
        vac = fock.vacuum(a)
        lhs = (fock.sugawara_l(2, fock.sugawara_l(-2, vac))
               - fock.sugawara_l(-2, fock.sugawara_l(2, vac)))
        assert lhs == (2 * a * a + HALF) * vac

    # The tail recursion reaches one level per part: up to six parts and |n| <= 6.
    @settings(max_examples=40, deadline=None)
    @given(st.integers(-6, 6), st.lists(st.integers(1, 5), max_size=6).map(fock.as_partition),
           scalars)
    def test_matches_wide_margin_oracle(self, n, partition, alpha):
        result = fock.sugawara_l(n, fock.basis(alpha, partition))
        assert dict(result.items()) == oracles.fock_sugawara(n, partition, alpha)

    def test_column_denominator_is_the_lcm_of_its_factors(self):
        """J columns whose denominators do not divide 2b² still give exact L columns.

        With alpha = 2/3 every true column has a denominator dividing 2·3²;
        the skewed J(k) adds 1/(5 + |k|) of the input, so the factors carry
        denominators 5, 6, 7, ... as well.  The skew breaks the Heisenberg
        relations, so the columns are checked against the builder's own
        rules: the pair formula on the vacuum, and on |k, rest⟩ the tail
        recursion J(-k) L(n)|rest⟩ + k J(n-k)|rest⟩, whose J(-k) only
        relabels and so is the true j_action.
        """
        alpha = Fraction(2, 3)
        vac = fock.vacuum(alpha)
        with swapped(fock, "_j_basis", skewed_j()):
            for n in range(-2, 3):
                expected = fock.FockVector(alpha, {})
                for k in range(n, 1):
                    expected = expected + HALF * fock.normal_pair(n - k, k, vac)
                assert fock.sugawara_l(n, vac) == expected
            columns = {(n, partition): fock.sugawara_l(n, fock.basis(alpha, partition))
                       for n in range(-2, 3) for partition in partitions_up_to(3)}
            currents = {(n, partition): fock.j_action(n - partition[0],
                                                      fock.basis(alpha, partition[1:]))
                        for n, partition in columns if partition}
        for (n, partition), current in currents.items():
            k, rest = partition[0], partition[1:]
            expected = fock.j_action(-k, columns[n, rest]) + k * current
            assert columns[n, partition] == expected
        assert any(18 % value.denominator for column in columns.values()
                   for _, value in column.items())

    @pytest.mark.parametrize("skew", [False, True], ids=["true J", "skewed J"])
    @pytest.mark.parametrize("alpha", [Fraction(2, 3), Fraction(-5, 2), Fraction(6, 7)], ids=str)
    def test_every_cached_column_is_in_lowest_terms(self, alpha, skew):
        """After the four Fock sweeps at benchmark sizes, every image in the column tables
        has gcd(_den, *_num.values()) == 1 and no zero numerator, as FreeVector requires.

        The tail step reduces only where a key collides or a common factor is left; under
        the skewed J (see skewed_j) the images it adds have two entries and other denominators.
        """
        with swapped(fock, "_j_basis", skewed_j() if skew else fock._j_basis):
            fock.check_sugawara_commutator(6, 8, alpha)
            fock.check_heisenberg_relations(8, 8, alpha)
            fock.check_primary_field(6, 6, alpha)
            fock.sweep_normal_pair(4, 4, 5, alpha)
            images = [image for table in core._COLUMNS.values() for image in table.values()]
        assert len(images) > 1000
        assert [image for image in images
                if gcd(image._den, *image._num.values()) != 1 or 0 in image._num.values()] == []

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(3), Fraction(-5, 2), Fraction(2, 3),
                                       Fraction(6, 7)], ids=str)
    def test_column_is_the_pair_formula_structurally(self, alpha):
        """Each built column has the numerators and denominator of the reduced pair sum
        1/2 * sum of :J(n-k)J(k): over n - N < k < N, N the truncation bound.

        sugawara_l reduces through core.apply, so only the column itself shows a tail step
        that left a common factor or a zero entry.
        """
        for n in range(-6, 7):
            for partition in partitions_up_to(6):
                v = fock.basis(alpha, partition)
                bound = fock.truncation_bound(v)
                expected = sum((HALF * fock.normal_pair(n - k, k, v)
                                for k in range(n - bound + 1, bound)), fock.FockVector(alpha, {}))
                image = fock._sugawara_basis(n, partition, as_pair(alpha))
                assert (image._num, image._den) == (expected._num, expected._den), (n, partition)

    # Denominators 1 to 7, two negative charges and the zero charge.
    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(3), Fraction(-5, 2), Fraction(2, 3),
                                       Fraction(3, 4), Fraction(-4, 5), Fraction(5, 6),
                                       Fraction(6, 7)], ids=str)
    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(-3, 3), m=st.integers(-3, 3),
           partition=st.lists(st.integers(1, 3), max_size=3).map(fock.as_partition))
    def test_composition_matches_two_oracle_steps(self, alpha, n, m, partition):
        result = fock.sugawara_l(n, fock.sugawara_l(m, fock.basis(alpha, partition)))
        expected = defaultdict(Fraction)
        for middle, coeff in oracles.fock_sugawara(m, partition, alpha).items():
            for part, value in oracles.fock_sugawara(n, middle, alpha).items():
                expected[part] += coeff * value
        assert dict(result.items()) == {part: value for part, value in expected.items() if value}

    @given(st.integers(-3, 3), partitions, partitions, scalars, scalars)
    def test_linearity(self, n, p1, p2, alpha, coeff):
        u, v = fock.basis(alpha, p1), fock.basis(alpha, p2)
        assert (fock.sugawara_l(n, u + coeff * v)
                == fock.sugawara_l(n, u) + coeff * fock.sugawara_l(n, v))

    @given(st.integers(-4, 4), partitions)
    def test_grading(self, n, partition):
        result = fock.sugawara_l(n, fock.basis(Fraction(1, 2), partition))
        target = sum(partition) - n
        assert all(sum(part) == target for part, _ in result.items())

    def test_commutator_sweep(self):
        report = fock.check_sugawara_commutator(3, 4, Fraction(1, 2))
        assert report.status == "pass"

    def test_central_charge_independent_of_alpha(self):
        for alpha in (Fraction(0), Fraction(3)):
            assert fock.check_sugawara_commutator(2, 3, alpha).status == "pass"

    def test_wrong_central_charge_is_visible(self):
        # the sweep would detect a central value of 2: at (n, m) = (2, -2)
        # on the vacuum the defect is exactly (n^3 - n)/12
        a = Fraction(1, 2)
        vac = fock.vacuum(a)
        lhs = (fock.sugawara_l(2, fock.sugawara_l(-2, vac))
               - fock.sugawara_l(-2, fock.sugawara_l(2, vac)))
        rhs_wrong = 4 * fock.sugawara_l(0, vac) + 2 * Fraction(2**3 - 2, 12) * vac
        assert lhs != rhs_wrong


class TestWeightedSum:
    @given(st.integers(0, 60))
    def test_closed_form(self, n):
        assert fock.check_weighted_sum(n).passed()

    def test_report(self):
        report = fock.check_weighted_sum(10)
        assert report.status == "pass"
        assert report.checked_count == 11


class TestParallelSweeps:
    def test_jobs_do_not_change_reports(self):
        a = Fraction(1, 2)
        pairs = [
            fock.check_heisenberg_relations(2, 3, a, jobs=j) for j in (1, 2)]
        assert pairs[0] == pairs[1]
        pairs = [fock.check_sugawara_commutator(2, 3, a, jobs=j) for j in (1, 2)]
        assert pairs[0] == pairs[1]
        pairs = [fock.sweep_normal_pair(1, 2, 2, a, jobs=j) for j in (1, 2)]
        assert pairs[0] == pairs[1]
