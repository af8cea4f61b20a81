from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import corrupted, partitions, scalars
from virasoro import fock, verma
from virasoro.core import FreeVector, as_pair

C = Fraction(1)
H = Fraction(1, 8)

WEIGHT_FIXTURES = [
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 16)),
    (Fraction(-22, 5), Fraction(-1, 5)),
]


class TestVermaVector:
    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            verma.hw_vector(C, H) + verma.hw_vector(C, Fraction(1, 3))

    def test_algebra(self):
        v = verma.basis(C, H, (2, 1)) - 2 * verma.basis(C, H, (1,))
        assert v.coeff((2, 1)) == 1
        assert v.coeff((1,)) == -2

    def test_format(self):
        v = verma.basis(C, H, (2, 1)) + verma.hw_vector(C, H)
        assert str(v) == "1·|c,h⟩ + 1·L(-2)L(-1)|c,h⟩"
        assert str(0 * v) == "0"


class TestAction:
    def test_base_cases(self):
        v = verma.hw_vector(C, H)
        assert verma.l_action(3, v).is_zero()
        assert verma.l_action(0, v) == H * v
        assert verma.l_action(-4, v) == verma.basis(C, H, (4,))

    def test_canonical_prepend(self):
        assert verma.l_action(-3, verma.basis(C, H, (2, 1))) == verma.basis(C, H, (3, 2, 1))
        assert verma.l_action(-2, verma.basis(C, H, (2, 1))) == verma.basis(C, H, (2, 2, 1))

    def test_straightening_examples(self):
        # [L(1), L(-1)] = 2 L(0)
        assert verma.l_action(1, verma.basis(C, H, (1,))) == 2 * H * verma.hw_vector(C, H)
        # [L(2), L(-2)] = 4 L(0) + c/2
        assert (verma.l_action(2, verma.basis(C, H, (2,)))
                == (4 * H + C / 2) * verma.hw_vector(C, H))
        # L(1) past L(-2) leaves 3 L(-1)
        assert verma.l_action(1, verma.basis(C, H, (2,))) == 3 * verma.basis(C, H, (1,))
        expected = 2 * H * verma.basis(C, H, (2,)) + 3 * verma.basis(C, H, (1, 1))
        assert verma.l_action(1, verma.basis(C, H, (2, 1))) == expected
        assert verma.l_action(2, verma.basis(C, H, (1, 1))) == 6 * H * verma.hw_vector(C, H)

    @given(partitions)
    def test_l0_eigenvalue_is_weight_plus_level(self, partition):
        v = verma.basis(C, H, partition)
        assert verma.l_action(0, v) == (H + sum(partition)) * v

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-4, 4), partitions,
           st.sampled_from(WEIGHT_FIXTURES))
    def test_matches_word_oracle(self, a, partition, weights):
        c, h = weights
        result = verma.l_action(a, verma.basis(c, h, partition))
        assert dict(result.items()) == oracles.verma_word_action((a,), partition, c, h)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-3, 3), st.integers(-3, 3),
           st.lists(st.integers(1, 3), max_size=3).map(fock.as_partition),
           st.sampled_from([(Fraction(-22, 5), Fraction(-1, 5)), (Fraction(7, 3), Fraction(5, 6)),
                            (Fraction(1, 2), Fraction(-3, 7)), (Fraction(-9, 4), Fraction(2))]))
    def test_composition_matches_word_oracle(self, a, b, partition, weights):
        c, h = weights
        result = verma.l_action(a, verma.l_action(b, verma.basis(c, h, partition)))
        assert dict(result.items()) == oracles.verma_word_action((a, b), partition, c, h)

    @given(st.integers(-3, 3), partitions, partitions, scalars)
    def test_linearity(self, a, p1, p2, coeff):
        u, v = verma.basis(C, H, p1), verma.basis(C, H, p2)
        assert (verma.l_action(a, u + coeff * v)
                == verma.l_action(a, u) + coeff * verma.l_action(a, v))

    @given(st.integers(-4, 4), partitions)
    def test_grading(self, a, partition):
        result = verma.l_action(a, verma.basis(C, H, partition))
        target = sum(partition) - a
        assert all(sum(part) == target for part, _ in result.items())


def _straightening_depth(a, partition):
    """Deepest nesting of _act_basis calls while L(a) straightens one monomial.

    A fresh lru_cache wrapper replaces the module global, which the recursive
    calls read, so the real recursion is measured, memoized as the library
    memoizes it; the library's own cache is neither read nor filled.
    """
    straighten = verma._act_basis.__wrapped__
    nesting = [0, 0]   # current, deepest

    @lru_cache(maxsize=None)
    def tracked(*args):
        nesting[0] += 1
        nesting[1] = max(nesting)
        try:
            return straighten(*args)
        finally:
            nesting[0] -= 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verma, "_act_basis", tracked)
        tracked(a, partition, as_pair(C), as_pair(H))
    return nesting[1]


class TestStraighteningDepth:
    @given(st.integers(-4, 4), partitions)
    def test_bounded_by_length_plus_one(self, a, partition):
        assert _straightening_depth(a, partition) <= len(partition) + 1

    def test_prepend_is_flat(self):
        assert _straightening_depth(-5, (3, 2)) == 1
        assert _straightening_depth(-2, ()) == 1

    def test_bound_is_reached(self):
        # The wrapper sees the recursion: L(3) is moved past each lowering operator in turn.
        assert _straightening_depth(3, (3, 2, 1)) == 4


class TestRelations:
    @pytest.mark.parametrize("c,h", WEIGHT_FIXTURES)
    def test_bracket_relations(self, c, h):
        report = verma.check_verma_relations(3, 3, c, h)
        assert report.status == "pass"
        assert report.parameters["c"] == str(c)

    def test_highest_weight(self):
        report = verma.verma_hw_check(C, H)
        assert report.status == "pass"
        assert report.checked_count == 12

    def test_highest_weight_fails_under_broken_action(self):
        with corrupted(verma, "_act_basis", {(2, ()): FreeVector.basis(())}):
            assert verma.verma_hw_check(C, H).to_text() == (
                "FAIL verma-highest-weight c=1 h=1/8 max_index=10 checked_count=4 "
                "counterexample.actual='1·|c,h⟩' counterexample.expected=0 "
                "counterexample.indices.operator='L(2)' counterexample.input='1·|c,h⟩'")

    def test_highest_weight_fails_without_the_central_term(self):
        # L(3) L(-3)|c,h⟩ loses its 2c, so the C row reads 0 instead of c.
        with corrupted(verma, "_act_basis", {(3, (3,)): FreeVector.basis((), -2 * C)}):
            assert verma.verma_hw_check(C, H).to_text() == (
                "FAIL verma-highest-weight c=1 h=1/8 max_index=10 checked_count=2 "
                "counterexample.actual=0 counterexample.expected='1·|c,h⟩' "
                "counterexample.indices.operator=C counterexample.input='1·|c,h⟩'")

    def test_highest_weight_fixtures(self):
        for c, h in WEIGHT_FIXTURES:
            assert verma.verma_hw_check(c, h, max_index=6).status == "pass"

    def test_jobs_do_not_change_reports(self):
        serial = verma.check_verma_relations(2, 3, C, H, jobs=1)
        parallel = verma.check_verma_relations(2, 3, C, H, jobs=2)
        assert serial == parallel


class TestUniversalMap:
    def test_vacuum_image(self):
        a = Fraction(1, 2)
        v = verma.hw_vector(1, a * a / 2)
        assert verma.universal_map(a, v) == fock.vacuum(a)

    def test_single_part_image(self):
        a = Fraction(1, 2)
        v = verma.basis(1, a * a / 2, (1,))
        assert verma.universal_map(a, v) == a * fock.basis(a, (1,))

    def test_two_part_image(self):
        # L(-2) L(-1) |hw> lands on L(-2) applied to alpha J(-1)|vac>
        a = Fraction(1, 2)
        v = verma.basis(1, a * a / 2, (2, 1))
        expected = (a * fock.basis(a, (3,)) + a * a * fock.basis(a, (2, 1))
                    + a / 2 * fock.basis(a, (1, 1, 1)))
        assert verma.universal_map(a, v) == expected

    def test_linearity(self):
        a = Fraction(2, 3)
        h = a * a / 2
        x = verma.basis(1, h, (2,))
        y = verma.basis(1, h, (1, 1))
        assert (verma.universal_map(a, x + 2 * y)
                == verma.universal_map(a, x) + 2 * verma.universal_map(a, y))

    def test_rejects_wrong_central_charge(self):
        v = verma.hw_vector(Fraction(2), Fraction(1, 8))
        with pytest.raises(ValueError, match="central charge 1"):
            verma.universal_map(Fraction(1, 2), v)

    def test_rejects_wrong_weight(self):
        v = verma.hw_vector(Fraction(1), Fraction(1, 3))
        with pytest.raises(ValueError, match="alpha\\^2/2"):
            verma.universal_map(Fraction(1, 2), v)

    def test_rejects_nonzero_weight_at_zero_charge(self):
        v = verma.hw_vector(Fraction(1), Fraction(1, 2))
        with pytest.raises(ValueError, match="alpha\\^2/2 = 0"):
            verma.universal_map(0, v)
        with pytest.raises(ValueError, match="alpha\\^2/2 = 0"):
            verma.universal_map(0, verma.hw_vector(1, Fraction(1, 8)))

    def test_accepts_exact_match_only(self):
        a = Fraction(2, 3)
        assert not verma.universal_map(a, verma.hw_vector(1, Fraction(2, 9))).is_zero()


class TestIntertwining:
    def test_spot_identity(self):
        a = Fraction(1, 2)
        x = verma.basis(1, a * a / 2, (2, 1))
        for gen in (-2, -1, 0, 1, 2):
            lhs = verma.universal_map(a, verma.l_action(gen, x))
            rhs = fock.sugawara_l(gen, verma.universal_map(a, x))
            assert lhs == rhs

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 2), Fraction(2)])
    def test_sweep(self, alpha):
        report = verma.check_intertwining(alpha, 3, 3)
        assert report.status == "pass"
        assert report.parameters["alpha"] == str(alpha)

    def test_jobs_do_not_change_reports(self):
        a = Fraction(1, 2)
        assert (verma.check_intertwining(a, 2, 3, jobs=1)
                == verma.check_intertwining(a, 2, 3, jobs=2))
