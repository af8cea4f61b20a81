import random
import re
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import free_vectors, indices, one_cochain_values, scalars
from oracles import cocycle_identity_reference, residual_reference
from virasoro import cohomology as co
from virasoro.core import FreeVector


class TestVirasoroCocycle:
    # antidiagonal values fixed by the closed form
    @pytest.mark.parametrize("m,expected", [
        (1, Fraction(0)),
        (2, Fraction(1, 2)),
        (3, Fraction(2)),
        (6, Fraction(35, 2)),
    ])
    def test_antidiagonal_values(self, m, expected):
        assert co.VIRASORO(m, -m) == expected
        assert co.VIRASORO(-m, m) == -expected

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_off_antidiagonal_vanishes(self, m, n):
        if m + n != 0:
            assert co.VIRASORO(m, n) == 0

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_antisymmetry(self, m, n):
        assert co.VIRASORO(m, n) == -co.VIRASORO(n, m)

    def test_identity_on_window(self):
        report = co.check_cocycle_identity(co.VIRASORO, 8)
        assert report.status == "pass"
        assert report.checked_count == 17 ** 3

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_cubic_rearrangement_identity(self, m, n):
        # the integer identity behind the antidiagonal case of the cocycle identity
        assert ((2 * m + n) * (n**3 - n)
                == (n - m) * ((n + m) ** 3 - (n + m)) + (2 * n + m) * (m**3 - m))


class TestCocycleOracle:
    def test_rule_is_never_consulted_on_disordered_pairs(self):
        def rule(m, n):
            assert m < n, "oracle must order its queries"
            return Fraction(m * n)

        oracle = co.CocycleOracle(rule)
        assert oracle(5, 2) == -oracle(2, 5) == Fraction(-10)
        assert oracle(3, 3) == 0

    def test_linear_combinations(self):
        combined = Fraction(3) * co.VIRASORO + co.VIRASORO
        assert combined(2, -2) == Fraction(2)
        assert combined.description == "(3*virasoro + virasoro)"

    def test_from_table_matches_and_describes(self):
        oracle = co.parse_cocycle_table(co.dump_cocycle_table(co.VIRASORO, 5))
        assert oracle.description == "table(window=5)"
        for m in range(-5, 6):
            for n in range(-5, 6):
                assert oracle(m, n) == co.VIRASORO(m, n)
        # outside the window the table reads 0 even where the rule would not
        assert oracle(6, -6) == 0


class TestCoboundary:
    @settings(max_examples=30)
    @given(one_cochain_values())
    def test_coboundary_satisfies_identity(self, values):
        beta = co.OneCochain(6, values)
        report = co.check_cocycle_identity(co.coboundary(beta), 4)
        assert report.status == "pass"

    def test_formula(self):
        beta = co.OneCochain(3, {0: Fraction(1, 2), 3: Fraction(2)})
        omega = co.coboundary(beta)
        assert omega(1, -1) == 2 * Fraction(1, 2)
        assert omega(5, -2) == (5 - (-2)) * Fraction(2)
        assert omega(1, 1) == 0

    @settings(max_examples=30)
    @given(one_cochain_values())
    def test_coboundary_has_no_witness(self, values):
        beta = co.OneCochain(6, values)
        assert co.nontriviality_witness(co.coboundary(beta), 6) is None


SIGN_TABLE = "window\t3\n-1\t1\t1\n-2\t2\t1\n-3\t3\t1\n"


class TestIdentityFailure:
    def test_sign_table_fails_with_known_defect(self):
        oracle = co.parse_cocycle_table(SIGN_TABLE)
        report = co.check_cocycle_identity(oracle, 3)
        assert report.status == "fail"
        assert report.counterexample == {
            "indices": {"n": "-3", "m": "1", "k": "2"},
            "expected": "0",
            "actual": "-2",
        }
        # defect verified by hand:
        # (1-2)w(-3,3) + (2+3)w(1,-1) + (-3-1)w(2,-2) = -1 - 5 + 4 = -2
        assert report.checked_count == 34


@st.composite
def windowed_oracles(draw):
    """A window 0..6 and an oracle to sweep on it.

    Either a random table, sparse or dense, with values of denominators 1..7
    (mostly not a cocycle), or r * VIRASORO + d(beta) composed from oracles,
    optionally plus one shifted pair inside the table window.
    """
    window = draw(st.integers(0, 6))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        table_window = draw(st.integers(0, 2 * window + 1))
        density = draw(st.sampled_from([0.02, 0.1, 0.5, 1.0]))
        entries = {(m, n): Fraction(rng.randint(-6, 6), rng.randint(1, 7))
                   for m in range(-table_window, table_window + 1)
                   for n in range(m + 1, table_window + 1) if rng.random() < density}
        return co.CocycleOracle(lambda m, n: entries.get((m, n), 0)), window
    omega = draw(scalars) * co.VIRASORO + co.coboundary(co.OneCochain(6, draw(one_cochain_values())))
    if draw(st.booleans()):
        m = rng.randint(-window, window)
        n = rng.randint(-window, window)
        shift = draw(scalars)
        omega = omega + co.CocycleOracle(lambda a, b: shift if (a, b) == (m, n) else 0)
    return omega, window


class TestSlabEngine:
    @settings(max_examples=80, deadline=None)
    @given(windowed_oracles())
    def test_report_matches_fraction_triple_loop(self, case):
        omega, window = case
        report = co.check_cocycle_identity(omega, window)
        assert ((report.status, report.checked_count, report.counterexample)
                == cocycle_identity_reference(omega, window))

    def test_window_zero_is_the_single_instance_at_the_origin(self):
        oracle = co.parse_cocycle_table(SIGN_TABLE)
        report = co.check_cocycle_identity(oracle, 0)
        assert (report.status, report.checked_count) == ("pass", 1)
        assert cocycle_identity_reference(oracle, 0) == ("pass", 1, None)

    def test_rank_counts_the_skipped_slabs(self):
        # omega is nonzero only on the slab s = 5, which no triple of the rows
        # n = -3, -2 reaches and which holds on the row n = -1 (m = k = 3); the
        # first defect, (0 - 2) w(3, 2) + (3 - 0) w(2, 3) = 5 at (0, 2, 3), has
        # rank 3 * 7**2 + 5 * 7 + 6 + 1 = 189.
        oracle = co.parse_cocycle_table("window\t3\n2\t3\t1\n")
        report = co.check_cocycle_identity(oracle, 3)
        assert report.to_text() == (
            "FAIL cocycle-identity cocycle='table(window=3)' window=3 checked_count=189 "
            "counterexample.actual=5 counterexample.expected=0 counterexample.indices.k=3 "
            "counterexample.indices.m=2 counterexample.indices.n=0")
        assert ((report.status, report.checked_count, report.counterexample)
                == cocycle_identity_reference(oracle, 3))


class TestReduce:
    def test_virasoro_reduces_to_itself(self):
        beta, r, report = co.reduce_cocycle(co.VIRASORO, 8)
        assert r == 1
        assert beta.items() == []
        assert report.status == "pass"
        assert report.checked_count == 17 ** 2

    def test_pure_coboundary_reduces_to_zero_multiplier(self):
        beta0 = co.OneCochain(4, {0: Fraction(3), 2: Fraction(-1, 2)})
        beta, r, report = co.reduce_cocycle(co.coboundary(beta0), 4)
        assert r == 0
        assert report.status == "pass"
        assert beta == Fraction(-1) * beta0

    @settings(max_examples=25, deadline=None)
    @given(scalars, one_cochain_values(window=6))
    def test_round_trip_recovers_multiplier_and_cochain(self, r0, values):
        beta0 = co.OneCochain(6, values)
        omega = r0 * co.VIRASORO + co.coboundary(beta0)
        beta, r, report = co.reduce_cocycle(omega, 6)
        assert r == r0
        assert beta == Fraction(-1) * beta0
        assert report.status == "pass"

    def test_round_trip_through_table_file_format(self):
        rng = random.Random(20260819)
        for _ in range(5):
            r0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            values = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for n in rng.sample(range(-6, 7), 4)}
            beta0 = co.OneCochain(6, values)
            omega = r0 * co.VIRASORO + co.coboundary(beta0)
            # cochain support reaches index 6, so pairs of the window-6 sweep
            # see the coboundary only if the table extends to twice the window
            restored = co.parse_cocycle_table(co.dump_cocycle_table(omega, 16))
            beta, r, report = co.reduce_cocycle(restored, 6)
            assert r == r0
            assert report.status == "pass"
            for n in range(-6, 7):
                assert beta.value(n) == -beta0.value(n)

    def test_residual_fails_against_a_halved_cocycle(self, monkeypatch):
        # r = 1 is read off the input; the residual then compares with half of it
        original = co.virasoro_cocycle
        monkeypatch.setattr(co, "virasoro_cocycle", lambda m, n: original(m, n) / 2)
        beta, r, report = co.reduce_cocycle(co.VIRASORO, 4)
        assert r == 1
        assert report.to_text() == (
            "FAIL cocycle-reduction-residual cocycle=virasoro r=1 window=4 checked_count=9 "
            "counterexample.actual=-5 counterexample.expected=-5/2 "
            "counterexample.indices.m=-4 counterexample.indices.n=4")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), scalars, one_cochain_values(), st.just(1) | scalars,
           st.dictionaries(st.tuples(indices, indices), scalars, max_size=3))
    def test_residual_matches_full_grid(self, window, r0, values, factor, shifts):
        # the residual compares with virasoro_cocycle, patched here to another
        # odd function: a multiple plus antisymmetric shifts at a few pairs
        original = co.virasoro_cocycle

        def patched(m, n):
            shift = shifts.get((m, n), 0) - shifts.get((n, m), 0)
            return factor * original(m, n) + shift

        omega = r0 * co.VIRASORO + co.coboundary(co.OneCochain(6, values))
        with patch.object(co, "virasoro_cocycle", patched):
            beta, r, report = co.reduce_cocycle(omega, window)
        expected = residual_reference(lambda m, n: r * patched(m, n),
                                      omega + co.coboundary(beta), window)
        assert (report.status, report.checked_count, report.counterexample) == expected

    def test_rejects_identity_violation(self):
        oracle = co.parse_cocycle_table(SIGN_TABLE)
        with pytest.raises(co.CocycleIdentityError, match="not a cocycle on the window"):
            co.reduce_cocycle(oracle, 3)
        try:
            co.reduce_cocycle(oracle, 3)
        except co.CocycleIdentityError as exc:
            assert exc.report.status == "fail"
            assert exc.report.check_name == "cocycle-identity"

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError, match="window"):
            co.reduce_cocycle(co.VIRASORO, 1)


def witness_reference(omega, window):
    """The first pair n1 < n2, by increasing n2 and then n1, whose ratios omega(n, -n)/(2n) differ."""
    for n2 in range(2, window + 1):
        for n1 in range(1, n2):
            if omega(n1, -n1) / (2 * n1) != omega(n2, -n2) / (2 * n2):
                return n1, n2
    return None


class TestWitness:
    def test_virasoro_witness(self):
        assert co.nontriviality_witness(co.VIRASORO, 8) == (1, 2)

    def test_witness_for_scaled_virasoro(self):
        assert co.nontriviality_witness(Fraction(5) * co.VIRASORO, 4) == (1, 2)

    @settings(max_examples=25)
    @given(scalars, one_cochain_values(window=4))
    def test_nonzero_multiplier_forces_witness(self, r0, values):
        omega = r0 * co.VIRASORO + co.coboundary(co.OneCochain(4, values))
        witness = co.nontriviality_witness(omega, 4)
        if r0 == 0:
            assert witness is None
        else:
            # ratio(n) = r0 (n^2 - 1)/24 + beta(0) already splits at n = 2
            assert witness == (1, 2)

    @pytest.mark.parametrize("s", [3, 6])
    def test_witness_past_the_second_ratio(self, s):
        # the coboundary's ratios are all beta(0) = 1/3 (beta(2) is off the antidiagonal);
        # the added pairing moves the ratio at n = s alone
        omega = (co.coboundary(co.OneCochain(6, {0: Fraction(1, 3), 2: -1}))
                 + co.CocycleOracle(lambda m, n: 1 if (m, n) == (-s, s) else 0))
        assert co.nontriviality_witness(omega, 6) == (1, s)

    @given(st.integers(0, 8), st.lists(st.sampled_from([0, Fraction(1, 2), 1]), max_size=8))
    def test_matches_the_pairwise_scan(self, window, ratios):
        # omega(n, -n) = 2n * ratios[n - 1] on the antidiagonal, 0 elsewhere
        omega = co.CocycleOracle(lambda m, n: -2 * n * ratios[n - 1]
                                 if m == -n and n <= len(ratios) else 0)
        assert co.nontriviality_witness(omega, window) == witness_reference(omega, window)

    def test_window_one_has_no_pairs(self):
        assert co.nontriviality_witness(co.VIRASORO, 1) is None


class TestOneCochain:
    @given(one_cochain_values(), free_vectors(max_terms=6), free_vectors(max_terms=6), scalars)
    def test_apply_is_linear(self, values, v, w, a):
        beta = co.OneCochain(5, {1: Fraction(2), -3: Fraction(1, 2)})
        u = FreeVector({1: Fraction(3), -3: Fraction(4), 0: Fraction(9)})
        assert beta.apply(u) == Fraction(3) * Fraction(2) + Fraction(4) * Fraction(1, 2)
        # against a plain Fraction dot product, both sides with denominators
        beta = co.OneCochain(6, values)
        dot = sum((coeff * values.get(n, 0) for n, coeff in v.items()), start=Fraction(0))
        assert beta.apply(v) == dot
        assert beta.apply(v + a * w) == beta.apply(v) + a * beta.apply(w)

    def test_algebra(self):
        a = co.OneCochain(5, {1: 1})
        b = co.OneCochain(5, {1: 2, -2: 3})
        assert (a + b).window == 5
        assert (a + b).value(1) == 3
        assert (-a).value(1) == -1
        assert (Fraction(1, 2) * b).value(-2) == Fraction(3, 2)
        # cochains combine within one window only
        with pytest.raises(ValueError, match=r"cannot combine vectors of window \(3\) and \(5\)"):
            co.OneCochain(3, {1: 1}) + b

    def test_window_enforced(self):
        with pytest.raises(ValueError, match="outside window"):
            co.OneCochain(2, {3: 1})

    def test_negative_window_rejected(self):
        # table input never gets here: the table reader rejects a negative window first
        with pytest.raises(ValueError, match="window must be nonnegative"):
            co.OneCochain(-1)

    def test_zero_values_dropped(self):
        assert co.OneCochain(4, {1: 0, 2: 1, -2: -1}).items() == [
            (-2, Fraction(-1)), (2, Fraction(1))]


class TestTwoCocycleTable:
    def test_antisymmetric_lookup(self):
        table = co.parse_cocycle_table("window\t3\n1\t2\t5\n")
        assert table(1, 2) == 5
        assert table(2, 1) == -5
        assert table(2, 2) == 0
        assert table(1, 3) == 0
        assert table(4, -4) == 0  # off the table, outside the window


def error_cases(*cases):
    """(text, label, message) cases as (text, message) parameters named "text-label"."""
    return [pytest.param(text, message, id=f"{text}-{label}") for text, label, message in cases]


class TestFileFormats:
    def test_cocycle_table_round_trip(self):
        text = co.dump_cocycle_table(co.VIRASORO, 6)
        parsed = co.parse_cocycle_table(text)
        assert parsed.description == "table(window=6)"
        assert co.dump_cocycle_table(parsed, 6) == text

    def test_cochain_round_trip(self):
        beta = co.OneCochain(4, {0: Fraction(1, 2), -3: Fraction(-2)})
        parsed = co.parse_one_cochain(co.dump_one_cochain(beta))
        assert parsed == beta

    def test_comments_blank_lines_and_unicode_minus(self):
        text = "# cocycle sample\nwindow\t4\n\n−2\t2\t−1/2\n# trailing comment\n"
        table = co.parse_cocycle_table(text)
        assert table(-2, 2) == Fraction(-1, 2)

    @pytest.mark.parametrize("text,message", error_cases(
        ("", "missing header", "missing header line 'window<TAB>W'"),
        ("widow\t4\n", "expected header", "line 1: expected header 'window<TAB>W'"),
        ("window\t4\t4\n", "expected header", "line 1: expected header 'window<TAB>W'"),
        ("window\t-1\n", "nonnegative", "line 1: window must be nonnegative"),
        ("window\tx\n", "invalid index", "line 1: invalid index 'x'"),
        ("window\t4\n1\t2\n", "expected 'm<TAB>n<TAB>value'",
         "line 2: expected 'm<TAB>n<TAB>value'"),
        ("window\t4\n2\t1\t5\n", "require m < n", "line 2: require m < n, got (2, 1)"),
        ("window\t4\n1\t5\t5\n", "outside window", "line 2: pair (1, 5) outside window 4"),
        ("window\t4\n1\t2\t5\n1\t2\t5\n", "duplicate pair", "line 3: duplicate pair (1, 2)"),
        ("window\t4\n1\tx\t5\n", "invalid index", "line 2: invalid index 'x'"),
        ("window\t4\n1\t2\t1/0\n", "zero denominator",
         "line 2: invalid scalar '1/0': zero denominator"),
        ("window\t4\n1\t2\t0.5\n", "invalid scalar", "line 2: invalid scalar '0.5'"),
    ))
    def test_cocycle_table_errors(self, text, message):
        with pytest.raises(co.TableFormatError, match=f"^{re.escape(message)}$"):
            co.parse_cocycle_table(text)

    def test_errors_carry_line_numbers(self):
        text = "window\t4\n# fine\n1\t2\t5\n3\t2\t5\n"
        with pytest.raises(co.TableFormatError, match="line 4"):
            co.parse_cocycle_table(text)

    @pytest.mark.parametrize("text,message", error_cases(
        ("", "missing header", "missing header line 'window<TAB>W'"),
        ("window\t4\n1\t2\t3\n", "expected 'n<TAB>value'", "line 2: expected 'n<TAB>value'"),
        ("window\t4\n5\t1\n", "outside window", "line 2: index 5 outside window 4"),
        ("window\t4\n1\t1\n1\t2\n", "duplicate index", "line 3: duplicate index 1"),
        ("window\t4\n1\tabc\n", "invalid scalar", "line 2: invalid scalar 'abc'"),
        ("widow\t4\n", "expected header", "line 1: expected header 'window<TAB>W'"),
        ("window\t-1\n", "nonnegative", "line 1: window must be nonnegative"),
        ("window\t4\nx\t1\n", "invalid index", "line 2: invalid index 'x'"),
        ("window\t4\n1\t1/0\n", "zero denominator",
         "line 2: invalid scalar '1/0': zero denominator"),
    ))
    def test_cochain_errors(self, text, message):
        with pytest.raises(co.TableFormatError, match=f"^{re.escape(message)}$"):
            co.parse_one_cochain(text)

    def test_tabulate_skips_zeros_and_stays_ordered(self):
        records = co.dump_cocycle_table(co.VIRASORO, 4).splitlines()
        assert records[0] == "window\t4"
        keys = [tuple(map(int, record.split("\t")[:2])) for record in records[1:]]
        assert keys == sorted(keys)
        assert all(m < n for m, n in keys)
        assert keys == [(-4, 4), (-3, 3), (-2, 2)]  # value 0 at n = 1 is skipped
