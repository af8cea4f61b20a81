from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN, free_vectors, invoke, one_cochain_values, scalars
from oracles import extension_predicate_reference
from virasoro import cohomology as co
from virasoro import extension as ext
from virasoro import witt
from virasoro.core import FreeVector


def vir_bracket(u, v):
    return ext.ext_bracket(ext.WITT, co.VIRASORO, u, v)


def read_the_right_center(monkeypatch):
    """Patch ext_bracket to add center(v) * body(u): of the basis brackets, only [l(n), C] moves."""
    original = ext.ext_bracket
    monkeypatch.setattr(ext, "ext_bracket", lambda base, omega, u, v: (
        original(base, omega, u, v) + ext.std_section(v.center * u.body)))


class TestHeisenbergCocycle:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_antidiagonal(self, k):
        assert ext.HEISENBERG(k, -k) == k
        assert ext.HEISENBERG(-k, k) == -k

    def test_off_antidiagonal(self):
        assert ext.HEISENBERG(2, 3) == 0
        assert ext.HEISENBERG(0, 0) == 0

    def test_identity_over_abelian_base(self):
        # for an abelian bracket any antisymmetric pairing is a cocycle; the
        # identity reduces to plain antisymmetry, so the full window passes
        report = ext.check_extension_predicate(ext.ABELIAN, ext.HEISENBERG, 3)
        assert report.status == "pass"


class TestExtElement:
    def test_algebra(self):
        u = ext.ExtElement(FreeVector({1: 2}), Fraction(3))
        v = ext.ExtElement(FreeVector({1: -2}), Fraction(1, 2))
        assert (u + v).body.is_zero()
        assert (u + v).center == Fraction(7, 2)
        assert (u - u).is_zero()
        assert (-u).center == -3
        assert (Fraction(1, 2) * u).body == FreeVector({1: 1})

    def test_sections(self):
        x = FreeVector({2: 1, -1: 3})
        assert ext.proj(ext.std_section(x)) == x
        assert ext.std_section(x).center == 0
        assert ext.proj(ext.emb(5)).is_zero()
        assert ext.emb(5).center == 5

    def test_decomposition(self):
        u = ext.ExtElement(FreeVector({3: 1}), Fraction(-2))
        assert ext.std_section(ext.proj(u)) + ext.emb(u.center) == u

    def test_items_and_repr(self):
        # C is the index (), l(n) the index (n,); the body is read back in lowest terms
        u = ext.ExtElement(FreeVector({2: Fraction(1, 2), -1: 3}), Fraction(-2, 3))
        assert u.items() == [((), Fraction(-2, 3)), ((-1,), Fraction(3)), ((2,), Fraction(1, 2))]
        assert repr(u) == ("ExtElement({(): Fraction(-2, 3), (-1,): Fraction(3, 1), "
                           "(2,): Fraction(1, 2)})")
        assert u.body == FreeVector({2: Fraction(1, 2), -1: 3})
        assert u.center == Fraction(-2, 3)


class TestExtBracket:
    @pytest.mark.parametrize("m,n,central", [
        (2, -2, Fraction(1, 2)),
        (3, -3, Fraction(2)),
        (1, 2, Fraction(0)),
        (1, -1, Fraction(0)),
    ])
    def test_virasoro_relations(self, m, n, central):
        value = vir_bracket(ext.std_section(FreeVector.basis(m)),
                            ext.std_section(FreeVector.basis(n)))
        assert value.body == FreeVector.basis(m + n, m - n)
        assert value.center == central

    def test_heisenberg_relations(self):
        value = ext.ext_bracket(ext.ABELIAN, ext.HEISENBERG, ext.std_section(FreeVector.basis(2)),
                                ext.std_section(FreeVector.basis(-2)))
        assert value.body.is_zero()
        assert value.center == 2

    @given(free_vectors(max_terms=3), free_vectors(max_terms=3), scalars, scalars)
    def test_centers_of_inputs_are_invisible(self, x, y, a, b):
        u = ext.ExtElement(x, 0)
        v = ext.ExtElement(y, 0)
        shifted = vir_bracket(u + ext.emb(a), v + ext.emb(b))
        assert shifted == vir_bracket(u, v)

    @settings(max_examples=40)
    @pytest.mark.parametrize("base", ["witt", "abelian"])
    @given(free_vectors(max_terms=3), free_vectors(max_terms=3), scalars, scalars, scalars,
           one_cochain_values())
    def test_matches_reference(self, base, x, y, a, b, r, values):
        if base == "witt":
            algebra, omega = ext.WITT, r * co.VIRASORO + co.coboundary(co.OneCochain(6, values))
            body = witt.bracket(x, y)
        else:
            algebra, omega, body = ext.ABELIAN, ext.HEISENBERG, FreeVector.zero()
        center = sum((p * q * omega(m, n) for m, p in x.items() for n, q in y.items()),
                     start=Fraction(0))
        value = ext.ext_bracket(algebra, omega, ext.ExtElement(x, a), ext.ExtElement(y, b))
        assert value.body == body
        assert value.center == center
        assert value == ext.ExtElement(body, center)

    @given(free_vectors(max_terms=3), free_vectors(max_terms=3))
    def test_antisymmetry(self, x, y):
        u, v = ext.std_section(x), ext.std_section(y)
        assert vir_bracket(u, v) == -vir_bracket(v, u)


class TestStructureConstants:
    def test_virasoro_pass(self):
        report = ext.check_virasoro_constants(4)
        assert report.status == "pass"
        assert report.checked_count == 9 ** 2 + 2 * 9

    def test_heisenberg_pass(self):
        assert ext.check_heisenberg_constants(4).status == "pass"

    # Each defect below is in the extension the check brackets with; the
    # closed forms are written out in the check, so it must see the defect.
    @pytest.mark.parametrize("name,value,check,expected,actual", [
        ("VIRASORO", co.CocycleOracle(lambda m, n: Fraction(m**3 - m, 24) if m + n == 0 else 0,
                                      "halved"),
         ext.check_virasoro_constants, "-8·l(0) ⊕ -5·C", "-8·l(0) ⊕ -5/2·C"),
        ("HEISENBERG", co.CocycleOracle(lambda k, l: Fraction(0), "zero"),
         ext.check_heisenberg_constants, "0 ⊕ -4·C", "0 ⊕ 0·C"),
    ], ids=["halved-virasoro", "zero-heisenberg"])
    def test_wrong_cocycle_fails(self, monkeypatch, name, value, check, expected, actual):
        monkeypatch.setattr(ext, name, value)
        report = check(4)
        assert report.status == "fail"
        assert report.checked_count == 9
        assert report.counterexample == {"indices": {"m": "-4", "n": "4"},
                                         "expected": expected, "actual": actual}

    @pytest.mark.parametrize("check", [ext.check_virasoro_constants,
                                       ext.check_heisenberg_constants])
    def test_right_hand_center_fails_the_center_row(self, monkeypatch, check):
        # 25 generator pairs and [C, l(-2)] hold; [l(-2), C] is the first to read the C on the right
        read_the_right_center(monkeypatch)
        report = check(2)
        assert report.checked_count == 27
        assert report.counterexample == {"indices": {"left": "-2", "n": "-2"},
                                         "expected": "0 ⊕ 0·C", "actual": "1·l(-2) ⊕ 0·C"}

    def test_flipped_witt_bracket_fails(self, monkeypatch):
        flipped = ext.BaseAlgebra("witt", lambda m, n: FreeVector.basis(m + n, n - m))
        monkeypatch.setattr(ext, "WITT", flipped)
        report = ext.check_virasoro_constants(4)
        assert report.status == "fail"
        assert report.checked_count == 2
        assert report.counterexample == {"indices": {"m": "-4", "n": "-3"},
                                         "expected": "-1·l(-7) ⊕ 0·C",
                                         "actual": "1·l(-7) ⊕ 0·C"}


class TestExtensionPredicate:
    def test_witt_virasoro_pass(self):
        report = ext.check_extension_predicate(ext.WITT, co.VIRASORO, 3)
        assert report.status == "pass"
        assert report.parameters == {"max_index": "3", "base": "witt",
                                     "cocycle": "virasoro"}

    def test_corrupted_base_fails_in_bracket_leg(self):
        def broken_pair(m, n):
            if (m, n) == (1, 2):
                return FreeVector.basis(3, 5)
            return FreeVector.basis(m + n, m - n)

        broken = ext.BaseAlgebra("broken", broken_pair)
        report = ext.check_extension_predicate(broken, co.VIRASORO, 3)
        assert report.status == "fail"
        assert report.counterexample["leg"] == "bracket"
        # 16 centrality and 8 alternating instances, then two per ordered pair
        assert report.checked_count == 117
        assert report.counterexample == {
            "indices": {"u": "1", "v": "2"}, "leg": "bracket",
            "expected": "-1·l(3) ⊕ 0·C", "actual": "5·l(3) ⊕ 0·C"}

    def test_right_hand_center_fails_the_centrality_leg(self, monkeypatch):
        # [C, C], [C, C] and [C, l(-2)] hold; [l(-2), C], the 4th instance, reads the right center
        read_the_right_center(monkeypatch)
        report = ext.check_extension_predicate(ext.WITT, co.VIRASORO, 2)
        assert report.to_text() == (
            "FAIL extension-predicate base=witt cocycle=virasoro max_index=2 checked_count=4 "
            "counterexample.actual='1·l(-2) ⊕ 0·C' counterexample.expected='0 ⊕ 0·C' "
            "counterexample.indices.left=-2 counterexample.indices.u=-2 "
            "counterexample.leg=centrality")

    def test_diagonal_defect_fails_the_alternating_check(self):
        # [l(1), l(1)] = l(2), nothing else changed: [u, u] = 0 fails at u = l(1), the 17th
        # instance after 12 centrality ones and u = C, l(-2), ..., l(0); antisymmetry sees it at 75
        def pair(m, n):
            return FreeVector.basis(2) if (m, n) == (1, 1) else witt.bracket_pair(m, n)

        report = ext.check_extension_predicate(ext.BaseAlgebra("broken", pair), co.VIRASORO, 2)
        assert report.to_text() == (
            "FAIL extension-predicate base=broken cocycle=virasoro max_index=2 checked_count=17 "
            "counterexample.actual='1·l(2) ⊕ 0·C' counterexample.expected='0 ⊕ 0·C' "
            "counterexample.indices.u=1 counterexample.leg=bracket")

    def test_section_off_the_projection_fails_the_section_leg(self, monkeypatch):
        # every bracket holds; only proj(std_section(x)) = x reads the section
        monkeypatch.setattr(ext, "std_section", lambda x: ext.ExtElement(2 * x))
        report = ext.check_extension_predicate(ext.WITT, co.VIRASORO, 2)
        assert report.to_text() == (
            "FAIL extension-predicate base=witt cocycle=virasoro max_index=2 checked_count=307 "
            "counterexample.actual='2·l(-2)' counterexample.expected='1·l(-2)' "
            "counterexample.indices.n=-2 counterexample.leg=section")

    def test_non_cocycle_fails_jacobi_inside_bracket_leg(self):
        text = "window\t3\n-1\t1\t1\n-2\t2\t1\n-3\t3\t1\n"
        bad = co.parse_cocycle_table(text)
        report = ext.check_extension_predicate(ext.WITT, bad, 3)
        assert report.status == "fail"
        assert report.counterexample["leg"] == "bracket"
        # centrality, the first leg, is untouched by the bad pairing
        assert "w" in report.counterexample["indices"]
        assert report.checked_count == 263
        assert report.counterexample == {
            "indices": {"u": "-3", "v": "1", "w": "2"}, "leg": "bracket",
            "expected": "0 ⊕ 0·C", "actual": "0 ⊕ -2·C"}


    def test_bracket_reading_the_centers_fails_the_projection_leg(self, monkeypatch):
        original = ext.ext_bracket

        def reads_centers(base, omega, u, v):
            # invisible on basis pairs, where one side has no center or no body
            extra = u.center * v.center * (u.body + v.body)
            return original(base, omega, u, v) + ext.std_section(extra)

        assert ext.check_extension_predicate(ext.WITT, co.VIRASORO, 2).passed()
        monkeypatch.setattr(ext, "ext_bracket", reads_centers)
        report = ext.check_extension_predicate(ext.WITT, co.VIRASORO, 2)
        # the projection leg brackets (C + C, l(-2) - C)
        assert report.to_text() == (
            "FAIL extension-predicate base=witt cocycle=virasoro max_index=2 checked_count=22 "
            "counterexample.actual='-2·l(-2)' counterexample.expected=0 "
            "counterexample.indices.u=C counterexample.indices.v=-2 counterexample.leg=bracket")

    def test_projection_keeping_the_center_fails_the_section_leg(self, monkeypatch):
        # on the trivial extension of the abelian algebra every bracket is 0, so
        # only proj(C) = 0 tells a projection that keeps C, here as l(0)
        zero = co.CocycleOracle(lambda m, n: 0, "zero")
        assert ext.check_extension_predicate(ext.ABELIAN, zero, 2).passed()
        monkeypatch.setattr(ext, "proj", lambda u: u.body + FreeVector.basis(0, u.center))
        report = ext.check_extension_predicate(ext.ABELIAN, zero, 2)
        assert report.to_text() == (
            "FAIL extension-predicate base=abelian cocycle=zero max_index=2 checked_count=312 "
            "counterexample.actual='1·l(0)' counterexample.expected=0 "
            "counterexample.indices.u=C counterexample.leg=section")

    def test_each_basis_bracket_is_computed_once(self, monkeypatch):
        calls = []
        original = ext.ext_bracket

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ext, "ext_bracket", counted)
        report = ext.check_extension_predicate(ext.WITT, co.VIRASORO, 3)
        assert report.status == "pass"
        # N = 8 labeled elements: the table holds the N^2 labeled pairs, the
        # projection leg brackets N^2 center-shifted pairs, and the outer
        # brackets add [x, l(s)] for 3 < |s| <= 5 and each of the N elements x
        # but l(a) and l(b), where s = a + b with a != b in the window: only a
        # triple with a repeat reads those, and only ascending triples are decided.
        # Bracketing every Jacobi instance afresh made 6 N^3 = 3,072 calls.
        assert len(calls) == 64 + 64 + 8 * 4 - 4 * 2

    def test_jacobi_leg_decides_ascending_triples_only(self, monkeypatch):
        records = []
        original = ext.decide_record

        def recorded(identity, starts, render, indices):
            records.append((indices["m"], indices["n"], list(starts)))
            return original(identity, starts, render, indices)

        monkeypatch.setattr(ext, "decide_record", recorded)
        result = invoke("verify", "extension", "--max-index", "3", "--format", "json")
        assert result == (0, (GOLDEN / "extension.jsonl").read_text(encoding="utf-8"))
        # per predicate, the C(8, 2) records (u, v) with u before v in the labeled order, each
        # with the starts w after v: C(8, 3) triples, where deciding all made 8^2 and 8^3
        order = [()] + [(n,) for n in range(-3, 4)]
        ascending = [(u, v, order[b + 1:]) for a, u in enumerate(order)
                     for b, v in enumerate(order) if a < b]
        assert records == 2 * ascending
        assert (len(ascending), sum(len(starts) for *_, starts in ascending)) == (28, 56)


class TestJacobiOrderWithinRecord:
    """The Jacobi leg decides a record (u, v) for all w after v in one pass; the report is still
    the first w."""

    def check(self, base, omega, text):
        report = ext.check_extension_predicate(base, omega, 2)
        assert report.to_text() == text
        expected = extension_predicate_reference(
            lambda m, n: dict(base.bracket_pair(m, n).items()), omega, 2)
        assert (report.status, report.checked_count, report.counterexample) == expected

    def test_last_w_of_a_record(self):
        # omega(l(-1), l(0)) = 1 is not a cocycle: record (-2, -1) fails at w = 2 only
        omega = co.CocycleOracle(lambda m, n: 1 if (m, n) == (-1, 0) else 0, "table")
        self.check(ext.WITT, omega, (
            "FAIL extension-predicate base=witt cocycle=table max_index=2 checked_count=144 "
            "counterexample.actual='0 ⊕ 4·C' counterexample.expected='0 ⊕ 0·C' "
            "counterexample.indices.u=-2 counterexample.indices.v=-1 "
            "counterexample.indices.w=2 counterexample.leg=bracket"))

    def test_earlier_of_two_failing_w(self):
        # [l(-1), l(0)] = l(1), kept antisymmetric: record (-2, -1) fails at w = 0 and w = 2
        def pair(m, n):
            sign = {(-1, 0): 1, (0, -1): -1}.get((m, n))
            return witt.bracket_pair(m, n) if sign is None else FreeVector.basis(1, sign)

        broken = ext.BaseAlgebra("broken", pair)

        def bracket(x, y):
            return ext.ext_bracket(broken, co.VIRASORO, x, y)

        u, v, w = (ext.std_section(FreeVector.basis(n)) for n in (-2, -1, 2))
        assert bracket(u, bracket(v, w)) + bracket(v, bracket(w, u)) + bracket(w, bracket(u, v))
        self.check(broken, co.VIRASORO, (
            "FAIL extension-predicate base=broken cocycle=virasoro max_index=2 checked_count=142 "
            "counterexample.actual='-1·l(-3) + -3·l(-1) ⊕ 0·C' "
            "counterexample.expected='0 ⊕ 0·C' counterexample.indices.u=-2 "
            "counterexample.indices.v=-1 counterexample.indices.w=0 counterexample.leg=bracket"))


@st.composite
def extension_cases(draw):
    """A window 0..3 and a base algebra with a pairing to run the predicate on.

    Either the Witt bracket changed at one basis pair (sometimes into itself),
    or changed by x at [l(m), l(n)] and by -x at [l(n), l(m)] for m != n in the
    window (an antisymmetric defect, which passes every leg before Jacobi), with
    the Virasoro cocycle, or the Witt or abelian bracket with a random
    table (on windows of two and more mostly not a cocycle) or with
    r * VIRASORO + d(beta), optionally shifted at one pair.  The predicate
    reads brackets of a window index with indices up to twice the window, and
    the changes lie there.
    """
    kind = draw(st.sampled_from(["base", "antisymmetric", "table", "shifted"]))
    window = draw(st.integers(1 if kind == "antisymmetric" else 0, 3))
    inner, outer = st.integers(-window, window), st.integers(-2 * window, 2 * window)
    if kind in ("base", "antisymmetric"):
        defect = draw(free_vectors(max_terms=2, index_bound=2 * window))
        if kind == "base":
            changed = {(draw(inner), draw(outer)): defect}
        else:
            m, n = draw(st.lists(inner, min_size=2, max_size=2, unique=True))
            changed = {(m, n): defect, (n, m): -defect}
        broken = ext.BaseAlgebra("broken", lambda a, b: witt.bracket_pair(a, b)
                                 + changed.get((a, b), FreeVector.zero()))
        return window, broken, co.VIRASORO
    base = draw(st.sampled_from([ext.WITT, ext.ABELIAN]))
    if kind == "table":
        rng = draw(st.randoms(use_true_random=False))
        density = draw(st.sampled_from([0.05, 0.2, 1.0]))
        entries = {(m, n): Fraction(rng.randint(-6, 6), rng.randint(1, 7))
                   for m in range(-2 * window, 2 * window + 1)
                   for n in range(m + 1, 2 * window + 1) if rng.random() < density}
        return window, base, co.CocycleOracle(lambda m, n: entries.get((m, n), 0), "table")
    omega = draw(scalars) * co.VIRASORO + co.coboundary(co.OneCochain(6, draw(one_cochain_values())))
    if draw(st.booleans()):
        # the oracle consults its rule on ordered pairs only
        m = draw(inner)
        n, shift = draw(st.integers(m + 1, max(m + 1, 2 * window))), draw(scalars.filter(bool))
        omega = omega + co.CocycleOracle(lambda a, b: shift if (a, b) == (m, n) else 0)
    return window, base, omega


class TestPredicateAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(extension_cases())
    def test_report_matches_per_instance_brackets(self, case):
        window, base, omega = case
        report = ext.check_extension_predicate(base, omega, window)
        expected = extension_predicate_reference(
            lambda m, n: dict(base.bracket_pair(m, n).items()), omega, window)
        assert (report.status, report.checked_count, report.counterexample) == expected


class TestTwist:
    @settings(max_examples=40)
    @given(free_vectors(max_terms=3), free_vectors(max_terms=3),
           scalars, scalars, one_cochain_values())
    def test_twist_intertwines_shifted_cocycles(self, x, y, a, b, values):
        beta = co.OneCochain(6, values)
        shifted = co.VIRASORO + co.coboundary(beta)
        u = ext.ExtElement(x, a)
        v = ext.ExtElement(y, b)
        lhs = vir_bracket(ext.twist_by_coboundary(beta, u),
                          ext.twist_by_coboundary(beta, v))
        rhs = ext.twist_by_coboundary(
            beta, ext.ext_bracket(ext.WITT, shifted, u, v))
        assert lhs == rhs

    def test_orientation_matters(self):
        # running the same identity with the two cocycles exchanged must fail
        beta = co.OneCochain(1, {0: Fraction(1)})
        shifted = co.VIRASORO + co.coboundary(beta)
        u, v = ext.std_section(FreeVector.basis(1)), ext.std_section(FreeVector.basis(-1))
        lhs = ext.ext_bracket(ext.WITT, shifted,
                              ext.twist_by_coboundary(beta, u),
                              ext.twist_by_coboundary(beta, v))
        rhs = ext.twist_by_coboundary(beta, vir_bracket(u, v))
        assert lhs != rhs

    def test_twist_only_moves_the_center(self):
        beta = co.OneCochain(2, {1: Fraction(3)})
        u = ext.ExtElement(FreeVector({1: Fraction(2)}), Fraction(5))
        twisted = ext.twist_by_coboundary(beta, u)
        assert twisted.body == u.body
        assert twisted.center == Fraction(5) - Fraction(6)


class TestFormat:
    def test_element(self):
        u = ext.ExtElement(FreeVector({0: 6}), Fraction(2))
        assert ext.format_element(u) == "6·l(0) ⊕ 2·C"

    def test_zero(self):
        assert ext.format_element(ext.ExtElement(FreeVector.zero(), 0)) == "0 ⊕ 0·C"
