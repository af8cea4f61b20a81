"""Degree-two cohomology calculus for the Witt algebra.

Two-cocycles are consumed through a uniform oracle interface so that
closed-form rules (whose support is never finite) and finite tables loaded
from files can be treated alike.  The central results this module makes
executable: every 2-cocycle on a window splits as r * (the Virasoro cocycle)
plus a coboundary, and the multiplier r together with a ratio-mismatch
witness certifies (non)triviality.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Mapping

from .core import (ZERO, FreeVector, ScalarFormatError, as_scalar, format_scalar, parse_integer,
                   parse_scalar)
from .reports import VerificationReport, counterexample, first_counterexample, mismatch


class TableFormatError(ValueError):
    """Raised for malformed cochain/cocycle table files."""


class CocycleIdentityError(ValueError):
    """Input rejected because the cocycle identity fails on the window."""

    def __init__(self, report: VerificationReport):
        self.report = report
        indices = report.counterexample["indices"]
        super().__init__(
            "not a cocycle on the window: identity defect "
            f"{report.counterexample['actual']} at "
            f"(n={indices['n']}, m={indices['m']}, k={indices['k']})")


class OneCochain(FreeVector):
    """Linear functional on the Witt algebra: the vector of its values on l(n).

    The module is (window,): only indices with |n| <= window may carry
    nonzero values, and cochains of one window combine linearly.  The
    functional itself is total, with value 0 everywhere outside the table.
    """

    __slots__ = ()
    parameters, noun = ("window",), "window"

    def __init__(self, window: int, values: Mapping | Iterable | None = None):
        if window < 0:
            raise ValueError("window must be nonnegative")
        super().__init__(values)
        for n in self._num:
            if abs(n) > window:
                raise ValueError(f"entry at index {n} outside window {window}")
        self.module = (window,)

    value = FreeVector.coeff

    def apply(self, v: FreeVector) -> Fraction:
        get = self._num.get
        return Fraction(sum(value * get(n, 0) for n, value in v._num.items()),
                        self._den * v._den)


class CocycleOracle:
    """Total antisymmetric basis-pair function (m, n) -> scalar.

    The wrapped rule is only consulted on ordered pairs m < n, which makes
    antisymmetry structural regardless of the rule; a table read from a file
    is the rule that looks its pairs up and reads 0 off the table.  Oracles
    combine linearly, so r * VIRASORO + coboundary(beta) is again an oracle;
    a combination composes the rules, so antisymmetry and the scalar
    coercion run once per evaluation.
    """

    __slots__ = ("_rule", "description")

    def __init__(self, rule: Callable[[int, int], Fraction], description: str = "cocycle"):
        self._rule = rule
        self.description = description

    def __call__(self, m: int, n: int) -> Fraction:
        if m == n:
            return ZERO
        if m < n:
            return as_scalar(self._rule(m, n))
        return -as_scalar(self._rule(n, m))

    def __add__(self, other: "CocycleOracle") -> "CocycleOracle":
        left, right = self._rule, other._rule
        return CocycleOracle(lambda m, n: left(m, n) + right(m, n),
                             f"({self.description} + {other.description})")

    def __rmul__(self, scalar) -> "CocycleOracle":
        scalar, rule = as_scalar(scalar), self._rule
        return CocycleOracle(lambda m, n: scalar * rule(m, n), f"{scalar}*{self.description}")


def virasoro_cocycle(m: int, n: int) -> Fraction:
    """(m^3 - m)/12 on index pairs summing to zero, else 0."""
    if m + n != 0:
        return ZERO
    return Fraction(m**3 - m, 12)


VIRASORO = CocycleOracle(virasoro_cocycle, "virasoro")


def coboundary(beta: OneCochain) -> CocycleOracle:
    """The 2-cocycle (m, n) -> (m - n) * beta(l(m + n)) induced by a functional."""
    return CocycleOracle(lambda m, n: (m - n) * beta.value(m + n), "coboundary")


def check_cocycle_identity(omega: CocycleOracle, window: int) -> VerificationReport:
    """Cocycle identity on all basis triples with |n|, |m|, |k| <= window.

    The identity instance at (n, m, k) reads
        (m - k) w(n, m + k) + (k - n) w(m, n + k) + (n - m) w(k, n + m) = 0,
    that is, only pairs summing to s = n + m + k.  With f_s(a) = w(a, s - a)
    the defect is (m - k) f_s(n) + (k - n) f_s(m) + (n - m) f_s(k), so every
    instance of a slab s on which f_s vanishes holds exactly, and only the
    other slabs are swept.  omega is tabulated once on |a| <= window,
    |b| <= 2 * window as integer numerators over one denominator.  Triples
    are ranked in lexicographic order of (n, m, k); the first failing one is
    the counterexample, and its rank the checked count.  The defect is
    alternating in (n, m, k), so the failing triples are the permutations of
    failing triples n < m < k, and the first of them is ascending: only
    ascending triples are swept.
    """
    parameters = {"window": str(window), "cocycle": omega.description}
    side = 2 * window + 1
    indices = range(-window, window + 1)
    table = FreeVector(((a + b, a), omega(a, b))
                       for a in indices for b in range(-2 * window, 2 * window + 1))
    # rows[s][a] is the numerator of f_s(a); a negative a indexes from the end,
    # and the indices -window..window never collide in a list of length side.
    rows: dict[int, list[int]] = {}
    for (s, a), value in table._num.items():
        rows.setdefault(s, [0] * side)[a] = value
    slabs = sorted(rows)
    for n in indices:
        for m in range(n + 1, window + 1):
            t = n + m
            # ascending s is ascending k = s - t; only slabs with m < k <= window
            for s in slabs[bisect_right(slabs, t + m):bisect_right(slabs, t + window)]:
                f = rows[s]
                k = s - t
                defect = (m - k) * f[n] + (k - n) * f[m] + (n - m) * f[k]
                if defect:
                    found = counterexample({"n": n, "m": m, "k": k}, expected="0",
                                           actual=format_scalar(Fraction(defect, table._den)))
                    before = ((n + window) * side + m + window) * side + k + window
                    return first_counterexample("cocycle-identity", parameters, [before, found])
    return first_counterexample("cocycle-identity", parameters, [side ** 3])


def reduce_cocycle(omega: CocycleOracle, window: int):
    """Split a window-verified cocycle as r * virasoro + coboundary.

    Returns (beta, r, residual_report).  The correcting functional beta is
    chosen so that (omega + d beta)(l0, .) vanishes on 0 < |n| <= 2W, the
    index sums of the window pairs: beta(l0) normalizes the (1, -1) value and
    beta(ln) = omega(l0, ln)/n kills the rest of that l0 row.  beta's window
    is W when it vanishes past W, else 2W.  The multiplier r is then fixed by
    the corrected value at (2, -2), and the residual sweep verifies
    omega + d beta = r * virasoro on every pair of the window.  Both sides are
    antisymmetric, so the first failing pair in lexicographic order has m < n
    and only those pairs are compared; every other pair of the (2W+1)^2 counts
    as holding.

    A cocycle-identity failure on the window is a rejected input
    (CocycleIdentityError), not a failing report.
    """
    if window < 2:
        raise ValueError("reduction needs window >= 2")
    precondition = check_cocycle_identity(omega, window)
    if not precondition.passed():
        raise CocycleIdentityError(precondition)

    values = {n: omega(0, n) / n for n in range(-2 * window, 2 * window + 1) if n}
    values[0] = -omega(1, -1) / 2
    wide = any(value for n, value in values.items() if abs(n) > window)
    beta = OneCochain(2 * window if wide else window, values)
    corrected = omega + coboundary(beta)
    r = 2 * corrected(2, -2)  # virasoro_cocycle(2, -2) = 1/2

    parameters = {"window": str(window), "cocycle": omega.description, "r": format_scalar(r)}
    return beta, r, first_counterexample("cocycle-reduction-residual", parameters, (
        mismatch({"m": m, "n": n}, r * virasoro_cocycle(m, n), corrected(m, n), format_scalar)
        if m < n else None for m, n in product(range(-window, window + 1), repeat=2)))


def nontriviality_witness(omega: CocycleOracle, window: int):
    """First pair (1, n), 2 <= n <= window, with mismatched antidiagonal ratios.

    A coboundary forces omega(ln, l-n) = 2n * beta(l0), so the ratios
    omega(n, -n)/(2n) of a trivial cocycle agree for all n.  The first
    mismatched pair n1 < n2 by increasing n2, then n1, is always (1, n2): no
    earlier n2 had a mismatch, so every ratio before n2 equals the first one.
    None means every ratio in the window is consistent.
    """
    first = omega(1, -1) / 2
    return next(((1, n) for n in range(2, window + 1) if omega(n, -n) / (2 * n) != first), None)


# ---------------------------------------------------------------------------
# File formats.  Both are tab-separated with full-line comments introduced by
# "#" and a mandatory first record "window<TAB>W"; cocycle tables then carry
# "m<TAB>n<TAB>value" lines with m < n, one-cochains carry "n<TAB>value".

def _parse_index(token: str, lineno: int) -> int:
    try:
        return parse_integer(token)
    except ScalarFormatError:
        raise TableFormatError(f"line {lineno}: invalid index {token!r}") from None


def _read_table(text: str, *names: str) -> tuple[int, dict]:
    """The window and the {key: value} rows of a table whose rows are "names...<TAB>value".

    A row's key is its index, or the tuple of its indices for several names;
    the indices ascend strictly (m < n), lie in the window and no key repeats.
    """
    records = [(lineno, line.split("\t"))
               for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1)
               if line and not line.startswith("#")]
    if not records:
        raise TableFormatError("missing header line 'window<TAB>W'")
    (lineno, fields), *records = records
    if len(fields) != 2 or fields[0] != "window":
        raise TableFormatError(f"line {lineno}: expected header 'window<TAB>W'")
    window = _parse_index(fields[1], lineno)
    if window < 0:
        raise TableFormatError(f"line {lineno}: window must be nonnegative")
    layout, noun = "<TAB>".join(names + ("value",)), "pair" if len(names) > 1 else "index"
    rows: dict = {}
    for lineno, fields in records:
        if len(fields) != len(names) + 1:
            raise TableFormatError(f"line {lineno}: expected '{layout}'")
        indices = [_parse_index(token, lineno) for token in fields[:-1]]
        try:
            value = parse_scalar(fields[-1])
        except ScalarFormatError as exc:
            raise TableFormatError(f"line {lineno}: {exc}") from None
        key = tuple(indices) if len(indices) > 1 else indices[0]
        if indices != sorted(set(indices)):
            raise TableFormatError(f"line {lineno}: require {' < '.join(names)}, got {key}")
        if max(map(abs, indices)) > window:
            raise TableFormatError(f"line {lineno}: {noun} {key} outside window {window}")
        if key in rows:
            raise TableFormatError(f"line {lineno}: duplicate {noun} {key}")
        rows[key] = value
    return window, rows


def _write_table(window: int, rows: Iterable[tuple]) -> str:
    """The header, then one "indices...<TAB>value" line per (*indices, value) row."""
    lines = [f"window\t{window}"]
    lines += ["\t".join([*map(str, indices), format_scalar(value)]) for *indices, value in rows]
    return "\n".join(lines) + "\n"


def parse_cocycle_table(text: str) -> CocycleOracle:
    window, entries = _read_table(text, "m", "n")
    return CocycleOracle(lambda m, n: entries.get((m, n), ZERO), f"table(window={window})")


def load_cocycle_table(path) -> CocycleOracle:
    with open(path, "rb") as file:
        data = file.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise TableFormatError(f"line {lineno}: not UTF-8 text") from None
    return parse_cocycle_table(text)


def dump_cocycle_table(omega: CocycleOracle, window: int) -> str:
    """The table of omega's nonzero values on the ordered pairs m < n of the window."""
    return _write_table(window, ((m, n, value) for m in range(-window, window + 1)
                                 for n in range(m + 1, window + 1) for value in (omega(m, n),)
                                 if value))


def parse_one_cochain(text: str) -> OneCochain:
    return OneCochain(*_read_table(text, "n"))


def dump_one_cochain(beta: OneCochain) -> str:
    return _write_table(beta.window, beta.items())
