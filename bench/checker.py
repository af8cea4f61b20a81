"""Independent expectations for `vira` reports, and the comparison against them.

Nothing here imports the `virasoro` package.  Expected reports are built from
closed forms (instance counts are products of index-range sizes and partition
counts), from the generator's own parameters (a reduction must return the
multiplier r0 and the cochain -beta0 it was built from), and from plain loops
written for this file (the first cocycle-identity defect in lexicographic
order, the first antidiagonal-ratio mismatch).  A report is correct only if
every JSON line and the exit code match exactly.

    python3 bench/checker.py      # self-test: doctored reports must be rejected
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction


def partitions_up_to(max_level: int) -> int:
    """Number of partitions of 0, 1, ..., max_level."""
    ways = [1] + [0] * max_level
    for part in range(1, max_level + 1):
        for total in range(part, max_level + 1):
            ways[total] += ways[total - part]
    return sum(ways)


def _report(check_name, parameters, checked_count, counterexample=None):
    record = {"check_name": check_name,
              "parameters": {key: str(value) for key, value in parameters.items()},
              "status": "pass" if counterexample is None else "fail",
              "checked_count": checked_count}
    if counterexample is not None:
        record["counterexample"] = counterexample
    return record


def sugawara(max_index, max_level, alpha):
    side = 2 * max_index + 1
    return [_report("sugawara-commutator",
                    {"alpha": alpha, "max_index": max_index, "max_level": max_level},
                    side * side * partitions_up_to(max_level))]


def primary_field(max_index, max_level, alpha):
    side = 2 * max_index + 1
    return [_report("primary-field",
                    {"alpha": alpha, "max_index": max_index, "max_level": max_level},
                    side * side * partitions_up_to(max_level))]


def normal_pair(max_index, max_level, alpha):
    side = 2 * max_index + 1
    return [_report("normal-pair-commutator",
                    {"alpha": alpha, "max_index": max_index, "max_k": max_index,
                     "max_level": max_level},
                    side ** 3 * partitions_up_to(max_level))]


def heisenberg(max_index, max_level, alpha):
    side = 2 * max_index + 1
    return [_report("heisenberg-constants", {"max_index": max_index}, side * side + 2 * side),
            _report("heisenberg-relations",
                    {"alpha": alpha, "max_index": max_index, "max_level": max_level},
                    side * side * partitions_up_to(max_level))]


def verma(max_index, max_level, c, h):
    side = 2 * max_index + 1
    return [_report("verma-relations",
                    {"c": c, "h": h, "max_index": max_index, "max_level": max_level},
                    side * side * partitions_up_to(max_level))]


def verma_hw(c, h):
    # L(0), C, then L(1) .. L(10): the CLI uses the library default of 10.
    return [_report("verma-highest-weight", {"c": c, "h": h, "max_index": 10}, 12)]


def intertwine(max_index, max_level, alpha):
    return [_report("fock-verma-intertwining",
                    {"alpha": alpha, "max_index": max_index, "max_level": max_level},
                    (2 * max_index + 1) * partitions_up_to(max_level))]


def witt_jacobi(max_index):
    return [_report("witt-jacobi", {"max_index": max_index}, (2 * max_index + 1) ** 3)]


def extension(max_index):
    labels = 2 * max_index + 2          # C plus the window basis
    count = (2 * labels                 # centrality, both sides
             + labels + 2 * labels ** 2 + labels ** 3  # alternating, antisymmetry/projection, Jacobi
             + (2 * max_index + 1) + 1)  # sections
    return [_report("extension-predicate",
                    {"base": base, "cocycle": cocycle, "max_index": max_index}, count)
            for base, cocycle in (("witt", "virasoro"), ("abelian", "heisenberg"))]


def virasoro_constants(max_index):
    side = 2 * max_index + 1
    return [_report("virasoro-constants", {"max_index": max_index}, side * side + 2 * side)]


# ---------------------------------------------------------------------------
# Cocycle tables: {(m, n): value} on m < n, antisymmetric, zero off the table.

def table_value(table, m, n):
    if m < n:
        return table.get((m, n), 0)
    if m > n:
        return -table.get((n, m), 0)
    return 0


def first_cocycle_defect(table, window):
    """(position, (n, m, k), defect) of the first failing instance, or None.

    Instances run over |n|, |m|, |k| <= window in lexicographic order, the
    instance reading (m-k) w(n, m+k) + (k-n) w(m, n+k) + (n-m) w(k, n+m) = 0.
    """
    indices = range(-window, window + 1)
    position = 0
    for n in indices:
        for m in indices:
            for k in indices:
                position += 1
                defect = ((m - k) * table_value(table, n, m + k)
                          + (k - n) * table_value(table, m, n + k)
                          + (n - m) * table_value(table, k, n + m))
                if defect:
                    return position, (n, m, k), Fraction(defect)
    return None


def first_ratio_mismatch(table, window):
    """First 1 <= n1 < n2 <= window, by n2 then n1, with w(n,-n)/2n unequal."""
    for n2 in range(2, window + 1):
        ratio2 = Fraction(table_value(table, n2, -n2)) / (2 * n2)
        for n1 in range(1, n2):
            if Fraction(table_value(table, n1, -n1)) / (2 * n1) != ratio2:
                return [n1, n2]
    return None


def cocycle(table, table_window, window):
    """Expected reports and exit code of `verify cocycle --input` on the table."""
    parameters = {"cocycle": f"table(window={table_window})", "window": window}
    found = first_cocycle_defect(table, window)
    if found is None:
        return [_report("cocycle-identity", parameters, (2 * window + 1) ** 3)], 0
    position, (n, m, k), defect = found
    counterexample = {"indices": {"n": str(n), "m": str(m), "k": str(k)},
                      "expected": "0", "actual": str(defect)}
    return [_report("cocycle-identity", parameters, position, counterexample)], 1


def reduce(table_window, window, r0, beta0):
    """Expected `reduce` output for a table built as r0 * omega + d(beta0)."""
    cocycle_name = f"table(window={table_window})"
    beta = [[n, str(-value)] for n, value in sorted(beta0.items()) if value]
    return [{"check_name": "cocycle-reduction",
             "parameters": {"window": str(window), "cocycle": cocycle_name},
             "r": str(r0),
             "beta": {"window": window, "values": beta}},
            _report("cocycle-reduction-residual",
                    {"window": window, "cocycle": cocycle_name, "r": r0},
                    (2 * window + 1) ** 2)]


def nontrivial(table, table_window, window):
    return [{"check_name": "nontriviality-witness",
             "parameters": {"window": str(window), "cocycle": f"table(window={table_window})"},
             "witness": first_ratio_mismatch(table, window)}]


def sum_identity(max_index):
    return [_report("weighted-sum-identity", {"max_n": max_index}, max_index + 1)]


# ---------------------------------------------------------------------------

def verdict(expected, expected_exit, returncode, stdout):
    """None when the invocation's output is exactly right, else the reason."""
    if returncode != expected_exit:
        return f"exit code {returncode}, expected {expected_exit}"
    try:
        reports = [json.loads(line) for line in stdout.splitlines()]
    except ValueError:
        return "stdout is not JSON lines"
    if len(reports) != len(expected):
        return f"{len(reports)} reports, expected {len(expected)}"
    for index, (got, want) in enumerate(zip(reports, expected)):
        if got != want:
            keys = sorted(key for key in set(got) | set(want) if got.get(key) != want.get(key))
            return f"report {index}: mismatch in {', '.join(keys)}"
    return None


def checked_count(expected):
    return sum(report.get("checked_count", 0) for report in expected)


def _render(reports):
    return "".join(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
                   for report in reports)


def self_test():
    """Reasons for every doctored report that was not rejected (empty list on success)."""
    table = {(-1, 1): Fraction(1), (-2, 2): Fraction(1), (-3, 3): Fraction(1)}
    fail_expected, fail_exit = cocycle(table, 3, 3)
    # The committed golden for this table, computed by the CLI.
    golden = ('{"check_name":"cocycle-identity","checked_count":34,"counterexample":'
              '{"actual":"-2","expected":"0","indices":{"k":"2","m":"1","n":"-3"}},'
              '"parameters":{"cocycle":"table(window=3)","window":"3"},"status":"fail"}\n')
    reduce_expected = reduce(8, 4, Fraction(3, 2), {0: Fraction(1), 2: Fraction(-1, 3)})
    sugawara_expected = sugawara(2, 3, Fraction(1, 2))
    cases = [("golden counterexample", fail_expected, fail_exit, fail_exit, golden, True),
             ("golden sugawara", sugawara_expected, 0, 0,
              '{"check_name":"sugawara-commutator","checked_count":175,"parameters":'
              '{"alpha":"1/2","max_index":"2","max_level":"3"},"status":"pass"}\n', True)]

    def doctored(label, expected, exit_code, edit, returncode=None):
        reports = json.loads(json.dumps(expected))
        edit(reports)
        code = exit_code if returncode is None else returncode
        cases.append((label, expected, exit_code, code, _render(reports), False))

    doctored("wrong checked_count", sugawara_expected, 0,
             lambda r: r[0].__setitem__("checked_count", r[0]["checked_count"] + 1))
    doctored("wrong r", reduce_expected, 0, lambda r: r[0].__setitem__("r", "3"))
    doctored("wrong beta", reduce_expected, 0,
             lambda r: r[0]["beta"]["values"][0].__setitem__(1, "1"))
    doctored("wrong counterexample", fail_expected, fail_exit,
             lambda r: r[0]["counterexample"]["indices"].__setitem__("k", "1"))
    doctored("wrong defect", fail_expected, fail_exit,
             lambda r: r[0]["counterexample"].__setitem__("actual", "2"))
    doctored("pass instead of fail", fail_expected, fail_exit,
             lambda r: r[0].__setitem__("status", "pass"))
    doctored("wrong exit code", sugawara_expected, 0, lambda r: None, returncode=1)
    doctored("missing report", extension(2), 0, lambda r: r.pop())

    problems = []
    for label, expected, exit_code, returncode, stdout, should_pass in cases:
        accepted = verdict(expected, exit_code, returncode, stdout) is None
        if accepted != should_pass:
            problems.append(f"{label}: {'rejected' if should_pass else 'accepted'}")
    return problems


if __name__ == "__main__":
    found = self_test()
    for problem in found:
        print(f"self-test FAILED: {problem}")
    if not found:
        print("self-test passed: exact reports accepted, every doctored report rejected")
    sys.exit(1 if found else 0)
