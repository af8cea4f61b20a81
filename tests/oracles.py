"""Independent reference evaluators used only by the tests.

The production modules act on basis vectors through tailored recursions.
The reference here is deliberately different: an operator word is rewritten
as free text, moving out-of-order factors rightward one adjacent swap at a
time and emitting bracket terms, until every surviving word is a canonical
monomial.  Agreement between the two routes is what the comparison tests
certify, so nothing in this file may import the recursions it checks.

A word (x1, ..., xk) denotes the composite X_{x1} ... X_{xk} applied to the
highest-weight (or vacuum) vector, rightmost factor first.  Canonical words
have all entries negative and weakly increasing, which matches the
partition encoding: word (-p1, ..., -pm) <-> partition (p1 >= ... >= pm).

The cocycle identity's reference is the plain Fraction loop over every
triple, without the slab skip or the integer table of the library sweep.
"""

from collections import defaultdict
from fractions import Fraction


def virasoro_rule(c):
    """Bracket fragments for [X_a, X_b] in a module with central value c."""
    def rule(a, b):
        fragments = [((a + b,), Fraction(a - b))]
        if a + b == 0:
            fragments.append(((), Fraction(a**3 - a, 12) * c))
        return fragments
    return rule


def heisenberg_rule(a, b):
    return [((), Fraction(a))] if a + b == 0 else []


def rewrite(word, rule, weight0):
    """Expand a word over canonical monomials: {word: coefficient}.

    rule(a, b) lists the replacement fragments of [X_a, X_b]; weight0 is
    the eigenvalue of X_0 on the cyclic vector.
    """
    result = defaultdict(Fraction)
    stack = [(tuple(word), Fraction(1))]
    while stack:
        w, coeff = stack.pop()
        if not coeff:
            continue
        if not w:
            result[()] += coeff
            continue
        last = w[-1]
        if last > 0:
            continue
        if last == 0:
            stack.append((w[:-1], coeff * weight0))
            continue
        # peel off the canonical suffix; j ends at its first entry
        j = len(w) - 1
        while j > 0 and w[j - 1] <= w[j]:
            j -= 1
        if j == 0:
            result[w] += coeff
            continue
        a, b = w[j - 1], w[j]
        prefix, suffix = w[: j - 1], w[j + 1:]
        stack.append((prefix + (b, a) + suffix, coeff))
        for fragment, scale in rule(a, b):
            stack.append((prefix + fragment + suffix, coeff * scale))
    return {w: value for w, value in result.items() if value}


def _as_partitions(expansion):
    return {tuple(-x for x in word): value for word, value in expansion.items()}


def verma_word_action(word, partition, c, h):
    """L-word applied to the basis monomial of a partition: {partition: coeff}."""
    full = tuple(word) + tuple(-p for p in partition)
    return _as_partitions(rewrite(full, virasoro_rule(c), h))


def fock_word_action(word, partition, alpha):
    """J-word applied to the basis monomial of a partition: {partition: coeff}."""
    full = tuple(word) + tuple(-p for p in partition)
    return _as_partitions(rewrite(full, heisenberg_rule, alpha))


def fock_sugawara(n, partition, alpha):
    """Quadratic generator via a deliberately oversized mode range.

    Every term with |k| beyond the production truncation bound must vanish,
    so summing over the wider window gives the same answer if and only if
    the truncation is sound.
    """
    margin = sum(partition) + abs(n) + 3
    total = defaultdict(Fraction)
    for k in range(-margin, margin + 1):
        lo, hi = sorted((n - k, k))
        for part, value in fock_word_action((lo, hi), partition, alpha).items():
            total[part] += value / 2
    return {part: value for part, value in total.items() if value}


def cocycle_identity_reference(omega, window):
    """The cocycle identity swept as a plain Fraction triple loop.

    Returns (status, checked_count, counterexample) as the library report
    carries them: triples in lexicographic order of (n, m, k), counted up to
    and including the first nonzero defect.
    """
    indices = range(-window, window + 1)
    checked = 0
    for n in indices:
        for m in indices:
            for k in indices:
                checked += 1
                defect = (Fraction(m - k) * omega(n, m + k) + (k - n) * omega(m, n + k)
                          + (n - m) * omega(k, n + m))
                if defect:
                    return "fail", checked, {
                        "indices": {"n": str(n), "m": str(m), "k": str(k)},
                        "expected": "0",
                        "actual": str(defect),
                    }
    return "pass", checked, None
