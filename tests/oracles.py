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
The Jacobi sweeps' references bracket every triple afresh, nesting
brackets of plain {index: Fraction} dicts; the reduction residual's
reference compares every ordered pair of the window.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import product


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


def _bracket(pair, x, y):
    """Bilinear extension to dict vectors of pair(i, j) -> {index: Fraction}."""
    out = defaultdict(Fraction)
    for i, a in x.items():
        for j, b in y.items():
            for index, value in pair(i, j).items():
                out[index] += a * b * value
    return {index: value for index, value in out.items() if value}


def _combine(*terms):
    """Sum of coefficient * vector over (coefficient, dict vector) terms, zeros dropped."""
    out = defaultdict(Fraction)
    for coefficient, vector in terms:
        for index, value in vector.items():
            out[index] += coefficient * value
    return {index: value for index, value in out.items() if value}


def _jacobi(bracket, x, y, z):
    return _combine((1, bracket(x, bracket(y, z))), (1, bracket(y, bracket(z, x))),
                    (1, bracket(z, bracket(x, y))))


def _format_witt(vector):
    return " + ".join(f"{vector[n]}·l({n})" for n in sorted(vector)) or "0"


def _first_failure(instances):
    """(status, checked_count, counterexample) over (indices, expected, actual, render, extra)."""
    checked = 0
    for indices, expected, actual, render, extra in instances:
        checked += 1
        if expected != actual:
            record = {"indices": {key: str(value) for key, value in indices.items()},
                      "expected": render(expected), "actual": render(actual)}
            return "fail", checked, {**record, **extra}
    return "pass", checked, None


def witt_jacobi_reference(pair, window):
    """The Witt Jacobi sweep as a triple-bracket loop over (m, n, k) in lexicographic order.

    pair(m, n) is [l(m), l(n)] as {index: Fraction}.
    """
    indices = range(-window, window + 1)

    def bracket(x, y):
        return _bracket(pair, x, y)

    return _first_failure(
        ({"m": m, "n": n, "k": k}, {}, _jacobi(bracket, {m: 1}, {n: 1}, {k: 1}), _format_witt, {})
        for m, n, k in product(indices, repeat=3))


def extension_predicate_reference(pair, omega, window):
    """The extension predicate's legs, every bracket computed afresh.

    pair(m, n) is the base bracket as {index: Fraction} and omega(m, n) the
    cocycle; an element is a dict in which "C" indexes the central element.
    """
    def ext_pair(i, j):
        if "C" in (i, j):
            return {}
        return _combine((1, pair(i, j)), (1, {"C": omega(i, j)}))

    def bracket(x, y):
        return _bracket(ext_pair, x, y)

    def body(x):
        return {n: value for n, value in x.items() if n != "C"}

    def render(x):
        return f"{_format_witt(body(x))} ⊕ {x.get('C', 0)}·C"

    central = {"C": Fraction(1)}
    labeled = [("C", central)] + [(str(n), {n: Fraction(1)}) for n in range(-window, window + 1)]

    def instances():
        for label, u in labeled:
            for left, right, side in ((central, u, "C"), (u, central, label)):
                yield ({"u": label, "left": side}, {}, bracket(left, right), render,
                       {"leg": "centrality"})
        bracket_leg = {"leg": "bracket"}
        for label, u in labeled:
            yield {"u": label}, {}, bracket(u, u), render, bracket_leg
        for (label_u, u), (label_v, v) in product(labeled, repeat=2):
            indices = {"u": label_u, "v": label_v}
            yield indices, _combine((-1, bracket(v, u))), bracket(u, v), render, bracket_leg
            shifted = bracket(_combine((1, u), (1, central)), _combine((1, v), (-1, central)))
            yield (indices, _bracket(pair, body(u), body(v)), body(shifted), _format_witt,
                   bracket_leg)
        for (label_u, u), (label_v, v), (label_w, w) in product(labeled, repeat=3):
            yield ({"u": label_u, "v": label_v, "w": label_w}, {}, _jacobi(bracket, u, v, w),
                   render, bracket_leg)
        for n in range(-window, window + 1):
            yield {"n": n}, {n: 1}, body({n: 1}), _format_witt, {"leg": "section"}
        yield {"u": "C"}, {}, body(central), _format_witt, {"leg": "section"}

    return _first_failure(instances())


def residual_reference(expected, actual, window):
    """The reduction residual compared on every ordered pair (m, n), lexicographically."""
    indices = range(-window, window + 1)
    return _first_failure(
        ({"m": m, "n": n}, expected(m, n), actual(m, n), str, {})
        for m, n in product(indices, repeat=2))
