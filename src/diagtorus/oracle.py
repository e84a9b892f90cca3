"""Independent brute-force references used to certify the production paths.

These deliberately avoid the modules they arbitrate: membership and counting
go through Smith-form divisibility or plain enumeration, never through the
Hermite-basis code in the lattice module.  They are correctness oracles, so
each search is complete: it saves work only where that provably loses no
answer, as when the perm/sign search drops a prefix that no sign fits.
"""

from __future__ import annotations

import operator
from itertools import product

from .errors import DimensionMismatch, check_budget, check_product
from .intmat import IntMatrix, smith_normal_form


def _snf_membership_data(a: IntMatrix):
    dec = smith_normal_form(a)
    r = len(dec.factors)
    return dec.V, dec.factors, r


def torsion_count(group, modulus: int) -> int:
    """Number of m-torsion tuples annihilated by every defining character.

    group is a DiagSubgroup; tuples run over n-th roots of unity represented
    by exponents mod m.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    n = group.ambient_dim
    check_product([(modulus, n)], "work", "m^n exceeds the enumeration budget")
    rows = group.lattice.basis.entries
    count = 0
    for t in product(range(modulus), repeat=n):
        if all(sum(r[j] * t[j] for j in range(n)) % modulus == 0 for r in rows):
            count += 1
    return count


def lattice_equal_bounded(a: IntMatrix, b: IntMatrix, bound: int) -> bool:
    """Compare the two row lattices inside the box ||v||_inf <= bound.

    v lies in the row lattice iff v @ V is divisible by the Smith diagonal
    and vanishes beyond the rank.  The box is walked in lexicographic order
    by an odometer that carries w = v @ [V_A | V_B]: a step of coordinate k
    adds row k, and its wrap from bound back to -bound subtracts 2 * bound
    times row k.  So a box point costs O(n) additions, and the walk needs
    O(n^2) memory and no recursion at any bound.
    """
    bound = operator.index(bound)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if a.cols != b.cols:
        return False
    n = a.cols
    check_product([(2 * bound + 1, n)], "work", "box exceeds the enumeration budget")
    va, fa, ra = _snf_membership_data(a)
    vb, fb, rb = _snf_membership_data(b)
    rows = [ua + ub for ua, ub in zip(va.entries, vb.entries)]
    # the membership conditions on w: Smith factors above 1 to divide the
    # first coordinates of each half, and the coordinates past the ranks
    divides_a = [(j, f) for j, f in enumerate(fa) if f > 1]
    divides_b = [(n + j, f) for j, f in enumerate(fb) if f > 1]
    past_a, past_b = slice(ra, n), slice(n + rb, 2 * n)
    # the walk starts at v = (-bound, ..., -bound); steps[k] counts the
    # steps coordinate k has taken since then, at most 2 * bound
    w = [-bound * sum(column) for column in zip(*rows)]
    steps = [0] * n
    while True:
        in_a = not any(w[past_a]) and not any(w[j] % f for j, f in divides_a)
        in_b = not any(w[past_b]) and not any(w[j] % f for j, f in divides_b)
        if in_a != in_b:
            return False
        k = n - 1
        while k >= 0 and steps[k] == 2 * bound:
            # coordinate k wraps from bound back to -bound
            steps[k] = 0
            w = [x - 2 * bound * y for x, y in zip(w, rows[k])]
            k -= 1
        if k < 0:
            return True
        steps[k] += 1
        w = list(map(operator.add, w, rows[k]))


def default_lattice_bound(a: IntMatrix, b: IntMatrix) -> int:
    """Default box: twice the largest absolute entry of either matrix."""
    entries = [abs(x) for m in (a, b) for row in m.entries for x in row]
    return 2 * max(entries, default=1)


def closedness_search(weights, zeros, bound: int):
    """Exhaustive search for a one-parameter subgroup driving the point to a
    boundary limit: d with <d, l> = 0, d_j >= 0 off the pattern, and some
    d_j > 0 off the pattern.  Returns a witness d or None.

    Coordinates inside the pattern range over [-bound, bound]; their partial
    sums are tabulated once, so the loop only runs over the complement.  The
    work budget caps the loop's (bound + 1)^|outside| points and the table's
    2 bound + 1 candidates per sum per coordinate, each counted before the
    work.  A witness needs some d_j > 0, so the bound must be at least 1.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    weights = tuple(map(operator.index, weights))
    zeros = frozenset(map(operator.index, zeros))
    n = len(weights)
    if any(i < 1 or i > n for i in zeros):
        raise DimensionMismatch("zero pattern indices out of range")
    inside = sorted(zeros)
    outside = [j for j in range(1, n + 1) if j not in zeros]
    if not outside:
        return None
    check_product([(bound + 1, len(outside))], "work", "walk exceeds the enumeration budget")
    # achievable sums over the pattern coordinates, with one witness each
    sums = {0: {}}
    cost = 0
    for j in inside:
        cost += len(sums) * (2 * bound + 1)
        check_budget(cost, "work", "pattern sums exceed the enumeration budget")
        lj = weights[j - 1]
        nxt = {}
        for s, assign in sums.items():
            for dj in range(-bound, bound + 1):
                key = s + dj * lj
                if key not in nxt:
                    witness = dict(assign)
                    witness[j] = dj
                    nxt[key] = witness
        sums = nxt
    negated = [-weights[j - 1] for j in outside]
    for d_out in product(range(bound + 1), repeat=len(outside)):
        if not any(d_out):
            continue
        need = sum(map(operator.mul, d_out, negated))
        if need in sums:
            d = [0] * n
            for dj, j in zip(d_out, outside):
                d[j - 1] = dj
            for j, dj in sums[need].items():
                d[j - 1] = dj
            return tuple(d)
    return None


def default_closedness_bound(weights) -> int:
    """Three times the largest |weight|; 3 when every weight is zero."""
    return 3 * max((abs(x) for x in weights if x), default=1)


def perm_sign_exhaust(weights, other):
    """Complete search over S_n x {+-1} for l = eps * (l' o sigma).

    Returns the lexicographically least sigma, with eps = 1 when both signs
    fit, such that weights[j] == eps * other[sigma[j]] for all j; or None.
    Ground truth for canonical forms on rank-one inputs.

    Backtracking assigns sigma(0), sigma(1), ... trying the unused columns in
    increasing order, and carries the signs that fit every position so far.
    A prefix that no sign fits cannot extend to a solution, so pruning it
    skips nothing and the first full assignment is the lex-least answer.
    The worst case is still factorial (repeated weights that never match
    visit every arrangement of the repeats): n! must be within the listing budget.
    """
    weights = tuple(map(operator.index, weights))
    other = tuple(map(operator.index, other))
    if len(weights) != len(other):
        return None
    n = len(weights)
    check_product(range(2, n + 1), "list", "factorial search limited to n <= 8")
    sigma: list[int] = []
    used = [False] * n

    def search(signs):
        j = len(sigma)
        if j == n:
            return tuple(sigma), 1 if 1 in signs else -1
        for k in range(n):
            if used[k]:
                continue
            fits = [e for e in signs if weights[j] == e * other[k]]
            if not fits:
                continue
            sigma.append(k)
            used[k] = True
            found = search(fits)
            if found:
                return found
            used[k] = False
            sigma.pop()
        return None

    return search((1, -1))
