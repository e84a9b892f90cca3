"""Exact integer helpers the benchmark checks results with.

Nothing here imports diagtorus: every check must hold without running the
code path whose time is measured.  Matrices are sequences of integer rows.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial, gcd, prod


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(c) for c in zip(*a)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det(a) -> int:
    """Determinant by Bareiss elimination with row pivoting."""
    m = [list(r) for r in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev if n else 1


def _xgcd(a: int, b: int):
    """(g, s, t) with g = s*a + t*b = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


def hnf(a):
    """Row Hermite normal form: zero rows dropped, positive pivots moving
    right, entries above a pivot in [0, pivot).  Built from 2x2 extended-gcd
    row transforms, which is a different algorithm from the library's."""
    rows = [list(r) for r in a if any(r)]
    if not rows:
        return ()
    n = len(rows[0])
    r = 0
    for col in range(n):
        for i in range(r + 1, len(rows)):
            x, y = rows[r][col], rows[i][col]
            if y == 0:
                continue
            g, s, t = _xgcd(x, y)
            u, v = x // g, y // g
            top = [s * p + t * q for p, q in zip(rows[r], rows[i])]
            rows[i] = [u * q - v * p for p, q in zip(rows[r], rows[i])]
            rows[r] = top
        if r < len(rows) and rows[r][col]:
            if rows[r][col] < 0:
                rows[r] = [-x for x in rows[r]]
            p = rows[r][col]
            for k in range(r):
                q = rows[k][col] // p
                if q:
                    rows[k] = [x - q * y for x, y in zip(rows[k], rows[r])]
            r += 1
            if r == len(rows):
                break
    return tuple(tuple(row) for row in rows[:r])


def rank(a) -> int:
    return len(hnf(a))


def same_lattice(a, b) -> bool:
    return hnf(a) == hnf(b)


def contains(a, v) -> bool:
    return hnf(list(a) + [list(v)]) == hnf(a)


def bits(a) -> int:
    return max((abs(x).bit_length() for row in a for x in row), default=0)


def permute_columns(a, perm):
    return [[row[k] for k in perm] for row in a]


def invariant_factors(a):
    """Invariant factors from determinantal divisors d_k = gcd of the k x k
    minors; only for small matrices."""
    m = len(a)
    n = len(a[0]) if m else 0
    out, prev = [], 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                g = gcd(g, det([[a[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def _bordered_unit_product(a, v, factors) -> int:
    """|det U * det V| for S = U A V with A of full rank and (n - m) small.

    For wide A (m < n) border A with unit rows e_j, j outside a column set J
    with det A_J != 0.  Then det U * det [A; E] * det V = det D * det Y, with
    Y the trailing (n - m) x (n - m) block of E V.  The tall case is the
    transpose.  Returns 0 when A is not of full rank.
    """
    m, n = len(a), len(a[0])
    for cols in combinations(range(n), m):
        dj = det([[row[j] for j in cols] for row in a])
        if dj:
            break
    else:
        return 0
    rest = [j for j in range(n) if j not in cols]
    border = [[int(k == j) for k in range(n)] for j in rest]
    d_border = det([list(r) for r in a] + border)
    ev = [v[j] for j in rest]
    y = [row[m:] for row in ev]
    num = prod(factors) * det(y)
    if d_border == 0 or num % d_border:
        return 0
    return abs(num // d_border)


def smith_problem(a, u, s, v, factors) -> str | None:
    """None when S = U A V is a Smith form of A with unimodular U, V;
    otherwise a short description of the first violated condition."""
    m = len(a)
    n = len(a[0])
    if len(u) != m or any(len(r) != m for r in u):
        return "U shape"
    if len(v) != n or any(len(r) != n for r in v):
        return "V shape"
    if [list(r) for r in s] != matmul(matmul(u, a), v):
        return "S != U A V"
    r = len(factors)
    for i in range(m):
        for j in range(n):
            want = factors[i] if i == j and i < r else 0
            if s[i][j] != want:
                return "S is not diag(factors)"
    if any(f <= 0 for f in factors):
        return "factor not positive"
    if any(factors[i + 1] % factors[i] for i in range(r - 1)):
        return "divisibility chain broken"
    if m == n and r == n:
        unit = abs(det(a)) == prod(factors)
    elif r == min(m, n) and max(m, n) - min(m, n) <= 3 and min(m, n) > 8:
        if m < n:
            unit = _bordered_unit_product(a, v, factors) == 1
        else:
            unit = _bordered_unit_product(transpose(a), transpose(u),
                                          factors) == 1
    else:
        unit = abs(det(u)) == 1 and abs(det(v)) == 1
    return None if unit else "witness not unimodular"


def random_unimodular(rng, n, steps, c=1):
    """(M, M^-1) built from random elementary column operations."""
    mat, inv = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.choice([x for x in range(-c, c + 1) if x])
        for row in mat:
            row[i] += q * row[j]
        # the inverse takes the inverse row operation on the left
        inv[j] = [x - q * y for x, y in zip(inv[j], inv[i])]
    return mat, inv


def codim1_canonical(w):
    return min(tuple(sorted(w)), tuple(sorted(-x for x in w)))


def perm_order(w) -> int:
    """Order of the monomial normalizer of a weight vector: the product of
    the factorials of the multiplicities, doubled when -w is a rearrangement
    of w."""
    out = 1
    for x in set(w):
        out *= factorial(w.count(x))
    if sorted(w) == sorted(-x for x in w):
        out *= 2
    return out


def centralizer(w):
    """Permutations fixing the subgroup pointwise: {id, (a b)} when
    w = +-(e_a - e_b), else {id}; 0-based image tuples."""
    n = len(w)
    ident = tuple(range(n))
    nz = [i for i, x in enumerate(w) if x]
    if len(nz) == 2 and w[nz[0]] == -w[nz[1]] and abs(w[nz[0]]) == 1:
        a, b = nz
        swap = list(ident)
        swap[a], swap[b] = b, a
        return {ident, tuple(swap)}
    if not nz:
        return None  # every permutation; not used by the workloads
    return {ident}


def root_count(n: int, degree: int) -> int:
    return n * comb(degree + n - 1, n - 1)


def torsion_count(w, modulus: int) -> int:
    """Solutions t in (Z/m)^n of sum w_j t_j = 0 (mod m)."""
    g = 0
    for x in w:
        g = gcd(g, x)
    return modulus ** (len(w) - 1) * gcd(g, modulus)


def stabilizer(w, zeros):
    restricted = [w[i - 1] for i in sorted(zeros)]
    if not any(restricted):
        return len(restricted), ()
    g = 0
    for x in restricted:
        g = gcd(g, x)
    return len(restricted) - 1, ((g,) if g > 1 else ())


def same_sign_nonzero(xs) -> bool:
    return bool(xs) and (all(x > 0 for x in xs) or all(x < 0 for x in xs))


def orbit_closed(w, zeros) -> bool:
    outside = [w[j - 1] for j in range(1, len(w) + 1) if j not in zeros]
    if not outside:
        return True
    return not any(w[i - 1] for i in zeros) and same_sign_nonzero(outside)


def origin_in_closure(w, zeros) -> bool:
    """Hilbert-Mumford: some d with <d, w> = 0 and d_j > 0 off the zeros."""
    outside = [w[j - 1] for j in range(1, len(w) + 1) if j not in zeros]
    if not outside or any(w[i - 1] for i in zeros):
        return True
    pos = any(x > 0 for x in outside)
    neg = any(x < 0 for x in outside)
    return pos == neg
