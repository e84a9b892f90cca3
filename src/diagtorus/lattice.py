"""Integer row lattices: membership, equality, and column-permutation matching.

Equality is implemented twice on purpose.  Hermite-basis comparison is the
production path; the Pluecker-coordinate criterion is an independently coded
cross-check built on minors alone (intmat._minors), and the two must always
agree on full-row-rank inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .errors import DimensionMismatch, NotUnimodular, TooLarge
from .intmat import (
    IntMatrix,
    _hermite_pass,
    _identity_lists,
    _minors,
    determinant,
    hermite_normal_form,
    invariant_factors,
    pluecker_coordinates,
)

# partial column assignments permuted_equal may try before giving up
_NODE_BUDGET = 50_000


@dataclass(frozen=True)
class RowLattice:
    """The subgroup of Z^n generated by the rows of a matrix.

    The stored basis is the Hermite normal form with zero rows removed, so
    two lattices are equal exactly when their bases compare equal.
    """

    basis: IntMatrix

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def rank(self) -> int:
        return self.basis.rows


def lattice_of(a: IntMatrix) -> RowLattice:
    return RowLattice(hermite_normal_form(a))


def contains(lat: RowLattice, v) -> bool:
    """True iff v is an integer combination of the basis rows."""
    v = list(map(operator.index, v))
    if len(v) != lat.ambient_dim:
        raise DimensionMismatch("vector length differs from ambient dimension")
    for row in lat.basis.entries:
        j = next(k for k, x in enumerate(row) if x)
        if v[j] % row[j]:
            return False
        c = v[j] // row[j]
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return not any(v)


def equal(lat1: RowLattice, lat2: RowLattice) -> bool:
    if lat1.ambient_dim != lat2.ambient_dim:
        raise DimensionMismatch("lattices live in different ambient dimensions")
    return lat1.basis == lat2.basis


def pluecker_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Lattice equality decided from maximal minors.

    The two matrices must have full row rank and the same shape.  The test is:
    all Pluecker coordinates agree (possibly after a global sign flip), and for
    one column tuple I with nonzero minor the matrix X = B_I (A_I)^-1 is
    integral.  By Cramer's rule X[i][j] = det(A_I with row j replaced by row
    i of B_I) / det(A_I): row i of B_I dotted with the cofactors of row j of
    A_I, the signed (m-1)-minors of its other rows, up to a sign (-1)^j that
    a divisibility test ignores.
    """
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("operands must both be m x n")
    pa = pluecker_coordinates(a)
    pb = pluecker_coordinates(b)
    if pa != pb and pa != {k: -x for k, x in pb.items()}:
        return False
    key, det = next((k, x) for k, x in pa.items() if x)
    cols = tuple(j - 1 for j in key)
    for j in range(a.rows):
        minors = _minors(a.entries[:j] + a.entries[j + 1:], cols)
        cof = [(-1) ** t * minors[cols[:t] + cols[t + 1:]] for t in range(a.rows)]
        for brow in b.entries:
            if sum(brow[k] * c for k, c in zip(cols, cof)) % det:
                return False
    return True


def transform(lat: RowLattice, mat: IntMatrix) -> RowLattice:
    """Right-multiply the basis by a unimodular matrix."""
    n = lat.ambient_dim
    if mat.rows != n or mat.cols != n:
        raise DimensionMismatch("transform matrix must be n x n")
    if abs(determinant(mat)) != 1:
        raise NotUnimodular("transform matrix must have determinant +-1")
    return lattice_of(lat.basis @ mat)


def _column_gcds(h: IntMatrix, n: int) -> tuple[int, ...]:
    return tuple(gcd(*(row[j] for row in h.entries)) for j in range(n))


def _annihilator_rows(h: IntMatrix, e: int) -> list[list[int]]:
    """Generators of {y in Z^n : h y = 0 (mod e)}, as rows; e = 0 gives the
    right kernel of h.

    One Hermite pass over the columns of [h | e I] with an identity
    appended: the witness rows past the rank record the integer
    combinations of those columns that vanish, and since the pass is
    unimodular they span all of them.  Their first n entries are the y.
    """
    m, n = h.rows, h.cols
    cols = [[row[j] for row in h.entries] for j in range(n)]
    if e:
        cols += [[e * int(i == k) for i in range(m)] for k in range(m)]
    work = [c + unit for c, unit in zip(cols, _identity_lists(len(cols)))]
    r = _hermite_pass(work, m)
    return [w[m:m + n] for w in work[r:]]


def _projection(rows, cols) -> list[list[int]]:
    """Hermite basis of the lattice spanned by rows, projected onto cols."""
    work = [[row[k] for k in cols] for row in rows]
    return work[:_hermite_pass(work, len(cols))]


def _swap_closed(h: IntMatrix, k: int, l: int) -> bool:
    """True iff swapping columns k and l maps the row lattice of the Hermite
    basis h onto itself.

    The swap changes a row by (row[k] - row[l]) (e_l - e_k), so it is closed
    iff d (e_l - e_k) lies in the lattice, d the gcd of those differences.
    """
    d = gcd(*(row[k] - row[l] for row in h.entries))
    v = [0] * h.cols
    v[k], v[l] = -d, d
    return contains(RowLattice(h), v)


def permuted_equal(a: IntMatrix, b: IntMatrix):
    """Search for a column permutation carrying the lattice of b onto that of a.

    Returns the lexicographically least 0-based permutation p such that the
    matrix with columns (b[:, p[0]], ..., b[:, p[n-1]]) spans the same row
    lattice as a, or None.

    Backtracking assigns columns in order.  A permutation that matches the
    lattices also matches their right kernels and, with e the largest
    invariant factor, their annihilators mod e; and it matches the
    projections of all three onto any set of columns.  So each partial
    assignment p[:j] must carry the three projections of b onto those of a
    on the first j columns, and pruning never skips the lex-least answer.
    The kernel prunes where the row lattice projects onto all of Z^j (rank
    n - 1), the annihilator where a full-rank sublattice of index > 1 does.
    The a-side projections are computed when the search first reaches their
    depth.  At depth n the row check is lattice equality itself.  Each column
    also needs its gcd to match.

    Columns k < l of b whose swap fixes the lattice of b lead to the same
    answers up to that swap, so once k has failed at a position, l is not
    tried there: repeated weights cost one branch, not all their orders.
    The search raises TooLarge after _NODE_BUDGET partial assignments.
    """
    if a.cols != b.cols:
        raise DimensionMismatch("operands must have the same column count")
    n = a.cols
    ha = hermite_normal_form(a)
    hb = hermite_normal_form(b)
    if ha == hb:
        return tuple(range(n))  # the identity comes first in lex order
    if ha.rows != hb.rows:
        return None
    factors = invariant_factors(ha)
    if factors != invariant_factors(hb):
        return None
    ga = _column_gcds(ha, n)
    gb = _column_gcds(hb, n)
    if sorted(ga) != sorted(gb):
        return None
    e = max(factors, default=0)
    pairs = [(ha.entries, hb.entries), (_annihilator_rows(ha, 0), _annihilator_rows(hb, 0))]
    if e > 1:
        pairs.append((_annihilator_rows(ha, e), _annihilator_rows(hb, e)))
    wants: list[list] = [[None] * (n + 1) for _ in pairs]
    swaps: dict[tuple[int, int], bool] = {}
    perm: list[int] = []
    used = [False] * n
    nodes = 0

    def fits(j: int) -> bool:
        for (ra, rb), want in zip(pairs, wants):
            if want[j] is None:
                want[j] = _projection(ra, range(j))
            if _projection(rb, perm) != want[j]:
                return False
        return True

    def twin(k: int, l: int) -> bool:
        if (k, l) not in swaps:
            swaps[k, l] = _swap_closed(hb, k, l)
        return swaps[k, l]

    def search() -> bool:
        nonlocal nodes
        j = len(perm)
        if j == n:
            return True
        failed: list[int] = []
        for k in range(n):
            if used[k] or gb[k] != ga[j] or any(twin(f, k) for f in failed):
                continue
            nodes += 1
            if nodes > _NODE_BUDGET:
                raise TooLarge("column permutation search exceeds its node budget")
            perm.append(k)
            if fits(j + 1):
                used[k] = True
                if search():
                    return True
                used[k] = False
            perm.pop()
            failed.append(k)
        return False

    if search():
        return tuple(perm)
    return None
