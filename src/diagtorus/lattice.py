"""Integer row lattices: membership, equality, and column-permutation matching.

Equality is implemented twice on purpose.  Hermite-basis comparison is the
production path; the Pluecker-coordinate criterion is an independently coded
cross-check built on maximal minors and one exact solve (intmat._solve), and
the two must always agree on full-row-rank inputs.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from math import gcd

from .errors import BUDGETS, DimensionMismatch, NotUnimodular, check_budget
from .intmat import (
    IntMatrix,
    _det,
    _hermite_pass,
    _identity_lists,
    _solve,
    hermite_normal_form,
    invariant_factors,
    pluecker_coordinates,
)

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
    integral.  One _solve on [A_I^T | B_I^T] gives +-det(A_I) X^T, so X is
    integral iff det(A_I) divides every entry.
    """
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("operands must both be m x n")
    pa = pluecker_coordinates(a)
    pb = pluecker_coordinates(b)
    if pa != pb and pa != {k: -x for k, x in pb.items()}:
        return False
    key = next(k for k, x in pa.items() if x)
    at, bt = ([[row[j - 1] for row in m.entries] for j in key] for m in (a, b))
    det, xt = _solve(at, bt)
    return not any(x % det for row in xt for x in row)


def transform(lat: RowLattice, mat: IntMatrix) -> RowLattice:
    """Right-multiply the basis by a unimodular matrix."""
    n = lat.ambient_dim
    if mat.rows != n or mat.cols != n:
        raise DimensionMismatch("transform matrix must be n x n")
    if abs(_det(mat.to_lists())) != 1:
        raise NotUnimodular("transform matrix must have determinant +-1")
    return lattice_of(lat.basis @ mat)


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


def _pair_colours(h: IntMatrix) -> list[list[tuple[int, int]]]:
    """The colour (gcd(col_j - col_k), gcd(col_j + col_k)) of each pair of
    columns of the Hermite basis h, as a symmetric n x n table.

    For an integer functional c, gcd{v.c : v in L} is an invariant of the
    lattice L, read off a basis as the gcd of the entries of h c; c = e_j -+
    e_k gives the colour, and the diagonal (0, 2 gcd(col_j)) carries the
    column gcd.  A column permutation p carrying the lattice of b onto that
    of a therefore carries the colour of (p_j, p_k) on b to that of (j, k)
    on a.
    """
    cols = [[row[j] for row in h.entries] for j in range(h.cols)]
    table = [[(0, 2 * gcd(*x))] * h.cols for x in cols]
    for j, x in enumerate(cols):
        for k in range(j + 1, h.cols):
            y = cols[k]
            table[j][k] = table[k][j] = (gcd(*map(operator.sub, x, y)),
                                          gcd(*map(operator.add, x, y)))
    return table


def _gram(h: IntMatrix) -> list[list[int]]:
    """G = h h^T for the basis h.  Unimodular row changes and column
    permutations keep det(G), the squared covolume of the lattice in its
    real span; a sublattice of index k multiplies it by k^2."""
    return [[sum(map(operator.mul, r, s)) for s in h.entries] for r in h.entries]


def _scaled_dual(h: IntMatrix) -> list[list[int]]:
    """Y = adj(G) h = det(G) G^-1 h for the basis h and G = _gram(h): det(G)
    times the dual basis of the lattice in its real span.  One _solve, with
    no row swap, since G is positive definite."""
    return _solve(_gram(h), h.entries)[1]


def _column_colours(h: IntMatrix, y: list[list[int]]) -> list[tuple[int, int]]:
    """The colour (gcd(col_j), Q_jj) of each column j of the Hermite basis h,
    with y = _scaled_dual(h) and Q_jj = col_j(h) . col_j(y) the diagonal of
    _projection_matrix, in O(mn).

    Both are lattice invariants that a column permutation carries along:
    the column gcd is gcd{v_j : v in L}, and Q_jj is the sum of p_I^2 over
    the maximal minors p_I with j in I (Cauchy-Binet).
    """
    return [(gcd(*x), sum(map(operator.mul, x, z)))
            for x, z in zip(zip(*h.entries), zip(*y))]


def _projection_matrix(h: IntMatrix, y: list[list[int]]) -> list[list[int]]:
    """Q = h^T y = h^T adj(G) h = det(G) P for the basis h, y =
    _scaled_dual(h) and P the orthogonal projection onto the row space.

    Another basis T h, T unimodular, gives det(T)^2 Q = Q, and a column
    permutation conjugates Q by its matrix, so each Q_jk is a colour of the
    pair of columns (j, k).
    """
    cols = list(zip(*y))
    return [[sum(map(operator.mul, x, z)) for z in cols] for x in zip(*h.entries)]


def _with_projection(table: list, q: list[list[int]], classes: list[int]) -> list:
    """A pair-colour table with each entry extended by Q_jk
    (_projection_matrix) and each diagonal entry also by the column's class,
    so that a refinement of the new table starts from those classes."""
    out = [list(zip(row, qrow)) for row, qrow in zip(table, q)]
    for j, c in enumerate(classes):
        out[j][j] += (c,)
    return out


def _refine(ta: list, tb: list):
    """Joint colour refinement (1-dimensional Weisfeiler-Leman) of the
    columns of two pair-colour tables.

    The pair colours of both tables are numbered together, and columns
    start from the code of their diagonal colour (which _with_projection
    makes carry the classes of an earlier refinement).  Each round recolours
    column j by its colour and the sorted codes of (colour of k, pair colour
    of (j, k)) over all columns k, one integer each, with ids numbered from
    the signatures of both sides at once so that they agree.  Returns None as
    soon as the colour or signature multisets differ: then no column
    permutation preserves the colours, let alone the lattices.  Otherwise
    returns the two lists of class ids once every class is one column (no
    further round can split it) or a round splits no class.
    """
    codes: dict = {}
    ia = [[codes.setdefault(x, len(codes)) for x in row] for row in ta]
    ib = [[codes.setdefault(x, len(codes)) for x in row] for row in tb]
    width = len(codes)
    ca = [row[j] for j, row in enumerate(ia)]
    cb = [row[j] for j, row in enumerate(ib)]
    if sorted(ca) != sorted(cb):
        return None
    n, count = len(ca), len(set(ca))

    def signatures(table, colour):
        return [(*sorted([c * width + x for c, x in zip(colour, row)]), c)
                for c, row in zip(colour, table)]

    while count < n:
        ids: dict = {}
        ca = [ids.setdefault(s, len(ids)) for s in signatures(ia, ca)]
        cb = [ids.get(s, -1) for s in signatures(ib, cb)]
        if sorted(ca) != sorted(cb):
            return None
        if len(ids) == count:  # the round split no class
            break
        count = len(ids)
    return ca, cb


def _swap_closed(h: IntMatrix, k: int, l: int, d: int) -> bool:
    """True iff swapping columns k and l maps the row lattice of the Hermite
    basis h onto itself.

    The swap changes a row by (row[k] - row[l]) (e_l - e_k), so it is closed
    iff d (e_l - e_k) lies in the lattice, d the gcd of those differences
    (the first entry of the pair's colour).
    """
    v = [0] * h.cols
    v[k], v[l] = -d, d
    return contains(RowLattice(h), v)


def permuted_equal(a: IntMatrix, b: IntMatrix):
    """Search for a column permutation carrying the lattice of b onto that of a.

    Returns the lexicographically least 0-based permutation p such that the
    matrix with columns (b[:, p[0]], ..., b[:, p[n-1]]) spans the same row
    lattice as a, or None.  It is _match on the two Hermite bases.
    """
    return _match(hermite_normal_form(a), hermite_normal_form(b))


_NODES_MESSAGE = "column permutation search exceeds its node budget"


def _match(ha: IntMatrix, hb: IntMatrix):
    """permuted_equal on the Hermite bases ha and hb of the two lattices.

    A matching permutation keeps the rank and det(G) (_gram), and it maps
    each column of b onto one of a with the same column colour (gcd, Q_jj)
    (_column_colours, from one _solve a side).  Cheap per-column invariants
    come before pair invariants, as in practical isomorphism testing: when
    every colour is distinct they are the classes, and no pair-colour table
    is built.  Otherwise the pair colours (_pair_colours) are refined
    jointly (_refine), and a class of more than one column is refined
    further with Q = det(G) P (_with_projection), built from the same
    solve.  When any of these tells the two sides apart, the answer is None
    without a search.

    Backtracking assigns columns in order, each position only from
    its class.  A permutation that matches the lattices also matches their
    invariant factors, their right kernels and, with e the largest
    invariant factor, their annihilators mod e; and it matches the
    projections of lattice, kernel and annihilator onto any set of
    columns.  So a partial assignment p[:j] must carry the three
    projections of b onto those of a on the first j columns, and pruning
    never skips the lex-least answer.  The kernel prunes where the row
    lattice projects onto all of Z^j (rank n - 1), the annihilator where a
    full-rank sublattice of index > 1 does.  The number of candidates at
    each position is fixed by the classes, and past the last position with
    more than one, the rest of the path is forced: those prefixes are not
    checked, and at depth n the row lattices are compared, which is lattice
    equality itself: one Hermite pass on b's permuted columns against ha's
    own rows.  Only a search that checks prefixes computes the invariant
    factors, kernels and annihilators; when every class is one column the
    path is forced and its n assignments make one comparison.  The a-side
    projections are computed when the search first reaches their depth.

    Columns k < l of b whose swap fixes the lattice of b lead to the same
    answers up to that swap, so once k has failed at a position, l is not
    tried there: repeated weights cost one branch, not all their orders.
    Past its node budget, 50,000 partial assignments, it raises TooLarge.  It
    can still get there on a large class that refinement cannot split, whose
    symmetries are not column swaps and whose prefix projections agree deep
    into the order.
    """
    if ha.cols != hb.cols:
        raise DimensionMismatch("operands must have the same column count")
    n = ha.cols
    if ha == hb:
        return tuple(range(n))  # the identity comes first in lex order
    if ha.rows != hb.rows or _det(_gram(ha)) != _det(_gram(hb)):
        return None
    ya, yb = _scaled_dual(ha), _scaled_dual(hb)
    ca, cb = _column_colours(ha, ya), _column_colours(hb, yb)
    if sorted(ca) != sorted(cb):
        return None
    if len(set(ca)) < n:
        ta, tb = _pair_colours(ha), _pair_colours(hb)
        classes = _refine(ta, tb)
        if classes is not None and len(set(classes[0])) < n:
            classes = _refine(_with_projection(ta, _projection_matrix(ha, ya), classes[0]),
                              _with_projection(tb, _projection_matrix(hb, yb), classes[1]))
        if classes is None:
            return None
        ca, cb = classes
    left = Counter(cb)
    last = 0  # the last position with more than one candidate
    for j, c in enumerate(ca):
        if left[c] > 1:
            last = j
        left[c] -= 1
    pairs = [(ha.entries, hb.entries)]
    if last:
        factors = invariant_factors(ha)
        if factors != invariant_factors(hb):
            return None
        pairs.append((_annihilator_rows(ha, 0), _annihilator_rows(hb, 0)))
        e = max(factors, default=0)
        if e > 1:
            pairs.append((_annihilator_rows(ha, e), _annihilator_rows(hb, e)))
    wants: list[list] = [[None] * (n + 1) for _ in pairs]
    wants[0][n] = [list(row) for row in ha.entries]
    swaps: dict[tuple[int, int], bool] = {}
    perm: list[int] = []
    used = [False] * n
    nodes, limit = 0, BUDGETS["nodes"]

    def fits(j: int, checks) -> bool:
        for (ra, rb), want in zip(checks, wants):
            if want[j] is None:
                want[j] = _projection(ra, range(j))
            if _projection(rb, perm) != want[j]:
                return False
        return True

    def twin(k: int, l: int) -> bool:
        # only a class of two or more columns asks, so tb was built
        if (k, l) not in swaps:
            swaps[k, l] = _swap_closed(hb, k, l, tb[k][l][0])
        return swaps[k, l]

    def search() -> bool:
        nonlocal nodes
        j = len(perm)
        if j == n:
            return fits(n, pairs[:1])
        failed: list[int] = []
        for k in range(n):
            if used[k] or cb[k] != ca[j] or any(twin(f, k) for f in failed):
                continue
            nodes += 1
            if nodes > limit:
                check_budget(nodes, "nodes", _NODES_MESSAGE)
            perm.append(k)
            if j >= last or fits(j + 1, pairs):
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
