"""Exact integer matrix arithmetic.

Smith normal form with unimodular witnesses, row-style Hermite reduction,
rank, determinants, exact solves, and maximal minors.  One Hermite pass
serves every unimodular elimination and one Gauss-Jordan pass every solve.
Smith forms alternate column and row passes from a row Hermite form, with
witness rows or, for the invariant factors alone, bare.  Everything runs on
Python's arbitrary-precision integers; no fractions, no floating point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, count, cycle, repeat
from math import comb, gcd

from .errors import BUDGETS, NotUnimodular, RankDeficient, check_budget

Row = tuple[int, ...]


def _identity_lists(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class IntMatrix:
    """An immutable m x n integer matrix (m >= 0, n >= 0)."""

    rows: int
    cols: int
    entries: tuple[Row, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("need rows >= 0 and cols >= 0")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged row")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = tuple(tuple(map(operator.index, r)) for r in rows)
        if cols is None:
            if not rows:
                raise ValueError("cols required for an empty matrix")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows(_identity_lists(n), n)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = list(zip(*other.entries)) or [()] * other.cols
        return IntMatrix(self.rows, other.cols, tuple(
            tuple([sum(map(operator.mul, r, c)) for c in cols]) for r in self.entries))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    return _det(a.to_lists())


def _det(m: list[list[int]]) -> int:
    """Bareiss elimination of a square list of rows, in place."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * prev


def _solve(a, b) -> tuple[int, list[list[int]]]:
    """(d, d a^-1 b) for a nonsingular square list of rows a, d = +-det a:
    one fraction-free Gauss-Jordan elimination (Bareiss) on [a | b], whose
    divisions are exact.  A zero pivot swaps with the first nonzero entry
    below it, flipping both signs; a positive definite a never needs it."""
    n = len(a)
    work = [[*x, *y] for x, y in zip(a, b)]
    prev = 1
    for k in range(n):
        if not work[k][k]:
            i = next(i for i in range(k + 1, n) if work[i][k])
            work[k], work[i] = work[i], work[k]
        pivot = work[k]
        p = pivot[k]
        for i, row in enumerate(work):
            if i != k:
                f = row[k]
                row[k + 1:] = [(x * p - f * y) // prev
                               for x, y in zip(row[k + 1:], pivot[k + 1:])]
        prev = p
    return prev, [row[n:] for row in work]


def _euclid(a: int, b: int) -> tuple[int, int, int, int]:
    """A unimodular [[c, d], [e, f]] taking the column (a, b) to (g, 0), where
    a > 0, b is not a multiple of a and g = gcd(a, b).

    Its rows hold the cofactors of the Euclidean remainder sequence that
    reduces the entry of larger |.| by the smaller one with floor division,
    ties reducing b.  That is the sequence a min-|entry| elimination runs on
    two rows, so on small inputs, where a column seldom meets three nonzero
    entries, the witnesses agree with the column-wise reference pass of the
    tests even where they are not unique.  The second row is +-(-b/g, a/g).
    """
    c, d, e, f = 1, 0, 0, 1
    while a and b:
        if abs(b) < abs(a):
            q = a // b
            a, c, d = a - q * b, c - q * e, d - q * f
        else:
            q = b // a
            b, e, f = b - q * a, e - q * c, f - q * d
    if not a:
        a, c, d, e, f = b, e, f, c, d
    return (c, d, e, f) if a > 0 else (-c, -d, e, f)


def _hermite_pass(work: list[list[int]], width: int) -> int:
    """Row Hermite reduction, in place, of the first `width` columns of work.

    Nonzero rows come first, pivots are positive and strictly right-shifting
    downward, and entries above each pivot are reduced into [0, pivot); zero
    rows come last, in input order.  Entries past `width` ride along, so a
    witness appended to the rows records the row operations: with the
    identity appended it becomes the transform, and with any other matrix B
    appended it becomes the transform times B.  Returns the number of
    nonzero rows.

    The rows are inserted one at a time into a reduced echelon form (Kannan
    and Bachem, SIAM J. Comput. 8(4), 1979).  A new row is reduced against
    the pivots in column order: by an exact multiple where the pivot divides
    its entry, and by _euclid's transform otherwise, which lowers the pivot
    to the gcd.  A leading entry no pivot meets becomes a new pivot.  Then
    the rows above each changed pivot, and every row changed on the way, are
    reduced again, pivot by pivot in column order.  The rows not yet
    inserted are never touched, and the echelon rows stay reduced, so no
    intermediate outgrows the echelon form by much: on a 40 x 40 matrix with
    entries +-100 the largest operand has 622 bits and the result 313.
    """
    cols: list[int] = []  # cols[k] is the pivot column of work[k], k < r
    r = 0
    for i in range(len(work)):
        row = work[i]
        changed = set()
        k = col = 0
        while True:
            while col < width and not row[col]:
                col += 1
            if col == width:  # a zero row; it stays below the pivots
                work[i] = row
                break
            while k < r and cols[k] < col:
                k += 1
            if k == r or cols[k] != col:  # a new pivot, row k of the echelon
                if row[col] < 0:
                    row = [-x for x in row]
                del work[i]
                work.insert(k, row)
                cols.insert(k, col)
                changed.add(k)
                r += 1
                break
            p = work[k]
            a, b = p[col], row[col]
            if b % a:
                c, d, e, f = _euclid(a, b)
                work[k] = [c * x + d * y for x, y in zip(p, row)]
                row = [e * x + f * y for x, y in zip(p, row)]
                changed.add(k)
            else:
                q = b // a
                row = [y - q * x for x, y in zip(p, row)]
            col += 1
            k += 1
        if not changed:
            continue
        # Pivots in column order.  A changed pivot reduces every row above
        # it; any other pivot only the rows changed so far, since the rest
        # were reduced at its column already.  Subtracting pivot row k alters
        # a row only from column cols[k] on, so no earlier column comes
        # unreduced.
        dirty = set(changed)
        for k in range(min(changed), r):
            p = work[k]
            c = cols[k]
            a = p[c]
            for j in range(k) if k in changed else [j for j in dirty if j < k]:
                q = work[j][c] // a
                if q:
                    work[j] = [x - q * y for x, y in zip(work[j], p)]
                    dirty.add(j)
    return r


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix; exact, with integer entries.

    The row Hermite form of a unimodular matrix is the identity, so the
    row operations that reach it multiply to the inverse.
    """
    n = a.rows
    inv = _identity_lists(n)
    if a.cols == n and _witnessed_pass(a.to_lists(), inv, n) == _identity_lists(n):
        return IntMatrix(n, n, tuple(tuple(row) for row in inv))
    raise NotUnimodular("matrix is not square with determinant +-1")


@dataclass(frozen=True)
class SmithDecomposition:
    """S = U @ A @ V with U, V unimodular and S in Smith normal form."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    factors: tuple[int, ...]


def _mix(rows, i, j, a, b, c, d) -> None:
    """Rows i, j become a*row_i + b*row_j and c*row_i + d*row_j."""
    x, y = rows[i], rows[j]
    rows[i] = [a * p + b * q for p, q in zip(x, y)]
    rows[j] = [c * p + d * q for p, q in zip(x, y)]


def _is_diagonal(a: list[list[int]]) -> bool:
    return not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a))


def _witnessed_pass(rows, wit, width: int) -> list[list[int]]:
    """_hermite_pass on rows carrying the witness rows wit, which are updated
    in place; returns the reduced rows."""
    work = [x + y for x, y in zip(rows, wit)]
    _hermite_pass(work, width)
    wit[:] = [w[width:] for w in work]
    return [w[:width] for w in work]


def _diagonalize(rows, u, vt) -> list[int]:
    """Nonzero Smith diagonal of the m x n row Hermite form rows, in
    divisibility order; u and vt receive the row and column operations.

    Column and row Hermite passes alternate, from the column pass, until the
    matrix is diagonal.  The row pass carries the rows of u; the column pass
    is the row pass on the transpose and carries the rows of vt.  Each pass
    leaves the unique Hermite form of its input, so the matrices and the
    factors do not depend on how _hermite_pass reaches it; the witnesses
    do.  The pass inserts rows into a reduced echelon form, so a witness row
    is combined only with reduced rows, and a kernel row of u or vt is fixed
    when its row reduces to zero.  This keeps the bits of u and vt within a
    small multiple of the Hadamard bits of the matrix on every shape (tested
    to k = 40 on k x k, k x (k + 2) and (k + 2) x k inputs).

    The passes terminate: from the second pass on, entry (0, 0) is positive
    and is the gcd of the column (row pass) or row (column pass) through it,
    so it divides its previous value.  When it stops changing, the pass
    clears its row and column exactly, and later passes never touch them
    again.  The same argument then applies to the trailing submatrix.
    """
    m, n = len(rows), len(vt)
    passes = cycle(((vt, m), (u, n)))
    while not _is_diagonal(rows):
        wit, width = next(passes)
        rows = _witnessed_pass([list(c) for c in zip(*rows)], wit, width)
    # The last pass left a diagonal Hermite form (of the matrix or of its
    # transpose): positive entries, zeros trailing.  Fix the divisibility
    # chain with 2 x 2 unimodular transforms taking diag(x, y) to diag(gcd,
    # lcm): L = [[s, t], [-y/g, x/g]] on the left and R = [[1, -t*y/g], [1,
    # s*x/g]] on the right.
    d = [rows[i][i] for i in range(min(m, n)) if rows[i][i]]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            x, y = d[i], d[j]
            if y % x:
                g = gcd(x, y)
                xg, yg = x // g, y // g
                s = pow(xg, -1, yg)  # s*x + t*y == g
                t = (g - s * x) // y
                d[i], d[j] = g, x * yg
                _mix(u, i, j, s, t, -yg, xg)
                _mix(vt, i, j, 1, 1, -t * yg, s * xg)
    return d


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular witnesses: S = U @ A @ V."""
    m, n = a.rows, a.cols
    u, vt = _identity_lists(m), _identity_lists(n)
    d = _diagonalize(_witnessed_pass(a.to_lists(), u, n), u, vt)
    S = IntMatrix(m, n, tuple(tuple(d[i] if i == j and i < len(d) else 0
                                    for j in range(n)) for i in range(m)))
    U = IntMatrix(m, m, tuple(tuple(row) for row in u))
    V = IntMatrix(n, n, tuple(zip(*vt)))
    return SmithDecomposition(U, S, V, tuple(d))


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """The nonzero Smith diagonal, from bare Hermite passes.

    The transpose has the same factors, so the passes start from the column
    pass, as _diagonalize's do, on any input.  Each pass drops its zero
    rows, and the chain is repaired on the diagonal alone: (x, y) becomes
    (gcd, lcm).
    """
    rows, width = [list(c) for c in zip(*a.entries)], a.rows
    while True:
        width = _hermite_pass(rows, width)
        del rows[width:]
        if _is_diagonal(rows):
            break
        rows = [list(c) for c in zip(*rows)]
    d = [row[i] for i, row in enumerate(rows)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d)


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form of the row lattice of a.

    Zero rows are removed, pivots are positive and strictly right-shifting
    downward, and entries above each pivot are reduced into [0, pivot).
    """
    work = a.to_lists()
    r = _hermite_pass(work, a.cols)
    return IntMatrix(r, a.cols, tuple(tuple(row) for row in work[:r]))


def rank(a: IntMatrix) -> int:
    return hermite_normal_form(a).rows


# Laplace tables of at most this many terms are cached; a larger one, such
# as the 999,000 terms of a 2 x 1000 matrix's second row, is streamed
_CACHED_TABLE_TERMS = 1024


def _laplace_table(n: int, k: int):
    """An iterator over the terms of the Laplace expansion along row k of
    every (k + 1)-minor on the columns range(n).

    For each (k + 1)-subset s in combinations order it yields the triples
    (s[t], i, parity), t = k, ..., 0, that combinations(s, k) gives: i
    indexes s without s[t] among the k-subsets, and the parity of k + t is
    the cofactor sign.
    """
    index = dict(zip(combinations(range(n), k), count()))
    ids = map(index.__getitem__, chain.from_iterable(
        map(combinations, combinations(range(n), k + 1), repeat(k))))
    cols = chain.from_iterable(map(reversed, combinations(range(n), k + 1)))
    return zip(*[zip(cols, ids, cycle([u % 2 for u in range(k + 1)]))] * (k + 1))


@lru_cache(maxsize=32)
def _cached_laplace_table(n: int, k: int) -> tuple | None:
    """_laplace_table(n, k) as a tuple, or None past _CACHED_TABLE_TERMS."""
    if comb(n, k + 1) * (k + 1) <= _CACHED_TABLE_TERMS:
        return tuple(_laplace_table(n, k))
    return None


@lru_cache(maxsize=32)
def _minors_cost(m: int, n: int) -> tuple[int, int]:
    """The cost units of _minors' two methods on m rows and n columns: the
    Laplace expansions, sum_k k C(n, k) terms, and one Bareiss elimination
    per minor, about C(n, m) (3 + m^3 / 7).  Bounded-cached, as the Laplace
    tables are: every small shape repeats it."""
    return sum(k * comb(n, k) for k in range(m + 1)), comb(n, m) * (3 + m ** 3 // 7)


def _minors(rows, n: int) -> dict[tuple[int, ...], int]:
    """Every len(rows)-square minor of the rows, n entries each, keyed by
    column tuples in combinations order.

    A Laplace expansion along row k reuses the minors of the first k rows
    for the first k + 1: sum_k k C(n, k) terms, about 2^n as m nears n.  The
    minors of each row are a list in combinations order, the terms come
    from _laplace_table, which depends only on (n, k), and the dict is
    keyed once at the end.  One Bareiss elimination per minor serves
    instead whenever it costs no more (_minors_cost, in the same units as
    measured), which never happens when 2m <= n.  It raises TooLarge when
    the cheaper cost passes the work budget, so 6 x 30 (4.4e6 units)
    answers and 7 x 30 (1.9e7) does not; m 2^n bounds the Laplace sum, so
    while that is within the budget the check is one comparison.
    """
    m = len(rows)
    if 2 * m > n or m << n > BUDGETS["work"]:
        laplace, bareiss = _minors_cost(m, n)
        check_budget(min(laplace, bareiss), "work", "maximal minors exceed the computation budget")
        if laplace >= bareiss:
            return {s: _det([[row[j] for j in s] for row in rows])
                    for s in combinations(range(n), m)}
    # the first row's entries are its 1-minors; with no rows the one 0-minor is 1
    minors = list(rows[0]) if m else [1]
    for k in range(1, m):
        row = rows[k]
        new = []
        for terms in _cached_laplace_table(n, k) or _laplace_table(n, k):
            d = 0
            for j, i, odd in terms:
                x = row[j] * minors[i]
                d = d - x if odd else d + x
            new.append(d)
        minors = new
    return dict(zip(combinations(range(n), m), minors))


def pluecker_coordinates(a: IntMatrix) -> dict[tuple[int, ...], int]:
    """Maximal minors of a full-row-rank matrix, keyed by 1-based column tuples.

    The rank is read off the minors themselves, not from a Hermite form: a
    matrix has full row rank iff some maximal minor is nonzero.
    """
    minors = _minors(a.entries, a.cols).values()
    coords = dict(zip(combinations(range(1, a.cols + 1), a.rows), minors))
    if not any(coords.values()):
        raise RankDeficient("matrix does not have full row rank")
    return coords
