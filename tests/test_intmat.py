import math
import random
from fractions import Fraction
from math import gcd
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from diagtorus import (
    DiagSubgroup,
    IntMatrix,
    crn_conjugator,
    determinant,
    hermite_normal_form,
    invariant_factors,
    inverse_unimodular,
    pluecker_coordinates,
    smith_normal_form,
    transform,
)
from diagtorus import intmat
from diagtorus.errors import NotUnimodular, RankDeficient
from diagtorus.intmat import _hermite_pass, _minors, _solve


def small_matrix(max_dim=4, lo=-5, hi=5):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                min_size=m, max_size=m,
            ).map(lambda rows: IntMatrix.from_rows(rows, n))
        )
    )


def gcd_of_minors(a: IntMatrix, k: int) -> int:
    g = 0
    for rows in combinations(range(a.rows), k):
        for cols in combinations(range(a.cols), k):
            sub = IntMatrix(k, k, tuple(tuple(a.entries[i][j] for j in cols)
                                        for i in rows))
            g = gcd(g, determinant(sub))
    return g


class TestSmithNormalForm:
    def test_single_row_of_ones(self):
        dec = smith_normal_form(IntMatrix.from_rows([[1, 1, 1]]))
        assert dec.S.entries == ((1, 0, 0),)
        assert dec.factors == (1,)

    def test_zero_matrix(self):
        zero = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
        dec = smith_normal_form(zero)
        assert dec.S == zero
        assert dec.U == IntMatrix.identity(2)
        assert dec.V == IntMatrix.identity(3)
        assert dec.factors == ()

    def test_two_by_two(self):
        # gcd-of-minors oracle: f1 = gcd of entries, f2 = |det|
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        f1 = gcd_of_minors(a, 1)
        f2 = abs(determinant(a))
        assert (f1, f2 // f1) == (2, 4)
        assert smith_normal_form(a).factors == (2, 4)

    @given(small_matrix())
    @settings(max_examples=150, deadline=None)
    def test_reconstruction(self, a):
        dec = smith_normal_form(a)
        assert dec.U @ a @ dec.V == dec.S
        assert abs(determinant(dec.U)) == 1
        assert abs(determinant(dec.V)) == 1

    @given(small_matrix())
    @settings(max_examples=150, deadline=None)
    def test_divisibility_chain_and_positivity(self, a):
        f = smith_normal_form(a).factors
        assert all(x > 0 for x in f)
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))

    @given(small_matrix(max_dim=3, lo=-3, hi=3))
    @settings(max_examples=60, deadline=None)
    def test_factors_match_gcd_of_minors(self, a):
        f = smith_normal_form(a).factors
        prev = 1
        for k in range(1, len(f) + 1):
            fk = gcd_of_minors(a, k)
            assert f[k - 1] == fk // prev
            prev = fk

    def test_unimodular_invariance(self):
        rng = random.Random(7)
        a = IntMatrix.from_rows([[2, 4, 0], [6, 8, -2]])
        base = smith_normal_form(a).factors
        for _ in range(25):
            p = random_unimodular(2, rng)
            q = random_unimodular(3, rng)
            assert invariant_factors(p @ a @ q) == base

    def test_fast_path_agrees_with_witness_path(self):
        # Hermite bases, which every caller in the package passes, and their
        # transposes start the factors-only alternation from either side;
        # small entries, repeated rows and zero rows make ties common
        rng = random.Random(3)
        ranks = set()
        for trial in range(400):
            m, n = (0, 4) if trial == 0 else (5, 0) if trial == 1 else (
                rng.randint(0, 6), rng.randint(0, 9))
            bound = rng.choice((1, 9, 1000))
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.3:
                rows[-1] = rows[0]
            if m and rng.random() < 0.2:
                rows[rng.randrange(m)] = [0] * n
            a = IntMatrix.from_rows(rows, n)
            h = hermite_normal_form(a)
            ranks.add(h.rows)
            for x in (a, h, transpose(h)):
                assert invariant_factors(x) == smith_normal_form(x).factors, x
        assert ranks == set(range(7))


class TestInvariantFactors:
    @pytest.mark.parametrize("m,n", [(10, 10), (14, 11), (12, 17), (20, 20),
                                     (25, 22), (30, 30)])
    def test_known_diagonal_under_unimodular_mixing(self, m, n):
        # L @ D @ R with D a chosen Smith diagonal: the answer is known by
        # construction, not from another elimination
        rng = random.Random(f"ldr-{m}x{n}")
        k = rng.randint(min(m, n) // 2, min(m, n))
        diagonal = []
        for _ in range(k):
            diagonal.append((diagonal[-1] if diagonal else 1) * rng.choice((1, 1, 1, 2, 3)))
        d = IntMatrix.from_rows([[diagonal[i] if i == j and i < k else 0 for j in range(n)]
                                 for i in range(m)], n)
        a = random_unimodular(m, rng, steps=3 * m) @ d @ random_unimodular(n, rng, steps=3 * n)
        assert invariant_factors(a) == tuple(diagonal)


class TestEmptyShapes:
    def test_determinant_of_0x0_is_1(self):
        assert determinant(IntMatrix(0, 0, ())) == 1

    @pytest.mark.parametrize("m,n", [(0, 3), (0, 0), (3, 0)])
    def test_invariant_factors_of_an_empty_side(self, m, n):
        assert invariant_factors(IntMatrix.from_rows([[0] * n] * m, n)) == ()

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_pluecker_coordinates_of_0_rows(self, n):
        assert pluecker_coordinates(IntMatrix(0, n, ())) == {(): 1}

    def test_pluecker_coordinates_of_a_tall_matrix(self):
        with pytest.raises(RankDeficient):
            pluecker_coordinates(IntMatrix.from_rows([[1, 0], [0, 1], [1, 1]]))


def transpose(a: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows([[row[j] for row in a.entries] for j in range(a.cols)], a.rows)


def random_matrix(rng, m, n, bound):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)], n)


def max_bits(*mats):
    return max((abs(x).bit_length() for mat in mats for row in mat.entries
                for x in row), default=0)


class TestSmithWitnesses:
    def test_zero_row_input_has_a_real_empty_u(self):
        a = IntMatrix(0, 3, ())
        dec = smith_normal_form(a)
        assert dec.U == IntMatrix.identity(0) == IntMatrix(0, 0, ())
        assert dec.U @ a @ dec.V == dec.S
        assert dec.factors == ()

    @pytest.mark.parametrize("diagonal,factors", [
        ((2, 3), (1, 6)), ((4, 2), (2, 4)), ((6, 4, 0), (2, 12)), ((0, 5, 3), (1, 15)),
    ])
    def test_divisibility_chain_repair(self, diagonal, factors):
        n = len(diagonal)
        a = IntMatrix.from_rows([[d if i == j else 0 for j in range(n)]
                                 for i, d in enumerate(diagonal)])
        dec = smith_normal_form(a)
        assert dec.factors == factors
        assert dec.U @ a @ dec.V == dec.S
        assert abs(determinant(dec.U)) == abs(determinant(dec.V)) == 1

    @pytest.mark.parametrize("shape", ["square", "wide", "tall"])
    def test_witness_bits_within_hadamard_multiple(self, shape):
        # every k x k minor of a matrix with |entries| <= B is at most
        # (B sqrt k)^k, so ceil(k log2(B sqrt k)) + 1 bits hold any of them
        rng = random.Random(f"witness-bits-{shape}")
        bound = 100
        for k in range(4, 41, 4):
            m, n = {"square": (k, k), "wide": (k, k + 2), "tall": (k + 2, k)}[shape]
            a = random_matrix(rng, m, n, bound)
            dec = smith_normal_form(a)
            assert dec.U @ a @ dec.V == dec.S
            hadamard = math.ceil(k * math.log2(bound * math.sqrt(k))) + 1
            assert max_bits(dec.U, dec.V) <= 8 * hadamard, (m, n)

    def test_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors as sympy_factors

        rng = random.Random(31)
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a = random_matrix(rng, m, n, rng.choice((2, 9, 100)))
            if m > 1 and rng.random() < 0.3:
                a = IntMatrix.from_rows(a.entries[:-1] + (a.entries[0],), n)
            want = tuple(abs(int(x)) for x in
                         sympy_factors(sympy.Matrix(a.to_lists()), domain=sympy.ZZ) if x)
            assert smith_normal_form(a).factors == want
            assert invariant_factors(a) == want


class TestInverseUnimodular:
    def test_inverse(self):
        rng = random.Random(41)
        for n in (1, 2, 5, 12):
            u = random_unimodular(n, rng, steps=4 * n)
            inv = inverse_unimodular(u)
            assert u @ inv == IntMatrix.identity(n)
            assert inv @ u == IntMatrix.identity(n)

    @pytest.mark.parametrize("rows", [[[2, 0], [0, 1]], [[1, 2], [2, 4]], [[1, 0, 0]]])
    def test_rejects_non_unimodular(self, rows):
        with pytest.raises(NotUnimodular):
            inverse_unimodular(IntMatrix.from_rows(rows))


def column_wise_pass(work, width):
    """A Hermite pass that reduces every remaining row against the row of
    least |entry|, a column at a time: the reference the row-by-row pass
    must match wherever the result is unique."""
    m = len(work)
    r = 0
    for col in range(width):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if work[i][col]]
            if len(nz) <= 1:
                break
            base = min(nz, key=lambda i: abs(work[i][col]))
            nz.remove(base)
            b = work[base]
            p = b[col]
            for i in nz:
                q = work[i][col] // p
                work[i] = [x - q * y for x, y in zip(work[i], b)]
        if not nz:
            continue
        i = nz[0]
        work[r], work[i] = work[i], work[r]
        if work[r][col] < 0:
            work[r] = [-x for x in work[r]]
        b = work[r]
        p = b[col]
        for k in range(r):
            q = work[k][col] // p
            if q:
                work[k] = [x - q * y for x, y in zip(work[k], b)]
        r += 1
    return r


def with_identity(rows):
    return [list(row) + [int(i == j) for j in range(len(rows))] for i, row in enumerate(rows)]


class TestHermitePass:
    """The row-by-row pass against the column-wise reference."""

    def test_hermite_forms_match_the_column_wise_pass(self):
        rng = random.Random("hermite-pass-vs-column-wise")
        deficient = repeated = 0
        for trial in range(600):
            m, n = rng.randint(0, 8), rng.randint(0, 8)
            rows = random_matrix(rng, m, n, rng.choice((1, 9, 1000))).to_lists()
            if trial % 3 == 1 and m > 2:
                i, j = rng.sample(range(m - 1), 2)
                c, d = rng.randint(-3, 3), rng.randint(-3, 3)
                rows[-1] = [c * x + d * y for x, y in zip(rows[i], rows[j])]
                deficient += 1
            elif trial % 3 == 2 and m > 1:
                rows[-1] = list(rows[rng.randrange(m - 1)])
                repeated += 1
            want = [list(row) for row in rows]
            r = column_wise_pass(want, n)
            got = [list(row) for row in rows]
            assert _hermite_pass(got, n) == r
            assert got[:r] == want[:r], rows
            assert not any(map(any, got[r:]))
        assert deficient >= 120 and repeated >= 120

    @pytest.mark.parametrize("shape", ["square", "wide"])
    def test_transform_matches_where_it_is_unique(self, shape):
        # a full-row-rank matrix has one U with U A in Hermite form, so the
        # witness must come out byte for byte
        rng = random.Random(f"hermite-pass-unique-{shape}")
        for trial in range(60):
            m = rng.randint(1, 9)
            n = m if shape == "square" else rng.randint(m + 1, m + 4)
            a = random_matrix(rng, m, n, rng.choice((3, 100)))
            if hermite_normal_form(a).rows < m:
                continue
            want = with_identity(a.entries)
            column_wise_pass(want, n)
            got = with_identity(a.entries)
            _hermite_pass(got, n)
            assert got == want, a

    @pytest.mark.parametrize("m,n", [(20, 20), (22, 20), (6, 4)])
    def test_witness_carries_the_matrix_to_its_hermite_form(self, m, n, monkeypatch):
        steps = []
        euclid = intmat._euclid

        def counting(a, b):
            steps.append((a, b))
            return euclid(a, b)

        monkeypatch.setattr(intmat, "_euclid", counting)
        rng = random.Random(f"hermite-pass-inverse-{m}x{n}")
        for _ in range(3):
            a = random_matrix(rng, m, n, 100)
            work = with_identity(a.entries)
            r = _hermite_pass(work, n)
            w = IntMatrix.from_rows([row[n:] for row in work], m)
            h = IntMatrix.from_rows([row[:n] for row in work], n)
            assert w @ a == h
            assert hermite_normal_form(a).entries == h.entries[:r]
        assert steps, "no Euclid transform was exercised"

    def test_lattices_match_sympy(self):
        # sympy's Hermite form is column-style: its columns span the column
        # lattice, so it is taken of the transpose and compared as a lattice
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

        rng = random.Random("hermite-pass-sympy")
        for trial in range(150):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            rows = random_matrix(rng, m, n, rng.choice((2, 9, 1000))).to_lists()
            if trial % 2 and m > 1:
                rows[-1] = [2 * x for x in rows[0]]
            a = IntMatrix.from_rows(rows, n)
            basis = sympy_hnf(sympy.Matrix(rows).T).T
            want = IntMatrix.from_rows([[int(x) for x in basis.row(i)]
                                        for i in range(basis.rows)], n)
            assert hermite_normal_form(a) == hermite_normal_form(want), rows


def random_unimodular(n, rng, steps=6):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntMatrix.from_rows(m, n)


class TestHermiteNormalForm:
    @pytest.mark.parametrize("rows,expected", [
        ([[0, 1], [1, 0]], ((1, 0), (0, 1))),
        ([[2, 4]], ((2, 4),)),
        ([[1, 2], [3, 4]], ((1, 0), (0, 2))),
    ])
    def test_examples(self, rows, expected):
        assert hermite_normal_form(IntMatrix.from_rows(rows)).entries == expected

    @given(small_matrix())
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, a):
        h = hermite_normal_form(a)
        assert hermite_normal_form(h) == h

    @given(small_matrix())
    @settings(max_examples=100, deadline=None)
    def test_shape(self, a):
        h = hermite_normal_form(a)
        pivots = []
        for row in h.entries:
            j = next(k for k, x in enumerate(row) if x)
            assert row[j] > 0
            pivots.append(j)
            for other in h.entries:
                if other is not row:
                    pass
        assert pivots == sorted(set(pivots))
        # entries above a pivot are reduced into [0, pivot)
        for r, j in enumerate(pivots):
            for k in range(r):
                assert 0 <= h.entries[k][j] < h.entries[r][j]

    @given(small_matrix())
    @settings(max_examples=100, deadline=None)
    def test_row_span_preserved(self, a):
        from diagtorus import contains, lattice_of

        la = lattice_of(a)
        h = hermite_normal_form(a)
        for row in a.entries:
            assert contains(lattice_of(h), row)
        for row in h.entries:
            assert contains(la, row)


class TestPluecker:
    def test_identity(self):
        assert pluecker_coordinates(IntMatrix.identity(2)) == {(1, 2): 1}

    def test_rectangular(self):
        got = pluecker_coordinates(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
        assert got == {(1, 2): 1, (1, 3): 0, (2, 3): 0}

    def test_diagonal(self):
        assert pluecker_coordinates(IntMatrix.from_rows([[2, 0], [0, 3]])) == {(1, 2): 6}

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            pluecker_coordinates(IntMatrix.from_rows([[1, 2], [2, 4]]))


def bareiss_minors(a: IntMatrix, cols) -> dict[tuple[int, ...], int]:
    """Every maximal minor of a on the columns cols, one determinant each."""
    m = a.rows
    return {s: determinant(IntMatrix(m, m, tuple(tuple(row[j] for j in s)
                                                 for row in a.entries)))
            for s in combinations(cols, m)}


class TestMinors:
    def test_match_bareiss_on_every_column_subset(self):
        # the Laplace tables depend only on (n, row), so calls with one
        # column count and several row counts, and the minors of a column
        # subset or of m - 1 rows on m columns (restricted rows), share them
        # in any order
        rng = random.Random("minors-vs-bareiss")
        deficient = zero_column = 0
        for trial in range(300):
            m = rng.randint(1, 5)
            n = rng.randint(m, 8)
            rows = random_matrix(rng, m, n, rng.choice((1, 9, 1000))).to_lists()
            if trial % 3 == 1 and m > 1:
                # the last row becomes a combination of two others
                i, j = rng.sample(range(m - 1), 2) if m > 2 else (0, 0)
                c, d = rng.randint(-3, 3), rng.randint(-3, 3)
                rows[-1] = [c * x + d * y for x, y in zip(rows[i], rows[j])]
            elif trial % 3 == 2:
                for j in rng.sample(range(n), rng.randint(1, n)):
                    for row in rows:
                        row[j] = 0
                zero_column += 1
            a = IntMatrix.from_rows(rows, n)
            want = bareiss_minors(a, range(n))
            got = _minors(a.entries, n)
            assert list(got) == list(combinations(range(n), m))
            assert got == want
            cols = sorted(rng.sample(range(n), rng.randint(m, n)))
            sub = _minors([[row[j] for j in cols] for row in rows], len(cols))
            assert list(sub.values()) == list(bareiss_minors(a, cols).values())
            k = rng.randint(0, m)
            head = IntMatrix.from_rows(rows[:k], n)
            assert _minors(head.entries, n) == bareiss_minors(head, range(n))
            key = tuple(sorted(rng.sample(range(n), m)))
            j = rng.randrange(m)
            cof = IntMatrix.from_rows(rows[:j] + rows[j + 1:], n)
            got = _minors([[row[c] for c in key] for row in cof.entries], m)
            assert list(got.values()) == list(bareiss_minors(cof, key).values())
            if any(want.values()):
                coords = pluecker_coordinates(a)
                assert list(coords) == list(combinations(range(1, n + 1), m))
                assert list(coords.values()) == list(want.values())
            else:
                deficient += 1
                with pytest.raises(RankDeficient):
                    pluecker_coordinates(a)
        assert deficient >= 50 and zero_column >= 50
        # past the cap: the second row's table of a 2 x 60 matrix has
        # 2 C(60, 2) = 3,540 terms, and only the first row's is cached
        assert 2 * math.comb(60, 2) > intmat._CACHED_TABLE_TERMS >= 60
        a = random_matrix(rng, 2, 60, 1000)
        got = _minors(a.entries, 60)
        assert list(got) == list(combinations(range(60), 2))
        assert got == bareiss_minors(a, range(60))
        cache = intmat._cached_laplace_table
        assert len(cache(60, 0)) == 60 and cache(60, 1) is None
        assert cache.cache_info().currsize <= cache.cache_info().maxsize

    @pytest.mark.parametrize("m,n", [(6, 6), (8, 9), (10, 11), (6, 9), (7, 11), (5, 10)])
    def test_match_sympy_on_both_sides_of_the_method_choice(self, m, n):
        # the first three shapes take one Bareiss elimination per minor, the
        # others the shared expansion; sympy's determinant is independent of
        # both
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"minors-choice-{m}x{n}")
        rows = random_matrix(rng, m, n, 1000).entries
        got = _minors(rows, n)
        assert list(got) == list(combinations(range(n), m))
        for s, d in got.items():
            assert d == sympy.Matrix([[row[j] for j in s] for row in rows]).det()

    @pytest.mark.parametrize("m", [1, 3])
    def test_no_columns(self, m):
        a = IntMatrix(m, 0, ((),) * m)
        assert _minors(a.entries, 0) == {}
        with pytest.raises(RankDeficient):
            pluecker_coordinates(a)


def fraction_inverse(a):
    """a^-1 over the rationals, by Gauss-Jordan on Fractions with a
    row-swap pivot."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for k in range(n):
        i = next(i for i in range(k, n) if work[i][k])
        work[k], work[i] = work[i], work[k]
        work[k] = [x / work[k][k] for x in work[k]]
        for i in range(n):
            if i != k and work[i][k]:
                work[i] = [x - work[i][k] * y for x, y in zip(work[i], work[k])]
    return [row[n:] for row in work]


class TestSolve:
    def test_matches_a_fraction_inverse(self):
        # _solve(a, b) is (d, d a^-1 b) with d = +-det a; a third of the
        # inputs have a zero leading entry, so the row swap runs, and the
        # sign of d follows the swaps
        rng = random.Random("solve-vs-fractions")
        swapped = 0
        for trial in range(300):
            n = rng.randint(1, 6)
            while True:
                a = random_matrix(rng, n, n, rng.choice((1, 9, 1000))).to_lists()
                if trial % 3 == 0 and n > 1:
                    a[0][0] = 0
                    for i in rng.sample(range(1, n), rng.randint(0, n - 2)):
                        a[i][0] = 0
                if determinant(IntMatrix.from_rows(a, n)):
                    break
            b = random_matrix(rng, n, rng.randint(0, 4), 50).to_lists()
            swapped += a[0][0] == 0
            d, x = _solve(a, b)
            det = determinant(IntMatrix.from_rows(a, n))
            assert d in (det, -det)
            inv = fraction_inverse(a)
            want = [[d * sum(inv[i][k] * b[k][j] for k in range(n)) for j in range(len(b[0]))]
                    for i in range(n)]
            assert x == want
            assert all(type(v) is int for row in x for v in row)
        assert swapped >= 80

    def test_gram_matrices_need_no_swap(self):
        # G = h h^T is positive definite, so d is det(G) with its sign
        rng = random.Random("solve-gram")
        for _ in range(200):
            n = rng.randint(1, 7)
            h = hermite_normal_form(random_matrix(rng, rng.randint(1, n), n, 9))
            g = [[sum(x * y for x, y in zip(r, s)) for s in h.entries] for r in h.entries]
            d, x = _solve(g, h.entries)
            assert d == determinant(IntMatrix.from_rows(g, h.rows)) > 0
            inv = fraction_inverse(g)
            assert x == [[d * sum(inv[i][k] * h.entries[k][j] for k in range(h.rows))
                          for j in range(n)] for i in range(h.rows)]


class TestPivotChoiceWitnesses:
    """Golden witnesses for matrices in which rows tie on the smallest
    |pivot| in a column, in the input or in a later pass.  The Hermite pass
    reduces against the first such row; another choice gives different,
    equally valid witnesses, so these pin the operation sequence itself.
    The Hermite forms are unique and pinned only for completeness."""

    @pytest.mark.parametrize("rows,u,s,v,h", [
        ([[4, 6], [-4, 9], [4, 2]],
         ((3, -1, -4), (29, -10, -40), (11, -4, -15)),
         ((1, 0), (0, 4), (0, 0)),
         ((1, -1), (1, 0)),
         ((4, 0), (0, 1))),
        ([[-6, -6], [-6, -6]],
         ((-1, 0), (-1, 1)),
         ((6, 0), (0, 0)),
         ((1, -1), (0, 1)),
         ((6, 6),)),
        ([[2, 3, 1], [-2, 5, 4], [2, 1, 7]],
         ((0, 0, 1), (-2, 1, 3), (55, -28, -141)),
         ((1, 0, 0), (0, 1, 0), (0, 0, 116)),
         ((5, 2, 9), (-23, -11, -46), (2, 1, 4)),
         ((2, 1, 7), (0, 2, 23), (0, 0, 29))),
        ([[-1, 2, -1], [0, 1, -1]],
         ((-1, 2), (0, 1)),
         ((1, 0, 0), (0, 1, 0)),
         ((1, 0, 1), (0, 1, 1), (0, 0, 1)),
         ((1, 0, -1), (0, 1, -1))),
    ])
    def test_smith_and_hermite(self, rows, u, s, v, h):
        a = IntMatrix.from_rows(rows)
        dec = smith_normal_form(a)
        assert (dec.U.entries, dec.S.entries, dec.V.entries) == (u, s, v)
        assert dec.U @ a @ dec.V == dec.S
        assert hermite_normal_form(a).entries == h

    def test_crn_conjugator(self):
        g1 = DiagSubgroup.from_matrix(IntMatrix.from_rows([[-3, -2, 0], [-3, -2, -3]]))
        g2 = DiagSubgroup.from_matrix(IntMatrix.from_rows([[-3, -3, 0], [2, 3, -1]]))
        got = crn_conjugator(g1, g2)
        assert got.entries == ((1, 0, -1), (-1, 0, 2), (0, 1, -1))
        assert transform(g1.lattice, got) == g2.lattice
