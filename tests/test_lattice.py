import json
import random
import time
from collections import Counter
from itertools import combinations, permutations
from math import gcd

import pytest

from conftest import deadline
from diagtorus import errors, intmat, lattice
from diagtorus import (
    DiagSubgroup,
    IntMatrix,
    conjugate_in_gl,
    contains,
    equal,
    lattice_of,
    permuted_equal,
    pluecker_coordinates,
    pluecker_equal,
    transform,
)
from diagtorus.cli import main
from diagtorus.errors import DimensionMismatch, NotUnimodular, RankDeficient, TooLarge
from diagtorus.intmat import _minors, hermite_normal_form, invariant_factors
from diagtorus.oracle import lattice_equal_bounded


def test_contains_basic():
    lat = lattice_of(IntMatrix.from_rows([[1, 2], [3, 4]]))
    assert contains(lat, (1, 0))
    assert contains(lat, (0, 2))
    assert not contains(lat, (0, 1))


def test_contains_zero_vector_always():
    lat = lattice_of(IntMatrix.from_rows([[5, 10, 0]]))
    assert contains(lat, (0, 0, 0))


def test_contains_dimension_check():
    lat = lattice_of(IntMatrix.from_rows([[1, 2]]))
    with pytest.raises(DimensionMismatch):
        contains(lat, (1, 2, 3))


def test_equal_examples():
    a = lattice_of(IntMatrix.from_rows([[1, 2], [3, 4]]))
    b = lattice_of(IntMatrix.from_rows([[1, 0], [0, 2]]))
    c = lattice_of(IntMatrix.from_rows([[2, 0], [0, 1]]))
    assert equal(a, b)
    assert not equal(a, c)


def test_equal_order_of_generators_irrelevant():
    a = lattice_of(IntMatrix.from_rows([[3, 4], [1, 2]]))
    b = lattice_of(IntMatrix.from_rows([[1, 2], [3, 4]]))
    assert equal(a, b)


def test_pluecker_equal_examples():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[1, 0], [0, 2]])
    c = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert pluecker_equal(a, b)
    assert not pluecker_equal(a, c)


def test_pluecker_equal_integrality_needed():
    # same minors up to sign but the sublattice is strict
    a = IntMatrix.from_rows([[1, 0, 2], [0, 1, 3]])
    b = IntMatrix.from_rows([[1, 0, 2], [0, 1, 3]])
    assert pluecker_equal(a, b)
    strict = IntMatrix.from_rows([[2, 0, 4], [0, 1, 3]])
    assert not pluecker_equal(a, strict)


def _full_rank_matrix(rng, m, n):
    while True:
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        try:
            pluecker_coordinates(IntMatrix.from_rows(a, n))
        except RankDeficient:
            continue
        return a


def _unimodular(rng, m):
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return IntMatrix.from_rows(u, m)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_pluecker_integrality_catches_equal_minors(m):
    # b = U @ X @ a with det X = 1 and X not integral, so the maximal minors
    # agree up to sign while the lattices differ: X is diag(1/p, p) or
    # I + E_ij / p on rows i, j, with a row of a scaled by p to keep b
    # integral.  With X = I the lattices are equal.  The answer is known by
    # construction, and Hermite equality must give it too.
    rng = random.Random(f"pluecker-integrality-{m}")
    for trial in range(60):
        n = rng.randint(m, 6)
        a = _full_rank_matrix(rng, m, n)
        i, j = rng.sample(range(m), 2)
        p = rng.choice((2, 3, 5))
        kind = trial % 3
        b = [list(row) for row in a]
        if kind == 0:
            a[i] = [p * x for x in a[i]]
            b[j] = [p * x for x in b[j]]
        elif kind == 1:
            b[i] = [x + y for x, y in zip(b[i], b[j])]
            a[j] = b[j] = [p * x for x in b[j]]
        a = IntMatrix.from_rows(a, n)
        b = _unimodular(rng, m) @ IntMatrix.from_rows(b, n)
        pa, pb = pluecker_coordinates(a), pluecker_coordinates(b)
        assert pa == pb or pa == {k: -x for k, x in pb.items()}
        want = kind == 2
        assert pluecker_equal(a, b) == pluecker_equal(b, a) == want
        assert equal(lattice_of(a), lattice_of(b)) == want


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_pluecker_equal_under_a_global_sign_flip(m):
    # b = S @ X @ a with det S = -1: the Pluecker vectors are negatives of
    # each other, and X decides the answer as in the test above
    rng = random.Random(f"pluecker-sign-{m}")
    for trial in range(40):
        n = rng.randint(m, 6)
        a = _full_rank_matrix(rng, m, n)
        b = [list(row) for row in a]
        equal_lattices = m == 1 or trial % 2 == 0
        if not equal_lattices:
            i, j = rng.sample(range(m), 2)
            p = rng.choice((2, 3))
            a[i] = [p * x for x in a[i]]
            b[j] = [p * x for x in b[j]]
        b = IntMatrix.from_rows(b, n)
        if m > 1:
            b = _unimodular(rng, m) @ b
        k = rng.randrange(m)
        b = IntMatrix.from_rows([[-x for x in row] if r == k else row
                                 for r, row in enumerate(b.entries)], n)
        a = IntMatrix.from_rows(a, n)
        pa, pb = pluecker_coordinates(a), pluecker_coordinates(b)
        assert pa == {key: -x for key, x in pb.items()} != pb
        assert pluecker_equal(a, b) == pluecker_equal(b, a) == equal_lattices
        assert equal(lattice_of(a), lattice_of(b)) == equal_lattices


@pytest.mark.parametrize("m,n", [(10, 14), (16, 16), (20, 20), (30, 30)])
def test_pluecker_equal_on_large_near_square_inputs(m, n):
    # on square shapes the shared Laplace expansion would take about n 2^n
    # terms, so every minor comes from its own Bareiss elimination; 10 x 14
    # expands its coordinates.  The integrality test is one m x 2m solve, so
    # 30 x 30 answers well within the deadline in both orders (m cofactor
    # expansions of m - 1 rows took about 2 s a call).  As above, a and b
    # have the same minors up to sign and differ as lattices.
    rng = random.Random(f"pluecker-large-{m}x{n}")
    a = _full_rank_matrix(rng, m, n)
    b = [list(row) for row in a]
    a[0] = [2 * x for x in a[0]]
    b[1] = [2 * x for x in b[1]]
    a = IntMatrix.from_rows(a, n)
    b = _unimodular(rng, m) @ IntMatrix.from_rows(b, n)
    c = _unimodular(rng, m) @ a
    with deadline():
        assert not pluecker_equal(a, b) and not equal(lattice_of(a), lattice_of(b))
        assert pluecker_equal(a, c) and pluecker_equal(c, a)


def test_methods_agree_on_random_full_rank_pairs():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        m = rng.randint(1, 2)
        n = rng.randint(m, 3)
        a = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], n)
        b = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], n)
        from diagtorus import rank
        if rank(a) < m or rank(b) < m:
            continue
        assert pluecker_equal(a, b) == equal(lattice_of(a), lattice_of(b))
        checked += 1


def test_equal_matches_bounded_enumeration_oracle():
    pairs = [
        ([[1, 2], [3, 4]], [[1, 0], [0, 2]]),
        ([[2, 0]], [[0, 2]]),
        ([[1, 1], [0, 3]], [[1, 1], [3, 0]]),
        ([[6, 10, 15]], [[6, 10, 15]]),
    ]
    for ra, rb in pairs:
        a = IntMatrix.from_rows(ra)
        b = IntMatrix.from_rows(rb)
        assert equal(lattice_of(a), lattice_of(b)) == lattice_equal_bounded(a, b, 6)


def test_transform_by_unimodular_matrix():
    lat = lattice_of(IntMatrix.from_rows([[2, 0], [0, 2]]))
    u = IntMatrix.from_rows([[1, 1], [0, 1]])
    out = transform(lat, u)
    assert equal(out, lattice_of(IntMatrix.from_rows([[2, 2], [0, 2]])))


def test_transform_rejects_nonunimodular():
    lat = lattice_of(IntMatrix.from_rows([[1, 0]]))
    with pytest.raises(NotUnimodular):
        transform(lat, IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_transform_of_a_rank_0_lattice():
    for rows in ((), ((0, 0, 0), (0, 0, 0))):
        lat = lattice_of(IntMatrix(len(rows), 3, rows))
        out = transform(lat, IntMatrix.from_rows([[1, 2, 0], [0, 1, 0], [3, 0, 1]]))
        assert out == lat and out.rank == 0 and out.basis == IntMatrix(0, 3, ())


def test_transform_identity_is_noop():
    lat = lattice_of(IntMatrix.from_rows([[1, 2], [3, 4]]))
    assert equal(transform(lat, IntMatrix.identity(2)), lat)


class TestPermutedEqual:
    def test_swap(self):
        a = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0]])
        b = IntMatrix.from_rows([[0, 1, 0], [2, 0, 0]])
        assert permuted_equal(a, b) == (1, 0, 2)

    def test_identity_is_lex_least(self):
        a = IntMatrix.from_rows([[1, 0], [0, 1]])
        assert permuted_equal(a, a) == (0, 1)

    def test_no_match(self):
        a = IntMatrix.from_rows([[2, 0]])
        b = IntMatrix.from_rows([[3, 0]])
        assert permuted_equal(a, b) is None

    def test_result_is_verified_by_direct_recheck(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(1, n)
            a = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)], n)
            p = list(range(n))
            rng.shuffle(p)
            b = IntMatrix(m, n, tuple(tuple(row[p[j]] for j in range(n))
                                      for row in a.entries))
            got = permuted_equal(a, b)
            assert got is not None
            permuted = IntMatrix(b.rows, n, tuple(tuple(row[k] for k in got)
                                                  for row in b.entries))
            assert equal(lattice_of(permuted), lattice_of(a))


def lex_least_permutation(a, b):
    """Reference for permuted_equal: scan S_n in lexicographic order and
    compare Hermite bases at every leaf."""
    target = lattice_of(a)
    for p in permutations(range(a.cols)):
        permuted = IntMatrix(b.rows, b.cols, tuple(tuple(row[k] for k in p)
                                                   for row in b.entries))
        if equal(lattice_of(permuted), target):
            return p
    return None


def _mat(rows, n):
    return IntMatrix.from_rows(rows, n)


def _shuffled(rng, rows, n):
    """Columns permuted at random, then a few random row operations."""
    p = rng.sample(range(n), n)
    out = [[row[p[j]] for j in range(n)] for row in rows]
    for _ in range(3):
        if len(out) > 1:
            i, k = rng.sample(range(len(out)), 2)
            c = rng.randint(-2, 2)
            out[i] = [x + c * y for x, y in zip(out[i], out[k])]
    return out


def _kernel_of_weights(v):
    # rows e_j - v_j e_1 span the kernel of a weight vector with v_1 = 1
    n = len(v)
    return [[-v[j] if k == 0 else int(k == j) for k in range(n)] for j in range(1, n)]


def _congruence(c, m):
    # rows spanning {x : c.x = 0 (mod m)}, for c with c_1 a unit mod m
    n = len(c)
    inv = pow(c[0], -1, m)
    return [[m] + [0] * (n - 1)] + [[-c[j] * inv % m if k == 0 else int(k == j)
                                     for k in range(n)] for j in range(1, n)]


class TestPermutedEqualMatchesBruteForce:
    def test_random_pairs(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 5)
            m = rng.randint(0, n)
            a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            kind = rng.randrange(3)
            if kind == 0:
                b = _shuffled(rng, a, n)
            elif kind == 1:
                b = _shuffled(rng, a, n)
                if m:
                    b[rng.randrange(m)][rng.randrange(n)] += rng.choice((-1, 1))
            else:
                b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            a, b = _mat(a, n), _mat(b, n)
            assert permuted_equal(a, b) == lex_least_permutation(a, b), (a, b)

    def test_rank_n_minus_1_family(self):
        # every prefix projection of these lattices is all of Z^j, so only
        # the kernel side prunes
        rng = random.Random(31)
        for n in range(2, 6):
            for _ in range(6):
                v = [1] + [rng.randint(-3, 3) for _ in range(n - 1)]
                w = [1] + rng.sample(v[1:], n - 1)
                if rng.random() < 0.5:
                    w[rng.randrange(1, n)] += 1
                a, b = _mat(_kernel_of_weights(v), n), _mat(_kernel_of_weights(w), n)
                assert permuted_equal(a, b) == lex_least_permutation(a, b), (v, w)

    def test_mid_rank_family(self):
        # [I | X] against [I | X'] with X' a small change of X
        rng = random.Random(37)
        for n in range(3, 6):
            for r in range(1, n):
                for _ in range(4):
                    x = [[rng.randint(-2, 2) for _ in range(n - r)] for _ in range(r)]
                    a = [[int(i == j) for j in range(r)] + x[i] for i in range(r)]
                    b = [row[:] for row in a]
                    if rng.random() < 0.5:
                        b[rng.randrange(r)][rng.randrange(r, n)] += rng.choice((-1, 1))
                    b = _shuffled(rng, b, n)
                    a, b = _mat(a, n), _mat(b, n)
                    assert permuted_equal(a, b) == lex_least_permutation(a, b), (a, b)

    def test_full_rank_index_family(self):
        # {x : c.x = 0 (mod m)} projects onto all of Z^j and has no kernel,
        # so only the annihilator mod m prunes
        rng = random.Random(41)
        for n in range(2, 6):
            for m in (2, 3, 5):
                c = [1] + [rng.randrange(m) for _ in range(n - 1)]
                d = [1] + rng.sample(c[1:], n - 1)
                if rng.random() < 0.5:
                    d[rng.randrange(1, n)] = rng.randrange(m)
                a, b = _mat(_congruence(c, m), n), _mat(_congruence(d, m), n)
                assert permuted_equal(a, b) == lex_least_permutation(a, b), (c, d, m)


    def test_repeated_column_family(self):
        # few distinct columns, so many column swaps fix the lattice and the
        # search skips the twins of a failed column
        rng = random.Random(43)
        for _ in range(150):
            n = rng.randint(2, 6)
            m = rng.randint(1, n)
            kinds = [[rng.randint(-1, 2) for _ in range(m)] for _ in range(rng.randint(1, 3))]
            cols = [rng.choice(kinds) for _ in range(n)]
            a = [[col[i] for col in cols] for i in range(m)]
            b = _shuffled(rng, a, n)
            if rng.random() < 0.5:
                b[rng.randrange(m)][rng.randrange(n)] += rng.choice((-1, 1))
            a, b = _mat(a, n), _mat(b, n)
            assert permuted_equal(a, b) == lex_least_permutation(a, b), (a, b)


def _permuted(rows, p, n):
    return _mat([[row[k] for k in p] for row in rows], n)


def _block_family(k):
    # a = span(e_1 + e_2, ..., e_2k-1 + e_2k); b has e_1 - e_2 first
    n = 2 * k
    a = [[int(c // 2 == i) for c in range(n)] for i in range(k)]
    b = [row[:] for row in a]
    b[0][1] = -1
    return a, b


def _colour_graph(nx, h):
    """Complete graph on the columns of a Hermite basis: each node carries
    its column gcd, each edge (j, k) the gcds of col_j - col_k and
    col_j + col_k, computed here from the entries."""
    cols = [[row[j] for row in h.entries] for j in range(h.cols)]
    g = nx.Graph()
    for j, x in enumerate(cols):
        g.add_node(j, gcd=gcd(*x))
    for j, k in combinations(range(h.cols), 2):
        x, y = cols[j], cols[k]
        g.add_edge(j, k, colour=(gcd(*(s - t for s, t in zip(x, y))),
                                 gcd(*(s + t for s, t in zip(x, y)))))
    return g


def _negated_column_pairs():
    # 4,000 pairs (n, a, b) with b a with its columns shuffled and one of
    # them negated, n = 2..6, rank up to 3 and entries -2..2
    rng = random.Random(53)
    for _ in range(4000):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(3, n))
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        b = _shuffled(rng, a, n)
        k = rng.randrange(n)
        for row in b:
            row[k] = -row[k]
        yield n, a, b


def _perturbed_pairs():
    # 600 pairs (n, a, b) with b a shuffled copy of a, then either one entry
    # moved by 1 or, half of the other times, one column negated
    rng = random.Random(59)
    for _ in range(600):
        n = rng.randint(1, 6)
        m = rng.randint(0, min(3, n))
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        b = _shuffled(rng, a, n)
        if m and rng.random() < 0.5:
            b[rng.randrange(m)][rng.randrange(n)] += rng.choice((-1, 1))
        elif rng.random() < 0.5:
            k = rng.randrange(n)
            for row in b:
                row[k] = -row[k]
        yield n, a, b


def _symmetric_pairs():
    # 300 pairs (n, a, b) with a = [1 ... 1; v], v symmetric about its mean
    # (such as -3 0 3), so that Q_jj = sum_k (v_k - v_j)^2 is the same on a
    # column and its mirror; b is a shuffled copy of a, half of the time
    # with one column negated
    rng = random.Random(73)
    for _ in range(300):
        n = rng.randint(3, 6)
        mean = rng.randint(-3, 3)
        d = rng.sample(range(1, 5), n // 2)
        v = [mean + x for x in d] + [mean - x for x in d] + [mean] * (n % 2)
        rng.shuffle(v)
        a = [[1] * n, v]
        b = _shuffled(rng, a, n)
        if rng.random() < 0.5:
            k = rng.randrange(n)
            for row in b:
                row[k] = -row[k]
        yield n, a, b


class TestColumnRefinement:
    def test_distinct_values_against_brute_force(self):
        # [1 ... 1; v] with distinct v: the pair colours are |v_j - v_k| and
        # gcd(2, v_j + v_k), so refinement separates most columns
        rng = random.Random(47)
        for n in range(2, 7):
            for trial in range(6):
                v = rng.sample(range(-4, 8), n)
                a = [[1] * n, v]
                if trial % 2:
                    w = rng.sample(v, n)
                    w[rng.randrange(n)] += rng.choice((-1, 1, 2))
                    b = _shuffled(rng, [[1] * n, w], n)
                else:
                    b = _shuffled(rng, a, n)
                a, b = _mat(a, n), _mat(b, n)
                assert permuted_equal(a, b) == lex_least_permutation(a, b), (a, b)

    @pytest.mark.parametrize("k", [5, 6, 7, 8, 16])
    def test_block_family(self, k):
        # the first block projects to span(1, 1) on a and span(1, -1) on b:
        # the refinement tells them apart before any search
        a, b = _block_family(k)
        n = 2 * k
        t0 = time.perf_counter()
        assert permuted_equal(_mat(a, n), _mat(b, n)) is None
        assert time.perf_counter() - t0 < 1.0
        # every column looks alike, so the search runs in one class; the
        # lex-least match takes the least free column, then its partner
        rng = random.Random(k)
        s = rng.sample(range(n), n)
        partner = {j: s.index(s[j] ^ 1) for j in range(n)}
        want = []
        for j in range(n):
            if j not in want:
                want += [j, partner[j]]
        t0 = time.perf_counter()
        assert permuted_equal(_mat(a, n), _permuted(a, s, n)) == tuple(want)
        assert time.perf_counter() - t0 < 1.0

    def test_discrete_colourings_are_checked_at_the_leaf(self):
        # b is a with its columns shuffled and one of them negated: every
        # column gcd survives, and refinement often pins each column of a to
        # one column of b while the lattices differ.  Then every position has
        # one candidate, no prefix is checked, and only the comparison at
        # depth n can answer None.
        misses = 0
        for n, a, b in _negated_column_pairs():
            ha, hb = hermite_normal_form(_mat(a, n)), hermite_normal_form(_mat(b, n))
            if ha.rows != hb.rows or invariant_factors(ha) != invariant_factors(hb):
                continue
            classes = lattice._refine(lattice._pair_colours(ha), lattice._pair_colours(hb))
            if classes is None or len(set(classes[0])) < n:
                continue
            ca, cb = classes
            forced = tuple(cb.index(c) for c in ca)
            got = permuted_equal(_mat(a, n), _mat(b, n))
            if equal(lattice_of(_permuted(b, forced, n)), lattice_of(_mat(a, n))):
                assert got == forced, (a, b)
                continue
            misses += 1
            assert got is None, (a, b)
            if n <= 4:
                assert lex_least_permutation(_mat(a, n), _mat(b, n)) is None, (a, b)
        assert misses >= 80

    def test_refinement_is_sound(self):
        nx = pytest.importorskip("networkx")
        iso = nx.algorithms.isomorphism
        node_match = iso.categorical_node_match("gcd", None)
        edge_match = iso.categorical_edge_match("colour", None)
        told_apart = 0
        for n, a, b in _perturbed_pairs():
            ha, hb = hermite_normal_form(_mat(a, n)), hermite_normal_form(_mat(b, n))
            ga, gb = _colour_graph(nx, ha), _colour_graph(nx, hb)
            if lattice._refine(lattice._pair_colours(ha), lattice._pair_colours(hb)) is None:
                assert not nx.is_isomorphic(ga, gb, node_match=node_match,
                                            edge_match=edge_match), (a, b)
                told_apart += sorted(ga.nodes("gcd")) == sorted(gb.nodes("gcd"))
            p = permuted_equal(_mat(a, n), _mat(b, n))
            if p is not None:
                assert all(ga.nodes[j]["gcd"] == gb.nodes[p[j]]["gcd"] for j in range(n))
                assert all(ga.edges[j, k]["colour"] == gb.edges[p[j], p[k]]["colour"]
                           for j, k in ga.edges)
        # refinement, not the column gcds alone, told these pairs apart
        assert told_apart >= 20


def _gram_det(rows, n=None):
    """det(h h^T) for the Hermite basis h of the lattice spanned by rows."""
    h = hermite_normal_form(IntMatrix.from_rows(rows, n))
    return intmat.determinant(IntMatrix.from_rows(
        [[sum(x * y for x, y in zip(r, s)) for s in h.entries] for r in h.entries], h.rows))


class TestPermutedEqualCost:
    def _timed(self, a, b):
        t0 = time.perf_counter()
        out = permuted_equal(IntMatrix.from_rows(a), IntMatrix.from_rows(b))
        return out, time.perf_counter() - t0

    def test_all_gcd_one_pair_n9(self):
        n = 9
        a = [[1] * n, list(range(n))]
        out, secs = self._timed(a, [[1] * n, list(range(n - 1)) + [n]])
        assert out is None and secs < 1.0
        # det(G) answers that pair; a with its last column negated has the
        # same G and goes on to the refinement
        twin = [[1] * (n - 1) + [-1], list(range(n - 1)) + [1 - n]]
        assert _gram_det(twin) == _gram_det(a)
        out, secs = self._timed(a, twin)
        assert out is None and secs < 1.0

    def test_rank_n_minus_1_pair_n9(self):
        n = 9
        a = _kernel_of_weights(list(range(1, n + 1)))
        out, secs = self._timed(a, _kernel_of_weights(list(range(1, n)) + [n + 1]))
        assert out is None and secs < 1.0
        # det(G) of ker(v) is |v|^2 for a primitive v: weights 2 and 9
        # replaced by 6 and 7 keep it, so this pair goes on to the colours
        twin = _kernel_of_weights([1, 6, 3, 4, 5, 6, 7, 8, 7])
        assert _gram_det(twin) == _gram_det(a)
        out, secs = self._timed(a, twin)
        assert out is None and secs < 1.0

    def test_full_rank_index_pair_n9(self):
        out, secs = self._timed(_congruence([1, 2, 3, 4, 1, 2, 3, 4, 1], 5),
                                _congruence([1, 1, 3, 4, 1, 2, 3, 4, 1], 5))
        assert out is None and secs < 1.0

    def test_repeated_weight_families_n9(self):
        # every column gcd and invariant factor is 1 and every prefix row
        # projection is Z^j; the columns of weight 1 are interchangeable
        n = 9
        ones = _kernel_of_weights([1] * n)
        for w, want in [([1] * (n - 1) + [2], None),
                        ([1] * (n - 1) + [-1], None),
                        ([1, 2] + [1] * (n - 2), None)]:
            out, secs = self._timed(ones, _kernel_of_weights(w))
            assert out == want and secs < 1.0, w
        # det(G) = |w|^2 answers the first and third pair; these weights
        # have |w|^2 = 9 as the ones do, so their pairs go on to the colours
        for w in [[1] * (n - 2) + [-1, -1], [1, 2, 2] + [0] * (n - 3)]:
            assert _gram_det(_kernel_of_weights(w)) == _gram_det(ones), w
            out, secs = self._timed(ones, _kernel_of_weights(w))
            assert out is None and secs < 1.0, w
        out, secs = self._timed(_kernel_of_weights([1] * (n - 1) + [2]),
                                _kernel_of_weights([1, 2] + [1] * (n - 2)))
        assert out == (0,) + tuple(range(2, n)) + (1,) and secs < 1.0

    def test_twin_pruning_pairs_n9(self):
        # congruence lattices {x : c.x = 0 (mod 7)} with one det(G) and
        # repeated weights: b's columns of weight 1 swap freely, so once one
        # of them fails at a position the rest are skipped there.  Without
        # that pruning each pair passes the node budget after seconds.
        for c, d in [((1,) * 8 + (2,), (1,) * 8 + (3,)),
                     ((1,) * 7 + (2, 2), (1,) * 7 + (3, 4))]:
            out, secs = self._timed(_congruence(c, 7), _congruence(d, 7))
            assert out is None and secs < 1.0, (c, d)

    def test_node_budget(self, monkeypatch, capsys):
        # the match (5, 4, ..., 0) needs at least 6 partial assignments
        monkeypatch.setitem(errors.BUDGETS, "nodes", 3)
        a, b = "1 1 1 1 1 1; 0 1 2 3 4 7", "1 1 1 1 1 1; 7 4 3 2 1 0"
        with pytest.raises(TooLarge):
            permuted_equal(IntMatrix.from_rows([[1] * 6, [0, 1, 2, 3, 4, 7]]),
                           IntMatrix.from_rows([[1] * 6, [7, 4, 3, 2, 1, 0]]))
        assert main(["conjugate", "--group", "gln", "--a", a, "--b", b]) == 2
        assert '"error":"TooLarge"' in capsys.readouterr().out


def _saturated_with_plain_colours(rng, m, n):
    """Hermite basis of a random saturated rank-m lattice in Z^n, entries
    +-9, drawn until every column gcd is 1 and every pair colour (1, 1):
    nothing the pair colours can split."""
    plain = [[(0, 2) if j == k else (1, 1) for k in range(n)] for j in range(n)]
    while True:
        h = hermite_normal_form(_mat([[rng.randint(-9, 9) for _ in range(n)]
                                      for _ in range(m)], n))
        if h.rows == m and invariant_factors(h) == (1,) * m and \
                lattice._pair_colours(h) == plain:
            return h


def _text(h):
    return "; ".join(" ".join(map(str, row)) for row in h.entries)


def _negated(h, k):
    return _mat([row[:k] + (-row[k],) + row[k + 1:] for row in h.entries], h.cols)


class TestMinorColours:
    # pairs where the pair colours leave a class of more than one column;
    # the projection colours Q = det(G) P carry the maximal minors'
    # information (Q_jj is the sum of p_I^2 over the I that contain j)
    @pytest.mark.parametrize("seed", [5, 7, 8])
    def test_generic_rank_6_lattices_in_z12(self, seed, capsys):
        # every pair colour is (1, 1) and every prefix of up to six columns
        # projects onto all of Z^j, so only the projection colours tell
        # the columns apart.  The copy's last column is a's first, so a
        # search in one class of twelve would first try every arrangement
        # of six columns after each of the other eleven.  The copy with a
        # column negated has a's det(G), so only the colours answer it.
        rng = random.Random(seed)
        a, b = (_saturated_with_plain_colours(rng, 6, 12) for _ in range(2))
        s = rng.sample(range(1, 12), 11) + [0]
        c = _permuted(a.entries, s, 12)
        want = tuple(s.index(j) for j in range(12))
        with deadline():
            assert permuted_equal(a, b) is None
            assert permuted_equal(a, _negated(c, 0)) is None
        with deadline():
            assert permuted_equal(a, c) == want
            assert main(["conjugate", "--group", "gln", "--a", _text(a), "--b", _text(c)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"]["permutation"] == [k + 1 for k in want]

    @pytest.mark.parametrize("m, seed", [(8, 11), (10, 13)])
    def test_generic_rank_8_and_10_lattices(self, m, seed):
        # the same construction in Z^2m, with 102,960 and 1,847,560 maximal
        # minors a side: a shuffled copy and the copy with a column negated
        rng = random.Random(seed)
        n = 2 * m
        a = _saturated_with_plain_colours(rng, m, n)
        s = rng.sample(range(1, n), n - 1) + [0]
        c = _permuted(a.entries, s, n)
        with deadline():
            assert permuted_equal(a, c) == tuple(s.index(j) for j in range(n))
            assert permuted_equal(a, _negated(c, 0)) is None

    def test_projection_matrix_is_det_g_times_the_projection(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(1, 7)
            h = hermite_normal_form(_mat([[rng.randint(-5, 5) for _ in range(n)]
                                          for _ in range(rng.randint(1, n))], n))
            a = sympy.Matrix(h.to_lists())
            g = a * a.T
            assert sympy.Matrix(lattice._projection_matrix(h, lattice._scaled_dual(h))) == \
                g.det() * a.T * g.inv() * a, h

    def test_projection_colours_are_sound(self):
        # small pairs with one det(G) that the pair colours leave with a
        # class of more than one column; the projection colours split most
        # of them, and every answer is the brute-force one and keeps Q and
        # each |p_I|, whose squares through column j sum to Q_jj
        rng = random.Random(67)
        seen = split = 0
        for t in range(400):
            n = rng.randint(3, 6)
            if t % 2:
                v = [1] + [rng.randint(-3, 3) for _ in range(n - 1)]
                w = [1] + rng.sample(v[1:], n - 1)
                if rng.random() < 0.5:
                    w[rng.randrange(1, n)] += rng.choice((-1, 1))
                a, b = _kernel_of_weights(v), _shuffled(rng, _kernel_of_weights(w), n)
            else:
                m = rng.choice((n // 2, (n + 1) // 2))
                a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
                b = _shuffled(rng, a, n)
                if rng.random() < 0.5:
                    b[rng.randrange(m)][rng.randrange(n)] += rng.choice((-1, 1))
            ha, hb = hermite_normal_form(_mat(a, n)), hermite_normal_form(_mat(b, n))
            if ha.rows != hb.rows or _gram_det(a, n) != _gram_det(b, n):
                continue
            ta, tb = lattice._pair_colours(ha), lattice._pair_colours(hb)
            pair = lattice._refine(ta, tb)
            if pair is None or len(set(pair[0])) == n:
                continue
            seen += 1
            qa, qb = (lattice._projection_matrix(h, lattice._scaled_dual(h)) for h in (ha, hb))
            both = lattice._refine(lattice._with_projection(ta, qa, pair[0]),
                                   lattice._with_projection(tb, qb, pair[1]))
            split += both is None or len(set(both[0])) > len(set(pair[0]))
            pa, pb = _minors(ha.entries, n), _minors(hb.entries, n)
            assert all(qa[j][j] == sum(x * x for s, x in pa.items() if j in s)
                       for j in range(n)), ha
            a, b = _mat(a, n), _mat(b, n)
            p = permuted_equal(a, b)
            assert p == lex_least_permutation(a, b), (a, b)
            if p is not None:
                assert all(qa[j][k] == qb[p[j]][p[k]] for j in range(n) for k in range(n))
                assert all(abs(x) == abs(pb[tuple(sorted(p[i] for i in s))])
                           for s, x in pa.items()), (a, b)
        assert seen >= 150 and split >= 100

    def test_projection_colours_only_where_a_class_survives(self, monkeypatch):
        # once det(G) agrees, one _solve a side gives the column colours
        # and, where the pair colours leave a class of more than one column,
        # Q as well; the pair colours are built only where the column
        # colours leave a class of more than one column
        calls = Counter()
        for name in ["_solve", "_pair_colours", "_projection_matrix"]:
            def counted(*args, fn=getattr(lattice, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(lattice, name, counted)
        v, w = [1, 2, 2, 3, 3], [1, 3, 2, 3, 2]
        a, b = _mat(_kernel_of_weights(v), 5), _mat(_kernel_of_weights(w), 5)
        assert permuted_equal(a, b) == lex_least_permutation(a, b)
        assert calls == {"_solve": 2, "_pair_colours": 2, "_projection_matrix": 2}, calls
        calls.clear()
        a = _mat([[1] * 6, [0, 1, 2, 3, 4, 7]], 6)
        b = _mat(_shuffled(random.Random(71), a.to_lists(), 6), 6)
        ha, hb = hermite_normal_form(a), hermite_normal_form(b)
        colours = lattice._column_colours(ha, lattice._scaled_dual(ha))
        assert len(set(colours)) == 6
        calls.clear()
        assert permuted_equal(a, b) == lex_least_permutation(a, b)
        assert calls == {"_solve": 2}, calls
        calls.clear()
        a, b = _block_family(5)
        assert permuted_equal(_mat(a, 10), _mat(b, 10)) is None
        assert calls == {"_solve": 2, "_pair_colours": 2}, calls


def test_a_discrete_refinement_checks_one_leaf(monkeypatch):
    # conjugate_in_gl hands the stored Hermite bases to the search, and a
    # refinement that pins every column leaves one Hermite pass: b's
    # permuted columns, compared with a's basis.  The second pair is b with
    # a column negated, which keeps every colour, so that pass answers None.
    match = [[1] * 6, [0, 1, 2, 3, 4, 7]]
    miss = [[0, -2, 1, -1, -2, -1], [-2, -1, 1, 2, 1, -1]]
    calls = Counter()
    for a, b in [(match, _shuffled(random.Random(71), match, 6)),
                 (miss, [[-row[0]] + row[1:] for row in miss])]:
        g1, g2 = DiagSubgroup.from_matrix(_mat(a, 6)), DiagSubgroup.from_matrix(_mat(b, 6))
        ha, hb = g1.lattice.basis, g2.lattice.basis
        classes = lattice._refine(lattice._pair_colours(ha), lattice._pair_colours(hb))
        assert classes is not None and len(set(classes[0])) == 6
        want = lex_least_permutation(_mat(a, 6), _mat(b, 6))
        with monkeypatch.context() as patch:
            for module, name in [(lattice, "hermite_normal_form"), (intmat, "hermite_normal_form"),
                                 (lattice, "_projection"), (lattice, "_annihilator_rows")]:
                def counted(*args, fn=getattr(module, name), name=name):
                    calls[name] += 1
                    return fn(*args)
                patch.setattr(module, name, counted)
            assert conjugate_in_gl(g1, g2) == want
        assert calls == {"_projection": 1}, (a, calls)
        calls.clear()
    assert want is None


def test_gram_determinant_is_sound():
    # a matching permutation keeps det(G), so no pair that differs in it
    # has a match; column permutations and sign changes keep G itself
    differ = 0
    for n, a, b in _perturbed_pairs():
        if _gram_det(a, n) != _gram_det(b, n):
            differ += 1
            assert lex_least_permutation(_mat(a, n), _mat(b, n)) is None, (a, b)
    assert differ >= 150
    for n, a, b in _negated_column_pairs():
        assert _gram_det(a, n) == _gram_det(b, n), (a, b)


def test_column_colours_are_sound(monkeypatch):
    # a match carries each column colour (gcd_j, Q_jj) of a onto b; pairs
    # whose colours are all distinct build no pair-colour table, and the
    # rest (every symmetric pair among them) fall back to the pair colours.
    # The 830 column-negated pairs with n = 6 would take the brute force
    # about 9 s, so their matches are checked directly instead.
    calls = Counter()
    pair_colours = lattice._pair_colours

    def counted(h):
        calls["_pair_colours"] += 1
        return pair_colours(h)

    monkeypatch.setattr(lattice, "_pair_colours", counted)
    discrete = fallback = 0
    for family, pairs in enumerate([_perturbed_pairs(), _negated_column_pairs(),
                                    _symmetric_pairs()]):
        for n, a, b in pairs:
            a, b = _mat(a, n), _mat(b, n)
            ha, hb = hermite_normal_form(a), hermite_normal_form(b)
            before = calls["_pair_colours"]
            p = permuted_equal(a, b)
            if family != 1 or n < 6:
                assert p == lex_least_permutation(a, b), (a, b)
            elif p is not None:
                assert equal(lattice_of(_permuted(b.entries, p, n)), lattice_of(a)), (a, b)
            if ha == hb or ha.rows != hb.rows or \
                    _gram_det(ha.entries, n) != _gram_det(hb.entries, n):
                continue
            ca, cb = (lattice._column_colours(h, lattice._scaled_dual(h)) for h in (ha, hb))
            minors = _minors(ha.entries, n)
            assert ca == [(gcd(*col), sum(x * x for s, x in minors.items() if j in s))
                          for j, col in enumerate(zip(*ha.entries))], ha
            if p is not None:
                assert all(ca[j] == cb[p[j]] for j in range(n)), (a, b)
            if sorted(ca) != sorted(cb):
                assert p is None and calls["_pair_colours"] == before, (a, b)
            elif len(set(ca)) == n:
                discrete += 1
                assert family != 2 and calls["_pair_colours"] == before, (a, b)
            else:
                fallback += 1
                assert calls["_pair_colours"] == before + 2, (a, b)
    assert discrete >= 1000 and fallback >= 2500, (discrete, fallback)


def test_an_index_2_sublattice_stops_at_det_g(monkeypatch):
    # b = [2 a_0; a_1] spans a sublattice of index 2, so det(G) is 4 times
    # a's, and neither invariant factors nor any colour is computed
    a = [[1, 2, 0, -1, 3, 1], [0, 1, 1, 2, -2, 0]]
    b = [[2 * x for x in a[0]], a[1]]
    calls = Counter()
    with monkeypatch.context() as patch:
        for name in ["invariant_factors", "_solve", "_pair_colours"]:
            def counted(*args, fn=getattr(lattice, name), name=name):
                calls[name] += 1
                return fn(*args)
            patch.setattr(lattice, name, counted)
        assert permuted_equal(_mat(a, 6), _mat(b, 6)) is None
        assert conjugate_in_gl(DiagSubgroup.from_matrix(_mat(a, 6)),
                               DiagSubgroup.from_matrix(_mat(b, 6))) is None
    assert not calls, calls
    assert lex_least_permutation(_mat(a, 6), _mat(b, 6)) is None
