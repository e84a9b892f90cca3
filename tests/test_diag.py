import math
import random
from itertools import permutations, product
from math import gcd

import pytest

from diagtorus import (
    DiagSubgroup,
    IntMatrix,
    IsoType,
    aut3_torus_canonical,
    codim1_canonical,
    codim1_conjugator,
    conjugate_in_crn,
    conjugate_in_gl,
    crn_canonical,
    crn_codim1_canonical,
    crn_conjugator,
    dimension,
    iso_type,
    subgroups_equal,
    torus_equal_1dim,
    transform,
)
from diagtorus.errors import DimensionMismatch, NotPrimitive, ZeroVector
from diagtorus.oracle import perm_sign_exhaust, torsion_count


def D(*rows):
    n = len(rows[0])
    return DiagSubgroup.from_matrix(IntMatrix.from_rows(list(rows), n))


def column_mix(rng, n):
    """A unimodular n x n matrix: 2n column additions of +-1 times another."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in m:
            row[i] += c * row[j]
    return IntMatrix.from_rows(m, n)


class TestBasics:
    def test_dimension(self):
        assert dimension(D((0, 0))) == 2
        assert dimension(D((1, 0))) == 1
        assert dimension(D((1, 0), (0, 1))) == 0

    def test_equality_depends_only_on_row_lattice(self):
        assert subgroups_equal(D((1, 2), (3, 4)), D((1, 0), (0, 2)))
        assert not subgroups_equal(D((2, 0)), D((0, 2)))

    def test_equality_needs_same_ambient(self):
        with pytest.raises(DimensionMismatch):
            subgroups_equal(D((1, 0)), D((1, 0, 0)))

    def test_iso_type_examples(self):
        assert iso_type(D((2, 0), (0, 3))) == IsoType(0, (6,))
        assert iso_type(D((1, 0), (0, 1))) == IsoType(0, ())
        assert iso_type(D((2, 4))) == IsoType(1, (2,))
        assert iso_type(D((0, 0))) == IsoType(2, ())

    def test_iso_type_order(self):
        t = iso_type(D((2, 0), (0, 3)))
        assert t.is_finite and t.order == 6
        assert iso_type(D((2, 4))).order is None

    def test_torsion_matches_iso_type_order(self):
        for rows in [((2, 0), (0, 3)), ((1, 0), (0, 4)), ((6, 0), (0, 1))]:
            g = D(*rows)
            t = iso_type(g)
            m = t.order
            assert torsion_count(g, m) == m


class TestConjugacy:
    def test_gl_witness_permutation(self):
        got = conjugate_in_gl(D((1, 0, 0), (0, 2, 0)), D((0, 1, 0), (2, 0, 0)))
        assert got == (1, 0, 2)

    def test_gl_rank_one_agrees_with_exhaustive_search(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 4)
            l1 = tuple(rng.randint(-2, 2) for _ in range(n))
            l2 = tuple(rng.randint(-2, 2) for _ in range(n))
            fast = conjugate_in_gl(DiagSubgroup.from_weights(l1),
                                   DiagSubgroup.from_weights(l2))
            slow = perm_sign_exhaust(l1, l2)
            assert (fast is not None) == (slow is not None)

    def test_crn_is_iso_type_equality(self):
        assert conjugate_in_crn(D((2, 0)), D((0, 2)))
        assert not conjugate_in_crn(D((2, 0)), D((3, 0)))

    def test_crn_conjugator_example(self):
        m = crn_conjugator(D((2, 0)), D((0, 2)))
        assert m == IntMatrix.from_rows([[0, 1], [1, 0]])

    def test_crn_conjugator_none_when_not_conjugate(self):
        assert crn_conjugator(D((2, 0)), D((4, 0))) is None
        # equal nontrivial factors, so only the rank tells these apart: G_m
        # and the trivial group, the torus and G_m, Z/2 x G_m and Z/2
        for g1, g2 in [(D((1, 0)), D((1, 0), (0, 1))), (D((0, 0)), D((1, 0))),
                       (D((2, 0)), D((2, 0), (0, 1)))]:
            assert crn_conjugator(g1, g2) is None
            assert crn_conjugator(g2, g1) is None

    @pytest.mark.parametrize("rows1,rows2", [
        (((1, 0),), ((1, 0, 0),)),  # equal Smith diagonals
        (((2, 0),), ((1, 0, 0),)),  # different Smith diagonals
    ])
    def test_crn_conjugator_needs_same_ambient(self, rows1, rows2):
        with pytest.raises(DimensionMismatch) as want:
            conjugate_in_crn(D(*rows1), D(*rows2))
        with pytest.raises(DimensionMismatch) as got:
            crn_conjugator(D(*rows1), D(*rows2))
        assert str(got.value) == str(want.value)

    def test_crn_conjugator_witness_validates(self):
        rng = random.Random(17)
        for _ in range(80):
            n = rng.randint(1, 4)
            m = rng.randint(0, n)
            rows1 = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            g1 = DiagSubgroup.from_matrix(IntMatrix.from_rows(rows1, n))
            rows2 = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            g2 = DiagSubgroup.from_matrix(IntMatrix.from_rows(rows2, n))
            w = crn_conjugator(g1, g2)
            if w is None:
                assert not conjugate_in_crn(g1, g2)
                continue
            from diagtorus import equal
            assert equal(transform(g1.lattice, w), g2.lattice)


    def test_crn_conjugator_on_20x20_pairs(self):
        # b = a M with M unimodular, so the pair is conjugate and the
        # witness must carry the lattice of a onto that of b
        from diagtorus import determinant, equal

        rng = random.Random(29)
        n = 20
        for _ in range(3):
            a = IntMatrix.from_rows(
                [[rng.randint(-100, 100) for _ in range(n)] for _ in range(n)])
            g1 = DiagSubgroup.from_matrix(a)
            g2 = DiagSubgroup.from_matrix(a @ column_mix(rng, n))
            w = crn_conjugator(g1, g2)
            assert abs(determinant(w)) == 1
            assert equal(transform(g1.lattice, w), g2.lattice)

    @pytest.mark.parametrize("shape", ["square", "wide", "tall"])
    def test_crn_conjugator_bits_within_hadamard_multiple(self, shape):
        # every r x r minor of a with |entries| <= B is at most (B sqrt r)^r,
        # r = min(m, n); the witness of a pair (a, a M) stays within a
        # multiple of the bits that bound holds
        from diagtorus import determinant, equal

        rng = random.Random(f"crn-witness-bits-{shape}")
        bound = 100
        for k in range(4, 25, 4):
            m, n = {"square": (k, k), "wide": (k, k + 4), "tall": (k + 2, k)}[shape]
            a = IntMatrix.from_rows(
                [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])
            g1 = DiagSubgroup.from_matrix(a)
            g2 = DiagSubgroup.from_matrix(a @ column_mix(rng, n))
            w = crn_conjugator(g1, g2)
            assert abs(determinant(w)) == 1
            assert equal(transform(g1.lattice, w), g2.lattice)
            r = min(m, n)
            hadamard = math.ceil(r * math.log2(bound * math.sqrt(r))) + 1
            bits = max(abs(x).bit_length() for row in w.entries for x in row)
            assert bits <= 8 * hadamard, (m, n, bits, hadamard)


class TestCanonicalForms:
    def test_crn_canonical_shape(self):
        c = crn_canonical(D((2, 4), (6, 8)))
        assert (c.r, c.factors) == (0, (2, 4))
        assert c.canonical_matrix == IntMatrix.from_rows([[2, 0], [0, 4]])

    def test_crn_canonical_with_torus_part(self):
        c = crn_canonical(D((2, 4)))
        assert (c.r, c.factors) == (1, (2,))
        assert c.canonical_matrix == IntMatrix.from_rows([[0, 2]])

    def test_crn_canonical_is_a_fixed_point(self):
        for rows in [((2, 4), (6, 8)), ((2, 4),), ((0, 0, 0),), ((1, 1, 1),)]:
            c = crn_canonical(D(*rows))
            again = crn_canonical(c.subgroup())
            assert again.canonical_matrix == c.canonical_matrix

    def test_crn_canonical_same_class_same_form(self):
        a = crn_canonical(D((2, 0)))
        b = crn_canonical(D((0, 2)))
        assert a.canonical_matrix == b.canonical_matrix

    @pytest.mark.parametrize("weights,expected", [
        ((1, 0), (-1, 0)),
        ((2, -2), (-2, 2)),
        ((1, 1, 1), (-1, -1, -1)),
        ((0, -3), (-3, 0)),
    ])
    def test_codim1_canonical_examples(self, weights, expected):
        assert codim1_canonical(weights) == expected

    def test_codim1_canonical_rejects_zero(self):
        with pytest.raises(ZeroVector):
            codim1_canonical((0, 0))

    def test_codim1_canonical_invariance_and_separation(self):
        rng = random.Random(19)
        for _ in range(150):
            n = rng.randint(1, 4)
            l = tuple(rng.randint(-3, 3) for _ in range(n))
            if not any(l):
                continue
            p = list(range(n))
            rng.shuffle(p)
            eps = rng.choice([1, -1])
            image = tuple(eps * l[p[j]] for j in range(n))
            assert codim1_canonical(image) == codim1_canonical(l)
            other = tuple(rng.randint(-3, 3) for _ in range(n))
            if not any(other):
                continue
            same = codim1_canonical(other) == codim1_canonical(l)
            assert same == (perm_sign_exhaust(l, other) is not None)

    def test_codim1_conjugator_equals_exhaustive_search(self):
        # every pair (l, eps * l o sigma) with n <= 5 and entries of l in
        # {-1, 0, 2}: zeros, repeats and vectors with and without a sign
        # symmetry
        for n in range(1, 6):
            for l in product((-1, 0, 2), repeat=n):
                images = {tuple(eps * l[s[j]] for j in range(n))
                          for s in permutations(range(n)) for eps in (1, -1)}
                for other in images:
                    assert codim1_conjugator(l, other) == perm_sign_exhaust(l, other)

    def test_codim1_conjugator_unrelated_and_large(self):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(1, 5)
            l = tuple(rng.randint(-2, 2) for _ in range(n))
            other = tuple(rng.randint(-2, 2) for _ in range(n))
            assert codim1_conjugator(l, other) == perm_sign_exhaust(l, other)
        l = tuple(rng.randint(-3, 3) for _ in range(40))
        sigma = tuple(rng.sample(range(40), 40))
        other = [0] * 40
        for j in range(40):
            other[sigma[j]] = -l[j]
        got, eps = codim1_conjugator(l, other)
        assert all(l[j] == eps * other[got[j]] for j in range(40))
        with pytest.raises(DimensionMismatch):
            codim1_conjugator((1, 2), (1, 2, 3))

    def test_crn_codim1_canonical(self):
        assert crn_codim1_canonical((2, 4)) == (0, 2)
        assert crn_codim1_canonical((3, 0, 6)) == (0, 0, 3)
        with pytest.raises(ZeroVector):
            crn_codim1_canonical((0, 0, 0))

    def test_crn_codim1_matches_full_canonical(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(1, 4)
            l = tuple(rng.randint(-4, 4) for _ in range(n))
            if not any(l):
                continue
            short = crn_codim1_canonical(l)
            full = crn_canonical(DiagSubgroup.from_weights(l))
            d = gcd(*(abs(x) for x in l)) if n > 1 else abs(l[0])
            assert short[-1] == d
            expected_factors = (d,) if d > 1 else ()
            assert full.factors == expected_factors


class TestOneDimensionalTori:
    def test_torus_equal_1dim(self):
        assert torus_equal_1dim((1, -1), (-1, 1))
        assert torus_equal_1dim((2, 3), (2, 3))
        assert not torus_equal_1dim((1, 2), (2, 1))

    def test_torus_equal_1dim_requires_primitive(self):
        with pytest.raises(NotPrimitive):
            torus_equal_1dim((2, 4), (1, 2))

    @pytest.mark.parametrize("weights,expected", [
        ((2, -1, 3), (-3, -2, 1)),
        ((0, 0, 1), (-1, 0, 0)),
        ((1, 1, 1), (-1, -1, -1)),
    ])
    def test_aut3_examples(self, weights, expected):
        assert aut3_torus_canonical(weights) == expected

    def test_aut3_validation(self):
        with pytest.raises(DimensionMismatch):
            aut3_torus_canonical((1, 2))
        with pytest.raises(ZeroVector):
            aut3_torus_canonical((0, 0, 0))
        with pytest.raises(NotPrimitive):
            aut3_torus_canonical((2, 4, 6))

    def test_aut3_invariance(self):
        rng = random.Random(29)
        count = 0
        while count < 80:
            l = tuple(rng.randint(-4, 4) for _ in range(3))
            if not any(l) or gcd(gcd(abs(l[0]), abs(l[1])), abs(l[2])) != 1:
                continue
            p = list(range(3))
            rng.shuffle(p)
            eps = rng.choice([1, -1])
            image = tuple(eps * l[p[j]] for j in range(3))
            assert aut3_torus_canonical(image) == aut3_torus_canonical(l)
            count += 1
