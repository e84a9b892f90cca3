import random
from itertools import permutations, product

import pytest

from diagtorus import DiagSubgroup, IntMatrix
from diagtorus.errors import TooLarge
from diagtorus.oracle import (
    closedness_search,
    default_closedness_bound,
    default_lattice_bound,
    lattice_equal_bounded,
    perm_sign_exhaust,
    torsion_count,
)


class TestTorsionCount:
    def test_examples(self):
        assert torsion_count(DiagSubgroup.from_weights((2, 2)), 2) == 4
        assert torsion_count(DiagSubgroup.from_weights((1, 0)), 3) == 3
        assert torsion_count(DiagSubgroup.from_weights((0, 0, 0)), 4) == 64

    def test_brute_force_against_direct_enumeration(self):
        g = DiagSubgroup.from_matrix(IntMatrix.from_rows([[2, 1], [0, 3]]))
        m = 6
        expected = sum(
            1 for t in product(range(m), repeat=2)
            if (2 * t[0] + t[1]) % m == 0 and (3 * t[1]) % m == 0
        )
        assert torsion_count(g, m) == expected

    def test_budget(self):
        g = DiagSubgroup.from_weights((1,) * 8)
        with pytest.raises(TooLarge):
            torsion_count(g, 10)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            torsion_count(DiagSubgroup.from_weights((1, 0)), 0)


class TestLatticeEqualBounded:
    def test_examples(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[1, 0], [0, 2]])
        assert lattice_equal_bounded(a, b, 4)
        assert not lattice_equal_bounded(IntMatrix.from_rows([[2, 0]]),
                                         IntMatrix.from_rows([[0, 2]]), 4)
        assert lattice_equal_bounded(a, a, 4)

    def test_default_bound(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[1, 0], [0, 2]])
        assert default_lattice_bound(a, b) == 8

    def test_budget(self):
        a = IntMatrix.from_rows([[1] * 8])
        with pytest.raises(TooLarge):
            lattice_equal_bounded(a, a, 10)

    def test_negative_bound_is_rejected(self):
        # the box would be empty and every pair would compare equal
        with pytest.raises(ValueError):
            lattice_equal_bounded(IntMatrix.from_rows([[1, 0]]),
                                  IntMatrix.from_rows([[2, 0]]), -1)
        assert not lattice_equal_bounded(IntMatrix.from_rows([[1, 0]]),
                                         IntMatrix.from_rows([[2, 0]]), 1)


class TestClosednessSearch:
    def test_examples(self):
        assert closedness_search((1, 1), {1}, 2) == (-1, 1)
        assert closedness_search((1, 2, 3), frozenset(), 9) is None
        assert closedness_search((1, -1), frozenset(), 1) == (1, 1)

    def test_witness_is_valid(self):
        for l, s in [((1, 1), frozenset({1})), ((1, -1), frozenset()),
                     ((2, 0, -3), frozenset({2})), ((0, 1), frozenset())]:
            d = closedness_search(l, s, 6)
            if d is None:
                continue
            n = len(l)
            assert sum(a * b for a, b in zip(d, l)) == 0
            outside = [j for j in range(1, n + 1) if j not in s]
            assert all(d[j - 1] >= 0 for j in outside)
            assert any(d[j - 1] > 0 for j in outside)

    def test_full_pattern_has_no_witness(self):
        assert closedness_search((1, -1), {1, 2}, 5) is None

    def test_default_bound(self):
        assert default_closedness_bound((1, -3, 2)) == 9

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_is_rejected(self, bound):
        # no d in the box has a positive entry, so "no witness" would be
        # claimed for (1, -1), whose witness is (1, 1)
        with pytest.raises(ValueError):
            closedness_search((1, -1), frozenset(), bound)

    def test_default_bound_of_zero_weights_finds_a_witness(self):
        assert default_closedness_bound((0, 0)) == 3
        assert closedness_search((0, 0), frozenset(), 3) == (0, 1)
        assert default_closedness_bound(()) == 3


def _perm_sign_reference(weights, other):
    """The plain enumeration: every sigma in lexicographic order, eps = 1
    before eps = -1, the first pair that fits."""
    if len(weights) != len(other):
        return None
    n = len(weights)
    for sigma in permutations(range(n)):
        for eps in (1, -1):
            if all(weights[j] == eps * other[sigma[j]] for j in range(n)):
                return sigma, eps
    return None


def _images(weights):
    n = len(weights)
    return {tuple(eps * weights[s] for s in sigma)
            for sigma in permutations(range(n)) for eps in (1, -1)}


class TestPermSignExhaust:
    def test_agrees_with_enumeration_on_all_small_vectors(self):
        rng = random.Random(8)
        for n in range(6):
            for l in product((-1, 0, 2), repeat=n):
                others = _images(l)
                others.add(tuple(rng.choice((-1, 0, 2)) for _ in range(n)))
                for other in others:
                    assert perm_sign_exhaust(l, other) == _perm_sign_reference(l, other)

    def test_agrees_with_enumeration_on_unrelated_vectors(self):
        rng = random.Random(81)
        for _ in range(2000):
            n = rng.randrange(7)
            l, other = ([rng.randrange(-2, 3) for _ in range(n)] for _ in range(2))
            assert perm_sign_exhaust(l, other) == _perm_sign_reference(l, other)

    def test_empty(self):
        assert perm_sign_exhaust((), ()) == ((), 1) == _perm_sign_reference((), ())

    @pytest.mark.parametrize("l", [(1, -1, 0), (2, -2, 1, -1), (3, 0, -3, 0, 5, -5)])
    def test_sign_symmetric(self, l):
        # both signs fit some sigma: the lex-least sigma wins, then eps = 1
        assert perm_sign_exhaust(l, l) == (tuple(range(len(l))), 1)
        for other in _images(l):
            assert perm_sign_exhaust(l, other) == _perm_sign_reference(l, other)

    @pytest.mark.parametrize("n", [7, 8])
    def test_agrees_with_enumeration_on_distinct_values(self, n):
        # distinct weights from -9..9, matched under a random sigma and sign,
        # or missed by shifting one entry of a permuted copy by 20
        rng = random.Random(n)
        for _ in range(4):
            l = rng.sample(range(-9, 10), n)
            sigma = rng.sample(range(n), n)
            eps = rng.choice((1, -1))
            other = [0] * n
            for j in range(n):
                other[sigma[j]] = eps * l[j]
            assert perm_sign_exhaust(l, other) == _perm_sign_reference(l, other) is not None
            miss = rng.sample(l, n)
            miss[rng.randrange(n)] += 20
            assert perm_sign_exhaust(l, miss) is _perm_sign_reference(l, miss) is None

    def test_repeated_weights_miss(self):
        # the worst case left: every order of the repeats is tried
        assert perm_sign_exhaust((1,) * 8, (1,) * 7 + (2,)) is None

    def test_examples(self):
        assert perm_sign_exhaust((1, 2), (2, 1)) == ((1, 0), 1)
        assert perm_sign_exhaust((1, 2), (-2, -1)) == ((1, 0), -1)
        assert perm_sign_exhaust((1, 2), (1, 3)) is None

    def test_length_mismatch(self):
        assert perm_sign_exhaust((1, 2), (1, 2, 3)) is None

    def test_too_large(self):
        with pytest.raises(TooLarge):
            perm_sign_exhaust((1,) * 9, (1,) * 9)

    def test_found_relation_really_holds(self):
        got = perm_sign_exhaust((3, -1, 2), (1, -2, -3))
        assert got is not None
        sigma, eps = got
        other = (1, -2, -3)
        assert all((3, -1, 2)[j] == eps * other[sigma[j]] for j in range(3))
