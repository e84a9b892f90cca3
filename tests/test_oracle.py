import random
from itertools import permutations, product

import pytest

from conftest import deadline
from diagtorus import DiagSubgroup, IntMatrix
from diagtorus.errors import DimensionMismatch, TooLarge
from diagtorus.intmat import smith_normal_form
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
        with deadline(), pytest.raises(TooLarge):
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
        with deadline(), pytest.raises(TooLarge):
            lattice_equal_bounded(a, a, 10)

    def test_negative_bound_is_rejected(self):
        # the box would be empty and every pair would compare equal
        with pytest.raises(ValueError):
            lattice_equal_bounded(IntMatrix.from_rows([[1, 0]]),
                                  IntMatrix.from_rows([[2, 0]]), -1)
        assert not lattice_equal_bounded(IntMatrix.from_rows([[1, 0]]),
                                         IntMatrix.from_rows([[2, 0]]), 1)


def _member_reference(v, vmat, factors, r):
    # v in the row lattice iff (v @ V) is divisible by the Smith diagonal
    # and vanishes beyond the rank
    n = vmat.rows
    w = [sum(v[k] * vmat.entries[k][j] for k in range(n)) for j in range(n)]
    for j in range(r):
        if w[j] % factors[j]:
            return False
    return not any(w[r:])


def _lattice_equal_reference(a, b, bound):
    """The product loop: v @ V from scratch at every box point."""
    if a.cols != b.cols:
        return False
    data = []
    for m in (a, b):
        dec = smith_normal_form(m)
        data.append((dec.V, dec.factors, len(dec.factors)))
    return all(_member_reference(v, *data[0]) == _member_reference(v, *data[1])
               for v in product(range(-bound, bound + 1), repeat=a.cols))


def _random_rows(rng, n):
    """0-3 rows of length n with entries in -3..3, mixed with zero rows,
    sums of earlier rows and multiples by 2 or 3."""
    rows = []
    for _ in range(rng.randrange(4)):
        kind = rng.randrange(5)
        if kind == 0:
            row = [0] * n
        elif kind == 1 and rows:
            row = [x + y for x, y in zip(rng.choice(rows), rng.choice(rows))]
        elif kind == 2:
            row = [rng.choice((2, 3)) * rng.randint(-2, 2) for _ in range(n)]
        else:
            row = [rng.randint(-3, 3) for _ in range(n)]
        rows.append(row)
    return rows


def _matrix(rows, n):
    return IntMatrix(len(rows), n, tuple(map(tuple, rows)))


class TestLatticeWalkAgainstProductLoop:
    def _pairs(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randrange(5)
            bound = rng.randrange(4 if n < 4 else 3)
            a = _random_rows(rng, n)
            kind = rng.randrange(4)
            if kind == 0 and a:
                # the same lattice: add a multiple of one row to another,
                # negate a row and reverse the order
                b = [list(r) for r in a]
                i, j = rng.randrange(len(b)), rng.randrange(len(b))
                if i != j:
                    b[i] = [x + rng.randint(-2, 2) * y for x, y in zip(b[i], b[j])]
                b[0] = [-x for x in b[0]]
                b.reverse()
            elif kind == 1 and a:
                # a sublattice: one row scaled by 2 or 3
                b = [list(r) for r in a]
                i = rng.randrange(len(b))
                b[i] = [rng.choice((2, 3)) * x for x in b[i]]
            elif kind == 2:
                # different column counts
                n_b = rng.choice([m for m in range(5) if m != n])
                yield _matrix(a, n), _matrix(_random_rows(rng, n_b), n_b), bound
                continue
            else:
                b = _random_rows(rng, n)
            yield _matrix(a, n), _matrix(b, n), bound

    def test_agrees_on_random_pairs(self):
        answers = set()
        for a, b, bound in self._pairs(14, 400):
            got = lattice_equal_bounded(a, b, bound)
            assert got == _lattice_equal_reference(a, b, bound), (a, b, bound)
            assert lattice_equal_bounded(b, a, bound) == got
            answers.add((a.cols, got))
        # both answers occur at every n
        assert answers >= {(n, ok) for n in range(1, 5) for ok in (True, False)}

    def test_invariant_factors_above_one(self):
        # equal and unequal pairs whose Smith diagonals carry 2, 3 and 6
        a = IntMatrix.from_rows([[2, 0, 0], [0, 6, 0]])
        same = IntMatrix.from_rows([[2, 6, 0], [0, -6, 0]])
        other = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])
        for b, want in ((same, True), (other, False)):
            for bound in range(4):
                assert lattice_equal_bounded(a, b, bound) == \
                    _lattice_equal_reference(a, b, bound)
            assert lattice_equal_bounded(a, b, 3) is want

    def test_box_of_one_point_at_large_n(self):
        # the odometer has no recursion, so n may pass the recursion limit
        n = 1100
        a = IntMatrix.from_rows([[1] + [0] * (n - 1)])
        b = IntMatrix.from_rows([[2] + [0] * (n - 1)])
        with deadline():
            assert lattice_equal_bounded(a, b, 0)
        with deadline(), pytest.raises(TooLarge):
            lattice_equal_bounded(a, b, 1)

    def test_zero_columns(self):
        assert lattice_equal_bounded(IntMatrix(0, 0, ()), IntMatrix(2, 0, ((), ())), 3)

    @pytest.mark.parametrize("bound", [1.0, "1", None])
    def test_bound_must_be_an_integer(self, bound):
        a = IntMatrix.from_rows([[1, 0]])
        with pytest.raises(TypeError):
            lattice_equal_bounded(a, a, bound)


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

    @pytest.mark.parametrize("zeros", [{0}, {3}, {-1}, {1, 3}])
    def test_zero_pattern_out_of_range_is_rejected(self, zeros):
        # unchecked, index 0 reads the last weight and index 3 reads past the end
        with pytest.raises(DimensionMismatch, match="zero pattern indices out of range"):
            closedness_search((1, 2), zeros, 3)

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
