import json
import time
from itertools import permutations, product

import pytest

from diagtorus import errors
from diagtorus.cli import main
from diagtorus.errors import TooLarge
from diagtorus.roots import (
    DN,
    DN_STAR,
    Root,
    RootVector,
    apply_derivation,
    enumerate_root_vectors,
    root_of,
    root_vector_count,
    weyl_action,
)


class TestRootVector:
    def test_validation(self):
        RootVector(1, (0, 2))
        with pytest.raises(ValueError):
            RootVector(3, (0, 0))
        with pytest.raises(ValueError):
            RootVector(1, (-1, 0))
        with pytest.raises(ValueError):
            RootVector(1, (2, 0))


class TestEnumeration:
    def test_small_case(self):
        got = enumerate_root_vectors(2, 1)
        assert got == [
            RootVector(1, (0, 0)),
            RootVector(1, (0, 1)),
            RootVector(2, (0, 0)),
            RootVector(2, (1, 0)),
        ]

    def test_count_formula(self):
        for n in range(1, 5):
            for d in range(0, 6):
                assert len(enumerate_root_vectors(n, d)) == root_vector_count(n, d)

    def test_all_valid_and_distinct(self):
        out = enumerate_root_vectors(3, 2)
        assert len(set(out)) == len(out)
        for rv in out:
            assert sum(rv.l) <= 2

    def test_equals_product_filter(self):
        for n in range(1, 7):
            for d in range(5):
                want = [(i, l) for i in range(1, n + 1)
                        for l in product(range(d + 1), repeat=n)
                        if l[i - 1] == 0 and sum(l) <= d]
                assert [(rv.i, rv.l) for rv in enumerate_root_vectors(n, d)] == want

    def test_enumerated_vectors_equal_checked_ones(self):
        # enumeration skips __post_init__; the checked constructor must
        # build the same objects
        for n in range(1, 6):
            for d in range(4):
                for rv in enumerate_root_vectors(n, d):
                    checked = RootVector(rv.i, rv.l)
                    assert type(rv) is RootVector
                    assert rv == checked and hash(rv) == hash(checked)
                    assert (type(rv.i), type(rv.l)) == (int, tuple)

    def test_long_vectors_of_degree_0(self):
        out = enumerate_root_vectors(1200, 0)
        assert [(rv.i, sum(rv.l)) for rv in out] == [(i, 0) for i in range(1, 1201)]

    def test_cost_follows_output(self, capsys):
        t0 = time.perf_counter()
        assert main(["roots", "--dim", "14", "--degree", "2"]) == 0
        assert time.perf_counter() - t0 < 1.0
        assert len(json.loads(capsys.readouterr().out)["result"]) == 1470

    def test_listing_budget(self, monkeypatch, capsys):
        # 3 * C(4, 2) = 18 vectors pass a budget of 18 and not one of 17
        monkeypatch.setitem(errors.BUDGETS, "list", 18)
        assert len(enumerate_root_vectors(3, 2)) == 18
        monkeypatch.setitem(errors.BUDGETS, "list", 17)
        with pytest.raises(TooLarge):
            enumerate_root_vectors(3, 2)
        assert main(["roots", "--dim", "3", "--degree", "2"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "TooLarge"

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_root_vectors(0, 1)
        with pytest.raises(ValueError):
            enumerate_root_vectors(2, -1)


def root_by_definition(rv, relative_to):
    """l - e_i, shifted to minimum 0 relative to the determinant-one torus."""
    exps = list(rv.l)
    exps[rv.i - 1] -= 1
    if relative_to == DN_STAR:
        low = min(exps)
        exps = [x - low for x in exps]
    return Root(tuple(exps), relative_to)


class TestRoots:
    @pytest.mark.parametrize("relative_to", [DN, DN_STAR])
    def test_closed_forms_match_the_definition(self, relative_to):
        for n in range(1, 7):
            for d in range(4):
                for rv in enumerate_root_vectors(n, d):
                    assert root_of(rv, relative_to) == root_by_definition(rv, relative_to)

    def test_full_torus_root(self):
        assert root_of(RootVector(1, (0, 2))) == Root((-1, 2), DN)
        assert root_of(RootVector(2, (3, 0))) == Root((3, -1), DN)

    def test_determinant_one_representative(self):
        r = root_of(RootVector(1, (0, 2)), DN_STAR)
        assert r == Root((0, 3), DN_STAR)
        assert min(r.exponents) == 0

    def test_star_representative_is_shift_of_plain(self):
        for rv in enumerate_root_vectors(3, 3):
            plain = root_of(rv).exponents
            star = root_of(rv, DN_STAR).exponents
            shift = star[0] - plain[0]
            assert star == tuple(x + shift for x in plain)
            assert min(star) == 0

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            root_of(RootVector(1, (0,)), "other")


class TestDerivationAction:
    def test_basic(self):
        rv = RootVector(1, (0, 2))
        assert apply_derivation(rv, (3, 1)) == (3, (2, 3))
        assert apply_derivation(rv, (0, 5)) is None

    def test_weight_identity(self):
        # exponent shift of the output equals the root of the derivation
        for n in (1, 2, 3):
            for rv in enumerate_root_vectors(n, 3):
                expected = root_of(rv).exponents
                for m in product(range(4), repeat=n):
                    out = apply_derivation(rv, m)
                    if out is None:
                        assert m[rv.i - 1] == 0
                        continue
                    coeff, exps = out
                    assert coeff == m[rv.i - 1]
                    assert tuple(a - b for a, b in zip(exps, m)) == expected

    def test_input_validation(self):
        rv = RootVector(1, (0, 1))
        with pytest.raises(ValueError):
            apply_derivation(rv, (1,))
        with pytest.raises(ValueError):
            apply_derivation(rv, (1, -1))


class TestWeylAction:
    def test_example(self):
        rv = RootVector(1, (0, 2, 1))
        out = weyl_action((2, 0, 1), rv)
        assert out == RootVector(3, (2, 1, 0))

    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            weyl_action((0, 0), RootVector(1, (0, 1)))

    def test_group_action_laws(self):
        rvs = enumerate_root_vectors(3, 2)
        perms = list(permutations(range(3)))
        ident = (0, 1, 2)
        for rv in rvs:
            assert weyl_action(ident, rv) == rv
        for s1 in perms:
            for s2 in perms:
                comp = tuple(s1[s2[j]] for j in range(3))
                for rv in rvs[:4]:
                    assert weyl_action(comp, rv) == weyl_action(s1, weyl_action(s2, rv))

    def test_commutes_with_taking_roots(self):
        for sigma in permutations(range(3)):
            for rv in enumerate_root_vectors(3, 2):
                moved = root_of(weyl_action(sigma, rv)).exponents
                orig = root_of(rv).exponents
                permuted = [0, 0, 0]
                for j in range(3):
                    permuted[sigma[j]] = orig[j]
                assert moved == tuple(permuted)
