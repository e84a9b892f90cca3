import time
from itertools import permutations, product
from math import factorial

import pytest

from conftest import deadline
from diagtorus import (
    DiagSubgroup,
    IntMatrix,
    contains,
    errors,
    lattice_of,
    subgroups_equal,
)
from diagtorus.cli import main
from diagtorus.errors import TooLarge
from diagtorus.normalizer import (
    AXIS,
    FULL_TORUS,
    MIXED_SIGNS,
    NO_UNIT_WEIGHTS,
    SAME_SIGN_ALL_NONZERO,
    ZERO_AND_UNIT_SAME_SIGN,
    classify_case,
    monomial_centralizer,
    monomial_normalizer,
    normalizer_report,
)

ALL_TAGS = (FULL_TORUS, AXIS, SAME_SIGN_ALL_NONZERO, NO_UNIT_WEIGHTS,
            ZERO_AND_UNIT_SAME_SIGN, MIXED_SIGNS)


def perm_part_is_consistent(weights) -> bool:
    """Conjugating by any reported (sigma, eps) leaves the subgroup unchanged."""
    weights = tuple(int(x) for x in weights)
    g = DiagSubgroup.from_weights(weights)
    for sigma, eps in monomial_normalizer(weights):
        image = tuple(eps * weights[sigma[j]] for j in range(len(weights)))
        if not subgroups_equal(DiagSubgroup.from_weights(image), g):
            return False
    return True


class TestClassification:
    @pytest.mark.parametrize("weights,tag", [
        ((0, 0, 0), FULL_TORUS),
        ((0, 1, 0), AXIS),
        ((-1, 0), AXIS),
        ((1, 2, 3), SAME_SIGN_ALL_NONZERO),
        ((-1, -1), SAME_SIGN_ALL_NONZERO),
        ((2, -2), NO_UNIT_WEIGHTS),
        ((2, 0, 4), NO_UNIT_WEIGHTS),
        ((1, 1, 0), ZERO_AND_UNIT_SAME_SIGN),
        ((0, -1, -2), ZERO_AND_UNIT_SAME_SIGN),
        ((1, -1), MIXED_SIGNS),
        ((1, -2, 0), MIXED_SIGNS),
    ])
    def test_examples(self, weights, tag):
        assert classify_case(weights).tag == tag

    def test_axis_records_the_coordinate(self):
        assert classify_case((0, 1, 0)).axis == 2
        assert classify_case((-1, 0)).axis == 1
        assert classify_case((1, 2, 3)).axis is None

    def test_exactly_one_tag(self):
        for n in (1, 2, 3):
            for l in product(range(-3, 4), repeat=n):
                case = classify_case(l)
                assert case.tag in ALL_TAGS

    def test_classification_is_a_partition(self):
        # recompute membership in each case from its defining condition and
        # confirm the assigned tag is the first match in precedence order
        for n in (1, 2, 3):
            for l in product(range(-3, 4), repeat=n):
                nonzero = [x for x in l if x]
                conds = {
                    FULL_TORUS: not nonzero,
                    AXIS: len(nonzero) == 1 and abs(nonzero[0]) == 1,
                    SAME_SIGN_ALL_NONZERO: bool(nonzero) and 0 not in l and (
                        all(x > 0 for x in l) or all(x < 0 for x in l)),
                    NO_UNIT_WEIGHTS: bool(nonzero) and all(abs(x) != 1 for x in l),
                    ZERO_AND_UNIT_SAME_SIGN: 0 in l and len(nonzero) >= 2 and (
                        all(x > 0 for x in nonzero) or all(x < 0 for x in nonzero)),
                }
                expected = next((t for t in ALL_TAGS[:-1] if conds.get(t)),
                                MIXED_SIGNS)
                assert classify_case(l).tag == expected, l


class TestMonomialNormalizer:
    def test_all_ones_gives_symmetric_group(self):
        out = monomial_normalizer((1, 1, 1))
        assert len(out) == factorial(3)
        assert all(eps == 1 for _, eps in out)

    def test_zero_weights_gives_both_signs(self):
        out = monomial_normalizer((0, 0))
        assert len(out) == 4
        assert monomial_normalizer((0,)) == (((0,), 1), ((0,), -1))

    def test_empty_weights_give_one_element(self):
        # on the 0-dimensional torus inversion is the identity, so the
        # empty permutation is listed once
        assert monomial_normalizer(()) == (((), 1),)
        assert normalizer_report(()).perm_order == 1

    def test_ten_thousand_distinct_weights(self):
        # one element; each weight reads its one target from a map of the
        # weights to their positions, and the run of unrepeated weights
        # extends the prefix at once, so the time is linear in n
        n = 10_000
        with deadline():
            group = monomial_normalizer(range(1, n + 1))
        assert group == ((tuple(range(n)), 1),)

    def test_swap_with_sign(self):
        out = monomial_normalizer((1, -1))
        assert out == (((0, 1), 1), ((1, 0), -1))

    def test_every_element_fixes_the_subgroup(self):
        for n in (1, 2, 3):
            for l in product(range(-2, 3), repeat=n):
                assert perm_part_is_consistent(l), l

    def test_defining_condition_is_exact(self):
        # every (sigma, eps) that satisfies the definition, in the documented
        # order: sigma lexicographic, eps = 1 before eps = -1
        for n in range(1, 6):
            for l in product(range(-2, 3), repeat=n):
                want = sorted(((sigma, eps) for sigma in permutations(range(n))
                               for eps in (1, -1)
                               if all(l[sigma[j]] == eps * l[j] for j in range(n))),
                              key=lambda e: (e[0], -e[1]))
                assert monomial_normalizer(l) == tuple(want), l
        # on the 0-dimensional torus both signs are the identity, listed once
        assert monomial_normalizer(()) == (((), 1),)

    def test_closure_under_composition(self):
        for l in [(1, 1, 0), (1, -1), (2, 4), (1, 2, 3)]:
            n = len(l)
            elems = set(monomial_normalizer(l))
            for (s1, e1) in elems:
                for (s2, e2) in elems:
                    comp = (tuple(s1[s2[j]] for j in range(n)), e1 * e2)
                    assert comp in elems


class TestMonomialCentralizer:
    def test_examples(self):
        assert monomial_centralizer((1, -1)) == ((0, 1), (1, 0))
        assert monomial_centralizer((1, 2)) == ((0, 1),)

    def test_centralizer_inside_normalizer_perms(self):
        for n in (1, 2, 3):
            for l in product(range(-2, 3), repeat=n):
                norm_perms = {s for s, e in monomial_normalizer(l) if e == 1}
                for sigma in monomial_centralizer(l):
                    # centralizing permutations normalize as well
                    image = tuple(l[sigma[j]] for j in range(n))
                    from diagtorus import DiagSubgroup, subgroups_equal
                    assert subgroups_equal(DiagSubgroup.from_weights(image),
                                           DiagSubgroup.from_weights(l))


class TestReports:
    def test_axis_report(self):
        rep = normalizer_report((0, 1, 0))
        assert rep.case.tag == AXIS and rep.case.axis == 2
        assert not rep.contained_in_monomial
        assert rep.explicit_structure == "N_{GL_{n-1}}(D_{n-1}) x Aff_1"

    def test_mixed_signs_report(self):
        rep = normalizer_report((1, -1))
        assert rep.case.tag == MIXED_SIGNS
        assert not rep.contained_in_monomial
        assert rep.note is not None

    def test_monomial_cases_report(self):
        for l in [(0, 0), (1, 2, 3), (2, -2), (1, 1, 0)]:
            rep = normalizer_report(l)
            if rep.case.tag in (AXIS, MIXED_SIGNS):
                continue
            assert rep.contained_in_monomial
            assert rep.explicit_structure is None

    def test_perm_order_matches_length(self):
        for l in [(1, 1, 1), (0, 0), (1, -1), (1, 2, 0)]:
            rep = normalizer_report(l)
            assert rep.perm_order == len(rep.perm_part)


def normalizer_by_scan(l):
    """Reference: every (sigma, eps) in S_n x {+-1}, in scan order."""
    n = len(l)
    neg = tuple(-x for x in l)
    out = []
    for sigma in permutations(range(n)):
        image = tuple(l[sigma[j]] for j in range(n))
        if image == l:
            out.append((sigma, 1))
        if image == neg:
            out.append((sigma, -1))
    return tuple(out)


def centralizer_by_scan(l):
    """Reference: every sigma with e_i - e_sigma(i) in the weight lattice."""
    n = len(l)
    lat = lattice_of(IntMatrix.from_rows([l], n))
    out = []
    for sigma in permutations(range(n)):
        diffs = ([int(k == i) - int(k == sigma[i]) for k in range(n)] for i in range(n))
        if all(not any(d) or contains(lat, d) for d in diffs):
            out.append(sigma)
    return tuple(out)


class TestAgainstScan:
    def test_every_small_vector(self):
        for n in range(1, 6):
            for l in product(range(-2, 3), repeat=n):
                assert monomial_normalizer(l) == normalizer_by_scan(l), l
                assert monomial_centralizer(l) == centralizer_by_scan(l), l

    def test_order_is_closed_form(self):
        for l in [(1,) * 6, (1, 1, -1, -1, 0), (2, 2, 3, -1), (0, 0, 0)]:
            order = 2 if sorted(l) == sorted(-x for x in l) else 1
            for x in set(l):
                order *= factorial(l.count(x))
            assert normalizer_report(l).perm_order == order


class TestBudget:
    def test_baseline_case_is_fast(self):
        # the full torus is the largest listing that uses both signs
        for weights, order in (((1,) * 8 + (-1,), factorial(8)),
                               ((0,) * 8, 2 * factorial(8))):
            t0 = time.perf_counter()
            rep = normalizer_report(weights)
            assert time.perf_counter() - t0 < 1.0
            assert rep.perm_order == order

    def test_over_budget_raises_before_listing(self, monkeypatch):
        monkeypatch.setitem(errors.BUDGETS, "list", 100)
        assert normalizer_report((1, 1, 1, 2, 2)).perm_order == 12
        with pytest.raises(TooLarge):
            normalizer_report((1, 1, 1, 1, 1))

    def test_cli_exits_2_over_budget(self, capsys):
        # 12! elements: refused from the order alone, without enumerating
        t0 = time.perf_counter()
        with deadline():
            assert main(["normalizer", "--weights", " ".join(["1"] * 12)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert '"error":"TooLarge"' in capsys.readouterr().out
