"""Paths with a budget end quickly: a growing input family answers while it
is under the budget and raises TooLarge once it is over, each call within a
few seconds of wall time.  Every budget in errors.BUDGETS has a family here;
one whose largest answering member would take longer than the deadline at
the real figure steps over it in one jump, or lowers the figure."""

import json
import random

import pytest

from conftest import deadline
from diagtorus import DiagSubgroup, errors, permuted_equal
from diagtorus.cli import main
from diagtorus.errors import TooLarge
from diagtorus.intmat import IntMatrix, pluecker_coordinates
from diagtorus.normalizer import normalizer_report
from diagtorus.oracle import (
    closedness_search,
    default_closedness_bound,
    lattice_equal_bounded,
    perm_sign_exhaust,
    torsion_count,
)
from diagtorus.roots import enumerate_root_vectors


def first_too_large(call, sizes):
    """The first size at which call raises TooLarge, each call under the
    deadline."""
    for size in sizes:
        try:
            with deadline():
                call(size)
        except TooLarge:
            return size
    raise AssertionError("the family never reached the budget")


def random_matrix(m, n, seed=0):
    rng = random.Random(seed)
    return IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])


def test_closedness_search_walk_is_budgeted():
    # (5,)*k at the default bound 15 has no witness, so the walk visits all
    # 16^k points: k = 5 walks 1.05e6, k = 6 would walk 1.7e7
    def search(k):
        w = (5,) * k
        assert closedness_search(w, frozenset(), default_closedness_bound(w)) is None

    assert first_too_large(search, range(1, 10)) == 6


def test_closedness_search_table_is_budgeted():
    # the pattern sums of (1, 7, 50) cost 3.2e6 candidates at bound 300 and
    # 1.3e7 by the third coordinate at 600; 3000 passes 1e7 at the second
    def search(bound):
        d = closedness_search((1, 7, 50, 1), {1, 2, 3}, bound)
        assert d[3] > 0 and d[0] + 7 * d[1] + 50 * d[2] + d[3] == 0

    assert first_too_large(search, (100, 300, 600, 3000)) == 600


def test_box_is_budgeted():
    # (2 bound + 1)^n box points: 601^2 = 3.6e5 are walked, 601^3 = 2.2e8 not
    def compare(n):
        assert lattice_equal_bounded(IntMatrix.identity(n), IntMatrix.identity(n), 300)

    assert first_too_large(compare, range(1, 10)) == 3


def test_torsion_count_is_budgeted():
    # m^n tuples: 500^2 = 2.5e5 are counted, 500^3 = 1.25e8 not
    def count(n):
        assert torsion_count(DiagSubgroup.from_weights((1,) * n), 500) == 500**(n - 1)

    assert first_too_large(count, range(1, 10)) == 3


def test_listings_are_budgeted():
    # 8 * C(7 + d, 7) root vectors pass 10**5 at d = 10 (155,584); the
    # normalizer of (1,)*k has k! elements, 9! = 362,880
    def roots(degree):
        assert len(enumerate_root_vectors(8, degree)) > 0

    def normalizer(k):
        assert normalizer_report((1,) * k).perm_order > 0

    assert first_too_large(roots, range(20)) == 10
    assert first_too_large(normalizer, range(1, 20)) == 9


def test_perm_sign_search_is_budgeted():
    # the last weight never matches, so the search visits all (n - 1)!
    # arrangements of the ones: 9! passes 10**5, and without the budget the
    # family runs past the deadline
    def search(n):
        assert perm_sign_exhaust((1,) * (n - 1) + (2,), (1,) * (n - 1) + (3,)) is None

    assert first_too_large(search, range(1, 13)) == 9


def test_node_search_is_budgeted(monkeypatch):
    # the match of (1, ..., 1; 0, 1, ..., k - 2, k + 1) with its column
    # reversal takes exactly k partial assignments; 50,000 would need 50,001
    # columns, so the figure is lowered to 10
    monkeypatch.setitem(errors.BUDGETS, "nodes", 10)

    def search(k):
        a = IntMatrix.from_rows([[1] * k, list(range(k - 1)) + [k + 1]])
        b = IntMatrix.from_rows([row[::-1] for row in a.entries])
        assert permuted_equal(a, b) == tuple(range(k - 1, -1, -1))

    assert first_too_large(search, range(3, 40)) == 11


def test_minors_are_budgeted():
    # m x 4m: 6 x 24 costs 1.1e6 units of _minors, 7 x 28 costs 1.1e7
    def coordinates(m):
        assert len(pluecker_coordinates(random_matrix(m, 4 * m))) > 0

    assert first_too_large(coordinates, range(1, 10)) == 7
    with deadline(), pytest.raises(TooLarge):
        pluecker_coordinates(random_matrix(8, 30))


def test_cli_reports_the_budgets(capsys):
    a = "; ".join(" ".join(map(str, row)) for row in random_matrix(8, 30).entries)
    for argv in (["oracle-closedness", "--weights", "5 5 5 5 5 5"],
                 ["oracle-closedness", "--weights", "1 7 50 1", "--zeros", "1 2 3",
                  "--bound", "3000"],
                 ["oracle-perm-sign", "--a", "0 1 2 3 4 5 6 7 8", "--b", "0 1 2 3 4 5 6 7 8"],
                 ["lattice-equal", "--method", "pluecker", "--a", a, "--b", a]):
        with deadline():
            code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        assert (code, payload["error"]) == (2, "TooLarge"), argv[0]


def test_check_product_stops_once_past_the_budget(monkeypatch):
    monkeypatch.setitem(errors.BUDGETS, "work", 100)

    def factors():
        yield from (10, 10, (1, 10**9), (7, 0))  # 100, at the budget
        yield 2
        raise AssertionError("read past the budget")

    with pytest.raises(TooLarge, match="^more than 100$"):
        errors.check_product(factors(), "work", "more than {budget}")
    # a power raises exactly when it passes the budget, and one far past it
    # is refused by its bit length without being raised
    for base in range(12):
        for exponent in range(10):
            try:
                errors.check_product([(base, exponent)], "work", "")
            except TooLarge:
                assert base**exponent > 100
            else:
                assert base**exponent <= 100
    with deadline(), pytest.raises(TooLarge):
        errors.check_product([(10**3000, 10**9)], "work", "")
    errors.check_product([0, (10**3000, 10**9)], "work", "")


ONES = " ".join(["1"] * 3000)
FAR = 10**3000


# each cost is far past its budget: computing it in full took seconds, and
# a message that printed it passed the int-to-str digit limit
@pytest.mark.parametrize("argv, call", [
    (["normalizer", "--weights", " ".join(["1"] * 2000)],
     lambda: normalizer_report((1,) * 2000)),
    (["roots", "--dim", "200000", "--degree", "200000"],
     lambda: enumerate_root_vectors(200_000, 200_000)),
    (["roots", "--dim", "1000000", "--degree", "1000000"],
     lambda: enumerate_root_vectors(10**6, 10**6)),
    (["oracle-closedness", "--weights", ONES, "--bound", str(FAR)],
     lambda: closedness_search((1,) * 3000, frozenset(), FAR)),
    (["oracle-lattice-equal", "--a", ONES, "--b", ONES, "--bound", str(FAR)],
     lambda: lattice_equal_bounded(IntMatrix.from_rows([[1] * 3000]),
                                   IntMatrix.from_rows([[1] * 3000]), FAR)),
    (["oracle-torsion-count", "--weights", ONES, "--modulus", str(FAR)],
     lambda: torsion_count(DiagSubgroup.from_weights((1,) * 3000), FAR)),
], ids=["normalizer", "roots-2e5", "roots-1e6", "closedness", "lattice-equal", "torsion"])
def test_a_cost_far_past_its_budget_is_refused_at_once(capsys, argv, call):
    with deadline(), pytest.raises(TooLarge, match="more than|exceeds"):
        call()
    with deadline():
        code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["error"]) == (2, "TooLarge"), payload
