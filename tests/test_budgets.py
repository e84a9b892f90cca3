"""Paths with a budget end quickly: a growing input family answers while it
is under the budget and raises TooLarge once it is over, each call within a
few seconds of wall time."""

import contextlib
import json
import random
import signal

import pytest

from diagtorus.cli import main
from diagtorus.errors import TooLarge
from diagtorus.intmat import IntMatrix, pluecker_coordinates
from diagtorus.oracle import closedness_search, default_closedness_bound

SECONDS = 3.0


@contextlib.contextmanager
def deadline():
    """Fail the block once it has run SECONDS of wall time: SIGALRM stops a
    call that would hang instead of waiting for it to finish."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
                 ["lattice-equal", "--method", "pluecker", "--a", a, "--b", a]):
        with deadline():
            code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        assert (code, payload["error"]) == (2, "TooLarge"), argv[0]
