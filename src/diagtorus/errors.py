"""Exception hierarchy shared by all diagtorus modules."""


class DiagTorusError(Exception):
    """Base class for all diagtorus errors."""


class DimensionMismatch(DiagTorusError):
    """Operands live in different ambient dimensions."""


class RankDeficient(DiagTorusError):
    """A full-row-rank matrix was required."""


class NotUnimodular(DiagTorusError):
    """A matrix with determinant +-1 was required."""


class ZeroVector(DiagTorusError):
    """A nonzero weight vector was required."""


class NotPrimitive(DiagTorusError):
    """A weight vector with coprime entries was required."""


class NotInGroup(DiagTorusError):
    """The one-parameter subgroup exponents do not satisfy <d, l> = 0."""


class TooLarge(DiagTorusError):
    """Raised by check_budget: a brute-force path's cost passes its budget."""


# the budgets of the brute-force paths, by the kind of cost they count
BUDGETS = {
    # arithmetic steps (box, walk or torsion points, pattern sums, minors
    # terms): at the figure the box takes about 7 s of pure Python and the
    # torsion count 18 s, as long as a desk-scale query should wait
    "work": 10**7,
    # elements a listing holds at once: at about 0.5 kB each, 10**5 is 50 MB
    "list": 10**5,
    # partial assignments of the column permutation search: two random
    # rank-6 lattices in Z^12 that it cannot split reach it in about 9 s
    "nodes": 50_000,
}


def check_budget(cost: int, kind: str, message: str) -> None:
    """Raise TooLarge when cost passes the budget of its kind.  The message
    is formatted, with {cost} replaced by the cost, only when it raises."""
    if cost > BUDGETS[kind]:
        raise TooLarge(message.format(cost=cost))
