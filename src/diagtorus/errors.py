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
    # partial assignments of the column permutation search: each compares
    # up to three projections, about 0.1 ms on full-rank lattices in Z^9 to
    # Z^13, so the budget stops a search within seconds
    "nodes": 50_000,
}


def check_budget(cost: int, kind: str, message: str) -> None:
    """Raise TooLarge when cost passes the budget of its kind.  The message
    is formatted, with {budget} replaced by that budget, only when it raises:
    it states the cost as the check knows it, more than the budget, and never
    prints the cost, which can be past the int-to-str digit limit."""
    if cost > BUDGETS[kind]:
        raise TooLarge(message.format(budget=BUDGETS[kind]))


def check_product(factors, kind: str, message: str) -> None:
    """check_budget of the product of factors, each an int >= 0 or a
    (base, exponent) pair for base**exponent with base >= 0.  The factors are
    multiplied in order only until the product passes the budget, and a power
    whose bit length alone passes it is not raised, so the check costs little
    however far past the budget the cost is."""
    budget = BUDGETS[kind]
    product = 1
    for factor in factors:
        if isinstance(factor, tuple):
            base, exponent = factor
            # base >= 2 gives base**exponent >= 2**((bits - 1) * exponent);
            # otherwise the power has fewer than twice the budget's bits
            if base > 1 and (base.bit_length() - 1) * exponent >= budget.bit_length():
                factor = budget + 1
            else:
                factor = base**exponent
        product *= factor
        if product > budget:
            break
    check_budget(product, kind, message)
