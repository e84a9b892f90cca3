"""Roots and root vectors of affine n-space with respect to the diagonal
torus and its determinant-one subtorus.

A root vector is the monomial derivation x^l d/dx_i with l >= 0 and l_i = 0;
its root is the character with exponent vector l - e_i.  Relative to the
determinant-one subtorus, roots are classes modulo Z*(1, ..., 1) and are
stored via the representative whose minimum entry is zero.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb

from .errors import check_budget, check_product

DN = "Dn"
DN_STAR = "Dn_star"

@dataclass(frozen=True)
class RootVector:
    """The derivation x_1^{l_1} ... x_n^{l_n} d/dx_i (coefficient 1).

    i and the entries of l are taken through operator.index, so a float or
    a string raises TypeError instead of reaching root_of.
    """

    i: int
    l: tuple[int, ...]

    def __post_init__(self) -> None:
        i, l = operator.index(self.i), tuple(map(operator.index, self.l))
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "l", l)
        if not 1 <= i <= len(l):
            raise ValueError("index out of range")
        if min(l) < 0:
            raise ValueError("exponents must be nonnegative")
        if l[i - 1] != 0:
            raise ValueError("the differentiated coordinate must have exponent 0")


@dataclass(frozen=True)
class Root:
    exponents: tuple[int, ...]
    relative_to: str


def enumerate_root_vectors(n: int, max_degree: int) -> list[RootVector]:
    """All root vectors of total degree at most max_degree, in lexicographic
    order of (i, l).  A listing of more than 10**5 vectors, the listing
    budget, raises TooLarge before any is built."""
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    # the count is n * C(n - 1 + d, k) for k = min(d, n - 1), and the
    # binomial is at least 2**k: a power of two past the budget spares
    # computing it, which takes seconds at n = d = 10**6
    message = "more than {budget} root vectors, the listing budget"
    check_product([n, (2, min(n - 1, max_degree))], "list", message)
    check_budget(root_vector_count(n, max_degree), "list", message)
    rest = _bounded_tuples(n - 1, max_degree)
    return [_unchecked(i, l[:i - 1] + (0,) + l[i - 1:])
            for i in range(1, n + 1) for l in rest]


def _unchecked(i: int, l: tuple[int, ...]) -> RootVector:
    """RootVector(i, l) for fields valid by construction, without the checks
    of __post_init__, which cost about four times as much."""
    rv = object.__new__(RootVector)
    rv.__dict__.update(i=i, l=l)
    return rv


def _bounded_tuples(k: int, bound: int) -> list[tuple[int, ...]]:
    """All nonnegative k-tuples with sum at most bound, in lexicographic
    order.  Inserting the zero exponent at a fixed position keeps the order."""
    level = [((), bound)]
    for _ in range(k):
        level = [(t + (x,), left - x) for t, left in level for x in range(left + 1)]
    return [t for t, _ in level]


def root_of(rv: RootVector, relative_to: str = DN) -> Root:
    """The character by which the torus scales the derivation."""
    if relative_to not in (DN, DN_STAR):
        raise ValueError(f"unknown group tag: {relative_to!r}")
    i, l = rv.i - 1, rv.l
    if relative_to == DN:
        return Root(l[:i] + (-1,) + l[i + 1:], DN)
    # l >= 0 and l_i = 0, so min(l - e_i) = -1 and the representative is
    # l + (1, ..., 1) with 0 at position i
    exps = [x + 1 for x in l]
    exps[i] = 0
    return Root(tuple(exps), DN_STAR)


def apply_derivation(rv: RootVector, monomial):
    """Apply the root vector to the monomial x^m.

    Returns (coefficient, exponent vector) or None when the derivation kills
    the monomial.
    """
    m = tuple(map(operator.index, monomial))
    if len(m) != len(rv.l):
        raise ValueError("monomial length mismatch")
    if any(x < 0 for x in m):
        raise ValueError("monomial exponents must be nonnegative")
    k = m[rv.i - 1]
    if k == 0:
        return None
    out = [a + b for a, b in zip(m, rv.l)]
    out[rv.i - 1] -= 1
    return k, tuple(out)


def weyl_action(sigma, rv: RootVector) -> RootVector:
    """Transport a root vector along a coordinate permutation.

    sigma is a 0-based image tuple; the new derivation differentiates the
    sigma-image of the old coordinate and carries the exponents along.
    """
    n = len(rv.l)
    sigma = tuple(map(operator.index, sigma))
    if sorted(sigma) != list(range(n)):
        raise ValueError("not a permutation")
    new_l = [0] * n
    for j in range(n):
        new_l[sigma[j]] = rv.l[j]
    return RootVector(sigma[rv.i - 1] + 1, tuple(new_l))


def root_vector_count(n: int, max_degree: int) -> int:
    """Closed-form count: n * C(max_degree + n - 1, n - 1)."""
    return n * comb(max_degree + n - 1, n - 1)
