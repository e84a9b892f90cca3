"""Normalizer and centralizer structure of a weight-vector subgroup inside
the polynomial automorphism group.

The case classification decides when the normalizer is contained in the
monomial group; the computable monomial part (permutations with a sign flag)
is returned in every case, and in the mixed-sign residual case it is only a
certified subgroup of the true normalizer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain

from .action import _is_stable
from .errors import check_product

FULL_TORUS = "full_torus"
AXIS = "axis"
SAME_SIGN_ALL_NONZERO = "same_sign_all_nonzero"
NO_UNIT_WEIGHTS = "no_unit_weights"
ZERO_AND_UNIT_SAME_SIGN = "zero_and_unit_same_sign"
MIXED_SIGNS = "mixed_signs"

@dataclass(frozen=True)
class NormalizerCase:
    tag: str
    axis: int | None = None


@dataclass(frozen=True)
class NormalizerReport:
    case: NormalizerCase
    contained_in_monomial: bool
    perm_part: tuple[tuple[tuple[int, ...], int], ...]
    perm_order: int
    centralizer_perm_part: tuple[tuple[int, ...], ...]
    explicit_structure: str | None
    note: str | None


def classify_case(weights) -> NormalizerCase:
    """First matching tag in precedence order.

    The axis case (a single +-1 weight, rest zero) is split out before the
    broader same-sign conditions because its normalizer picks up an affine
    translation and is not monomial.
    """
    weights = tuple(map(operator.index, weights))
    if not any(weights):
        return NormalizerCase(FULL_TORUS)
    nonzero = [(i, x) for i, x in enumerate(weights, start=1) if x]
    if len(nonzero) == 1 and abs(nonzero[0][1]) == 1:
        return NormalizerCase(AXIS, axis=nonzero[0][0])
    if _is_stable(weights):
        return NormalizerCase(SAME_SIGN_ALL_NONZERO)
    if all(abs(x) != 1 for x in weights):
        return NormalizerCase(NO_UNIT_WEIGHTS)
    signs = {1 if x > 0 else -1 for _, x in nonzero}
    if 0 in weights and len(nonzero) >= 2 and len(signs) == 1:
        return NormalizerCase(ZERO_AND_UNIT_SAME_SIGN)
    return NormalizerCase(MIXED_SIGNS)


def monomial_normalizer(weights):
    """All (sigma, eps) in S_n x {+-1} with (l_sigma(1), ..., l_sigma(n)) = eps * l.

    These are exactly the permutation parts of monomial transformations that
    normalize the subgroup.  Permutations are 0-based image tuples, sorted
    lexicographically, with eps = 1 before eps = -1.  The returned element
    list generates (indeed equals) the group.  For n = 0 both signs are the
    identity, listed once as ((), 1).

    For each sign the group is built level by level, with no search: level
    j extends every prefix sigma(1..j-1) by each unused k with
    l_k = eps * l_j, read from one map of each weight to its positions; a
    run of weights with one position each, whose images are fixed, extends
    every prefix at once, so prefixes are copied only around the repeated
    weights, which the budget keeps to a few dozen positions.  For
    a sign in the group, the positions of each weight x and the targets of
    eps * x are equally many, so every prefix extends to a whole element and
    no level is larger than the group.  Its order, from the same map, is
    checked first, multiplied only until it passes the listing budget, and a
    group of more than 10**5 elements raises TooLarge.
    """
    weights = tuple(map(operator.index, weights))
    # a sign-reversing element exists iff l and -l agree up to permutation;
    # on the 0-dimensional torus inversion is the identity, not a second one
    signs = (1, -1) if weights and sorted(weights) == sorted(-x for x in weights) else (1,)
    where: dict[int, list[int]] = {}  # each weight's positions
    for k, x in enumerate(weights):
        where.setdefault(x, []).append(k)
    # the order, len(signs) times the factorial of each weight's multiplicity
    check_product(chain([len(signs)], *(range(2, len(ks) + 1) for ks in where.values())),
                  "list", "normalizer has more than {budget} elements, the listing budget")
    out = []
    for eps in signs:
        level, run = [()], []
        for x in weights:
            fits = where.get(eps * x, ())
            if len(fits) == 1:  # a weight with one position has one image
                run.append(fits[0])
                continue
            if run:
                tail, run = tuple(run), []
                level = [p + tail for p in level]
            level = [p + (k,) for p in level for k in fits if k not in p]
        tail = tuple(run)
        out += [(sigma + tail, eps) for sigma in level]
    # each sign's list is already sorted, and only the zero vector lists a
    # sigma under both; the stable sort merges them with eps = 1 first
    return tuple(sorted(out, key=operator.itemgetter(0)))


def monomial_centralizer(weights):
    """Permutations acting trivially on the subgroup: sigma such that
    e_i - e_sigma(i) lies in the weight lattice for every i.

    A moved point i forces e_i - e_sigma(i) = c * l, and that vector is
    primitive, so l = +-(e_a - e_b) and sigma is the transposition (a b).
    Any other l admits only the identity.
    """
    weights = tuple(map(operator.index, weights))
    ident = tuple(range(len(weights)))
    support = [i for i, x in enumerate(weights) if x]
    if len(support) == 2 and sorted(weights[i] for i in support) == [-1, 1]:
        a, b = support
        swap = list(ident)
        swap[a], swap[b] = b, a
        return ident, tuple(swap)
    return (ident,)


def normalizer_report(weights) -> NormalizerReport:
    weights = tuple(map(operator.index, weights))
    case = classify_case(weights)
    perm_part = monomial_normalizer(weights)
    central = monomial_centralizer(weights)
    explicit = None
    note = None
    contained = True
    if case.tag == AXIS:
        contained = False
        explicit = "N_{GL_{n-1}}(D_{n-1}) x Aff_1"
        note = ("all coordinates except the axis are monomially permuted; "
                "the axis coordinate maps to t*x_i + s")
    elif case.tag == MIXED_SIGNS:
        contained = False
        note = ("normalizer is algebraic but its explicit form is unknown; "
                "the monomial part reported here is only a subgroup")
    return NormalizerReport(
        case=case,
        contained_in_monomial=contained,
        perm_part=perm_part,
        perm_order=len(perm_part),
        centralizer_perm_part=central,
        explicit_structure=explicit,
        note=note,
    )
