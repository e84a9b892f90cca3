"""Orbit and stabilizer analysis for a weight-vector subgroup of the torus
acting on affine n-space.

Points are abstracted to zero patterns (the set of vanishing coordinates):
that is the only datum the orbit structure depends on, and it avoids
representing elements of the ground field.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .diag import IsoType
from .errors import DimensionMismatch, NotInGroup


# Public functions validate their input once.  Those the reports combine
# have a private twin that trusts its input (stabilizer has _stabilizer), so
# a report validates once, not again in every part: _check takes 1.3 us of
# a 7.7 us orbit_report on a 5-vector (Python 3.11, 2-core Xeon), and each
# public part would pay it again.  normalizer_report takes 25 us and more
# and a repeated check 0.3 us, so it calls the public functions instead.
def _check(weights, zeros) -> tuple[tuple[int, ...], frozenset[int]]:
    weights = tuple(map(operator.index, weights))
    zeros = frozenset(map(operator.index, zeros))
    if any(i < 1 or i > len(weights) for i in zeros):
        raise DimensionMismatch("zero pattern indices out of range")
    return weights, zeros


def group_dim(weights) -> int:
    return _group_dim(tuple(map(operator.index, weights)))


def _group_dim(weights) -> int:
    return len(weights) - (1 if any(weights) else 0)


@dataclass(frozen=True)
class OrbitReport:
    stabilizer: IsoType
    stabilizer_dim: int
    stabilizer_order: int | None
    orbit_dim: int
    closed: bool
    origin_in_closure: bool


@dataclass(frozen=True)
class ActionReport:
    group_dim: int
    stable: bool
    has_nonconstant_invariants: bool
    invariant_monomial: tuple[int, ...] | None
    nonclosed_codim1_orbit_axes: tuple[int, ...]


def stabilizer(weights, zeros) -> IsoType:
    """Isomorphism type of the stabilizer of a point with the given zeros.

    The stabilizer is cut out inside the coordinates of the zero set by one
    character with the restricted weights, so it looks like the weight-vector
    subgroup in dimension |zeros|.
    """
    return _stabilizer(*_check(weights, zeros))


def _stabilizer(weights, zeros) -> IsoType:
    restricted = [weights[i - 1] for i in sorted(zeros)]
    if not any(restricted):
        return IsoType(len(restricted), ())
    g = gcd(*restricted)
    return IsoType(len(restricted) - 1, (g,) if g > 1 else ())


def is_orbit_closed(weights, zeros) -> bool:
    """Closedness of the orbit through a point with the given zero pattern.

    The orbit fails to be closed exactly when some one-parameter subgroup
    (exponents d with <d, l> = 0, d_j >= 0 off the pattern, some d_j > 0 off
    the pattern) produces a boundary limit.  That reduces to: the orbit is
    closed iff the complement is empty, or the weights vanish on the pattern
    and are nonzero of one sign off it.
    """
    return _is_orbit_closed(*_check(weights, zeros))


def _is_orbit_closed(weights, zeros) -> bool:
    outside = [weights[j - 1] for j in range(1, len(weights) + 1) if j not in zeros]
    if not outside:
        return True
    if any(weights[i - 1] for i in zeros):
        return False
    return _is_stable(outside)


def is_stable(weights) -> bool:
    """The action is stable iff all weights are nonzero of one sign."""
    return _is_stable(tuple(map(operator.index, weights)))


def _is_stable(weights) -> bool:
    if any(x == 0 for x in weights):
        return False
    return all(x > 0 for x in weights) or all(x < 0 for x in weights)


def invariant_monomial(weights):
    """Exponent of a nonconstant invariant monomial, or None.

    A monomial is invariant iff its exponent lies in the weight lattice, so a
    componentwise-nonnegative candidate exists only when the weights do not
    mix signs; the minimal one is +-the weight vector itself.
    """
    return _invariant_monomial(tuple(map(operator.index, weights)))


def _invariant_monomial(weights):
    if not any(weights):
        return None
    if all(x >= 0 for x in weights):
        return weights
    if all(x <= 0 for x in weights):
        return tuple(-x for x in weights)
    return None


def limit_pattern(weights, zeros, d):
    """Zero pattern of the limit along the one-parameter subgroup t^d, or None
    when the limit does not exist."""
    weights, zeros = _check(weights, zeros)
    d = tuple(map(operator.index, d))
    if len(d) != len(weights):
        raise DimensionMismatch("exponent vector length mismatch")
    if sum(x * y for x, y in zip(d, weights)):
        raise NotInGroup("<d, l> != 0: not a one-parameter subgroup of the group")
    outside = [j for j in range(1, len(weights) + 1) if j not in zeros]
    if any(d[j - 1] < 0 for j in outside):
        return None
    return zeros | frozenset(j for j in outside if d[j - 1] > 0)


def origin_in_closure(weights, zeros) -> bool:
    """Whether the orbit closure through the pattern contains the origin.

    By the Hilbert-Mumford criterion it does iff one one-parameter subgroup
    t^d (<d, l> = 0) has d_j > 0 at every coordinate off the pattern, since
    its limit then vanishes everywhere.  The coordinates on the pattern are
    free, so a nonzero weight there balances any such d; without one, the
    weights off the pattern must pair to zero against positive exponents,
    which happens iff they are all zero or mix signs.
    """
    return _origin_in_closure(*_check(weights, zeros))


def _origin_in_closure(weights, zeros) -> bool:
    outside = [weights[j - 1] for j in range(1, len(weights) + 1) if j not in zeros]
    if not outside or any(weights[i - 1] for i in zeros):
        return True
    return not any(outside) or min(outside) < 0 < max(outside)


def orbit_report(weights, zeros) -> OrbitReport:
    weights, zeros = _check(weights, zeros)
    stab = _stabilizer(weights, zeros)
    return OrbitReport(
        stabilizer=stab,
        stabilizer_dim=stab.torus_rank,
        stabilizer_order=stab.order,
        orbit_dim=_group_dim(weights) - stab.torus_rank,
        closed=_is_orbit_closed(weights, zeros),
        origin_in_closure=_origin_in_closure(weights, zeros),
    )


def action_report(weights) -> ActionReport:
    weights = tuple(map(operator.index, weights))
    mono = _invariant_monomial(weights)
    axes = tuple(i for i, x in enumerate(weights, start=1) if x)
    return ActionReport(
        group_dim=_group_dim(weights),
        stable=_is_stable(weights),
        has_nonconstant_invariants=mono is not None,
        invariant_monomial=mono,
        nonclosed_codim1_orbit_axes=axes,
    )
