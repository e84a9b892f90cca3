"""Diagonalizable subgroups of the diagonal torus.

A subgroup is identified by the row lattice of a defining exponent matrix;
the width of its basis is the ambient dimension.  This module answers equality, isomorphism type,
and conjugacy questions under GL_n / the monomial group, the polynomial
automorphism group (codimension one), and the full birational group, with
explicit witnesses and canonical forms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd, prod

from .errors import DimensionMismatch, NotPrimitive, ZeroVector
from .intmat import IntMatrix, _diagonalize, _identity_lists, _witnessed_pass, invariant_factors
from .lattice import RowLattice, _match, equal, lattice_of


@dataclass(frozen=True)
class DiagSubgroup:
    """The joint kernel of the characters given by the rows of a matrix."""

    lattice: RowLattice

    @property
    def ambient_dim(self) -> int:
        return self.lattice.ambient_dim

    @classmethod
    def from_matrix(cls, a: IntMatrix) -> "DiagSubgroup":
        return cls(lattice_of(a))

    @classmethod
    def from_weights(cls, weights) -> "DiagSubgroup":
        return cls.from_matrix(IntMatrix.from_rows([weights]))


@dataclass(frozen=True)
class IsoType:
    """Torus rank plus nontrivial invariant factors; a complete isomorphism
    invariant of a diagonalizable group."""

    torus_rank: int
    factors: tuple[int, ...]

    @property
    def is_finite(self) -> bool:
        return self.torus_rank == 0

    @property
    def order(self) -> int | None:
        return prod(self.factors) if self.is_finite else None


@dataclass(frozen=True)
class CanonicalCrn:
    """The canonical birational-conjugacy representative inside the torus:
    rows d_1 e_{r+1}, ..., d_s e_{r+s}, e_{r+s+1}, ..., e_n."""

    r: int
    factors: tuple[int, ...]
    canonical_matrix: IntMatrix

    def subgroup(self) -> DiagSubgroup:
        return DiagSubgroup.from_matrix(self.canonical_matrix)


def dimension(g: DiagSubgroup) -> int:
    return g.ambient_dim - g.lattice.rank


def iso_type(g: DiagSubgroup) -> IsoType:
    facs = invariant_factors(g.lattice.basis)
    return IsoType(dimension(g), tuple(d for d in facs if d > 1))


def subgroups_equal(g1: DiagSubgroup, g2: DiagSubgroup) -> bool:
    return equal(g1.lattice, g2.lattice)


def conjugate_in_gl(g1: DiagSubgroup, g2: DiagSubgroup):
    """Witness permutation for GL_n-conjugacy (equivalently monomial), or None.

    Conjugation by a monomial map permutes the coordinate characters, so the
    subgroups are conjugate exactly when a column permutation matches the
    defining row lattices: permuted_equal, on the Hermite bases the lattices
    already store.
    """
    if g1.ambient_dim != g2.ambient_dim:
        raise DimensionMismatch("subgroups live in different ambient tori")
    return _match(g1.lattice.basis, g2.lattice.basis)


def conjugate_in_crn(g1: DiagSubgroup, g2: DiagSubgroup) -> bool:
    """Birational conjugacy holds exactly for equal isomorphism types."""
    if g1.ambient_dim != g2.ambient_dim:
        raise DimensionMismatch("subgroups live in different ambient tori")
    return iso_type(g1) == iso_type(g2)


def crn_conjugator(g1: DiagSubgroup, g2: DiagSubgroup):
    """Unimodular exponent matrix of a monomial birational conjugator, or None.

    Decided from the Smith diagonals of the two Hermite bases, which have one
    row per unit of rank: for one width, equal diagonals mean equal iso
    types.  _diagonalize runs on the stored bases with an empty row witness
    and gives the rows of V_A^T and V_B^T; then M = V_A V_B^-1 satisfies
    transform(g1.lattice, M) = g2.lattice.  M^T is solved for: the rows of
    V_B^T are unimodular, so their Hermite form is the identity, and a
    Hermite pass on them carrying the rows of V_A^T leaves (V_B^T)^-1 V_A^T
    = M^T in the witness.
    """
    if g1.ambient_dim != g2.ambient_dim:
        raise DimensionMismatch("subgroups live in different ambient tori")
    n = g1.ambient_dim
    a, b = g1.lattice.basis, g2.lattice.basis
    va, vb = _identity_lists(n), _identity_lists(n)
    if _diagonalize(a.entries, [[]] * a.rows, va) != _diagonalize(b.entries, [[]] * b.rows, vb):
        return None
    _witnessed_pass(vb, va, n)
    return IntMatrix(n, n, tuple(zip(*va)))


def crn_canonical(g: DiagSubgroup) -> CanonicalCrn:
    """Canonical representative of the birational conjugacy class."""
    n = g.ambient_dim
    t = iso_type(g)
    r = t.torus_rank
    s = len(t.factors)
    rows = []
    for i, d in enumerate(t.factors):
        rows.append(tuple(d if j == r + i else 0 for j in range(n)))
    for j in range(r + s, n):
        rows.append(tuple(1 if k == j else 0 for k in range(n)))
    return CanonicalCrn(r, t.factors, IntMatrix(len(rows), n, tuple(rows)))


def codim1_canonical(weights):
    """Canonical weight vector for codimension-one subgroups under polynomial
    automorphisms: the lexicographically smaller of the ascending sorts of the
    vector and its negation.  The result is weakly increasing and lex-at-most
    its negated reversal."""
    weights = tuple(map(operator.index, weights))
    if not any(weights):
        raise ZeroVector("weight vector must be nonzero")
    up = tuple(sorted(weights))
    down = tuple(sorted(-x for x in weights))
    return min(up, down)


def codim1_conjugator(weights, other):
    """Witness (sigma, eps) with weights[j] == eps * other[sigma[j]] for all
    j, or None: the permutation-with-sign relating two codimension-one
    subgroups.

    For each sign, position j takes the smallest unused k with
    other[k] == eps * weights[j]; this greedy stable matching is the
    lexicographically least sigma for that sign.  The lex-least of the two
    is returned, eps = 1 on ties.
    """
    weights = tuple(map(operator.index, weights))
    other = tuple(map(operator.index, other))
    if len(weights) != len(other):
        raise DimensionMismatch("weight vectors have different lengths")
    found = []
    for eps in (1, -1):
        free: dict[int, list[int]] = {}
        for k in reversed(range(len(other))):
            free.setdefault(other[k], []).append(k)
        sigma = []
        for x in weights:
            ks = free.get(eps * x)
            if not ks:
                break
            sigma.append(ks.pop())
        else:
            found.append((tuple(sigma), eps))
    return min(found, key=lambda f: f[0], default=None)


def crn_codim1_canonical(weights):
    """Canonical birational representative of a codimension-one subgroup:
    the kernel of the d-th power of the last coordinate character, d = gcd."""
    weights = tuple(map(operator.index, weights))
    if not any(weights):
        raise ZeroVector("weight vector must be nonzero")
    return tuple(0 for _ in weights[:-1]) + (gcd(*weights),)


def torus_equal_1dim(weights, other) -> bool:
    """Equality of one-dimensional subtori given by primitive weight vectors."""
    weights = tuple(map(operator.index, weights))
    other = tuple(map(operator.index, other))
    if gcd(*weights) != 1 or gcd(*other) != 1:
        raise NotPrimitive("entries must have gcd 1")
    return weights == other or weights == tuple(-x for x in other)


def aut3_torus_canonical(weights):
    """Canonical representative of a one-dimensional torus in dimension three,
    unique under coordinate permutation and global sign."""
    weights = tuple(map(operator.index, weights))
    if len(weights) != 3:
        raise DimensionMismatch("expected a 3-vector")
    if not any(weights):
        raise ZeroVector("weight vector must be nonzero")
    if gcd(*weights) != 1:
        raise NotPrimitive("entries must have gcd 1")
    return codim1_canonical(weights)
