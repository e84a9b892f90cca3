"""Exact-arithmetic toolkit for diagonalizable subgroups of the diagonal
torus: equality, conjugacy, canonical forms, and orbit analysis on affine
n-space."""

from .intmat import (
    IntMatrix,
    SmithDecomposition,
    determinant,
    hermite_normal_form,
    invariant_factors,
    inverse_unimodular,
    pluecker_coordinates,
    rank,
    smith_normal_form,
)
from .lattice import (
    RowLattice,
    contains,
    equal,
    lattice_of,
    permuted_equal,
    pluecker_equal,
    transform,
)
from .diag import (
    CanonicalCrn,
    DiagSubgroup,
    IsoType,
    aut3_torus_canonical,
    codim1_canonical,
    codim1_conjugator,
    conjugate_in_crn,
    conjugate_in_gl,
    crn_canonical,
    crn_codim1_canonical,
    crn_conjugator,
    dimension,
    iso_type,
    subgroups_equal,
    torus_equal_1dim,
)
from .action import (
    ActionReport,
    OrbitReport,
    action_report,
    group_dim,
    invariant_monomial,
    is_orbit_closed,
    is_stable,
    limit_pattern,
    orbit_report,
    origin_in_closure,
    stabilizer,
)
from .normalizer import (
    NormalizerCase,
    NormalizerReport,
    classify_case,
    monomial_centralizer,
    monomial_normalizer,
    normalizer_report,
)
from .roots import (
    Root,
    RootVector,
    apply_derivation,
    enumerate_root_vectors,
    root_of,
    root_vector_count,
    weyl_action,
)
from . import errors, oracle

__version__ = "0.1.0"
