"""Exact-arithmetic toolkit for diagonalizable subgroups of the diagonal
torus: equality, conjugacy, canonical forms, and orbit analysis on affine
n-space.

Importing the package loads none of its modules.  A submodule in the table
below, or a public name it exports, is imported the first time it is read
(PEP 562), so ``import diagtorus`` and ``import diagtorus.cli`` cost only
what they use.  ``from diagtorus import X``, ``diagtorus.X``,
``diagtorus.<submodule>``, ``dir(diagtorus)`` and ``from diagtorus import *``
all see the same names.
"""

import importlib

__version__ = "0.1.0"

# every submodule the package serves, with the public names it exports
_EXPORTS = {
    "intmat": (
        "IntMatrix", "SmithDecomposition", "determinant", "hermite_normal_form",
        "invariant_factors", "inverse_unimodular", "pluecker_coordinates", "rank",
        "smith_normal_form",
    ),
    "lattice": (
        "RowLattice", "contains", "equal", "lattice_of", "permuted_equal",
        "pluecker_equal", "transform",
    ),
    "diag": (
        "CanonicalCrn", "DiagSubgroup", "IsoType", "aut3_torus_canonical",
        "codim1_canonical", "codim1_conjugator", "conjugate_in_crn", "conjugate_in_gl",
        "crn_canonical", "crn_codim1_canonical", "crn_conjugator", "dimension",
        "iso_type", "subgroups_equal", "torus_equal_1dim",
    ),
    "action": (
        "ActionReport", "OrbitReport", "action_report", "group_dim",
        "invariant_monomial", "is_orbit_closed", "is_stable", "limit_pattern",
        "orbit_report", "origin_in_closure", "stabilizer",
    ),
    "normalizer": (
        "NormalizerCase", "NormalizerReport", "classify_case", "monomial_centralizer",
        "monomial_normalizer", "normalizer_report",
    ),
    "roots": (
        "Root", "RootVector", "apply_derivation", "enumerate_root_vectors", "root_of",
        "root_vector_count", "weyl_action",
    ),
    "errors": (),
    "oracle": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_ORIGIN]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
