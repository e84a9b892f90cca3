"""What importing the package loads, and what it exports.

The package and the CLI load their library modules on first use, so the
exported names are pinned here: each must resolve through the package to the
object its submodule defines, and a typo in the export table fails."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import diagtorus

SRC = Path(__file__).resolve().parents[1] / "src"

EXPORTS = {
    "intmat": {
        "IntMatrix", "SmithDecomposition", "determinant", "hermite_normal_form",
        "invariant_factors", "inverse_unimodular", "pluecker_coordinates", "rank",
        "smith_normal_form",
    },
    "lattice": {
        "RowLattice", "contains", "equal", "lattice_of", "permuted_equal",
        "pluecker_equal", "transform",
    },
    "diag": {
        "CanonicalCrn", "DiagSubgroup", "IsoType", "aut3_torus_canonical",
        "codim1_canonical", "codim1_conjugator", "conjugate_in_crn", "conjugate_in_gl",
        "crn_canonical", "crn_codim1_canonical", "crn_conjugator", "dimension",
        "iso_type", "subgroups_equal", "torus_equal_1dim",
    },
    "action": {
        "ActionReport", "OrbitReport", "action_report", "group_dim",
        "invariant_monomial", "is_orbit_closed", "is_stable", "limit_pattern",
        "orbit_report", "origin_in_closure", "stabilizer",
    },
    "normalizer": {
        "NormalizerCase", "NormalizerReport", "classify_case", "monomial_centralizer",
        "monomial_normalizer", "normalizer_report",
    },
    "roots": {
        "Root", "RootVector", "apply_derivation", "enumerate_root_vectors", "root_of",
        "root_vector_count", "weyl_action",
    },
    "errors": set(),
    "oracle": set(),
}
# what "from diagtorus import *" binds: every exported name and submodule
STAR = set(EXPORTS).union(*EXPORTS.values())


def fresh(code: str) -> list:
    """The JSON lines a fresh isolated interpreter prints running code,
    with the package's source first on its path."""
    proc = subprocess.run([sys.executable, "-I", "-c",
                           "import sys\nsys.path.insert(0, sys.argv[1])\n" + code,
                           str(SRC)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


LOADED = """
import json
def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("diagtorus."))
                     + ["dataclasses"] * ("dataclasses" in sys.modules)))
"""


class TestExports:
    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_resolve_to_their_submodule_objects(self, module):
        sub = importlib.import_module(f"diagtorus.{module}")
        assert getattr(diagtorus, module) is sub
        for name in EXPORTS[module]:
            assert getattr(diagtorus, name) is getattr(sub, name), name
            ns = {}
            exec(f"from diagtorus import {name}", ns)
            assert ns[name] is getattr(sub, name), name

    def test_all_and_dir_list_every_name(self):
        assert set(diagtorus.__all__) == STAR
        assert STAR <= set(dir(diagtorus))
        assert "__version__" in dir(diagtorus)

    def test_star_import_binds_the_pinned_set(self):
        ns = {}
        exec("from diagtorus import *", ns)
        assert set(ns) - {"__builtins__"} == STAR

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'IntMatrx'"):
            diagtorus.IntMatrx  # noqa: B018
        with pytest.raises(ImportError):
            exec("from diagtorus import IntMatrx", {})


class TestStartUp:
    def test_import_and_parser_load_no_library_module(self):
        probe, payload, after_hnf = fresh(LOADED + """
import diagtorus, diagtorus.cli
diagtorus.cli.build_parser()
loaded()
diagtorus.cli.main(["hnf", "--matrix", "1 2; 3 4"])
loaded()
""")
        # no dataclasses either: the CLI imports it only to print a result
        assert probe == ["diagtorus.cli", "diagtorus.errors"]
        assert payload["result"] == {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 2]]}
        assert "diagtorus.intmat" in after_hnf
        assert not {f"diagtorus.{m}" for m in ("oracle", "normalizer", "roots")} & set(after_hnf)

    def test_a_name_loads_only_its_submodule(self):
        bare, one = fresh(LOADED + """
import diagtorus
loaded()
diagtorus.IntMatrix
loaded()
""")
        assert bare == []
        assert set(one) - {"dataclasses"} == {"diagtorus.intmat", "diagtorus.errors"}
