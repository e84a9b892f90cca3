"""Design rules of the package, checked on the source of every module:
integer arithmetic only, the oracles reached only from the CLI's oracle
subcommands and independent of the modules they arbitrate, no module
enumerating permutations with itertools, and integer input taken strictly,
never coerced, outside the CLI's text parsing.  No module imports a
package that only the tests use, and no module-level name goes unused.
Budgets live in one place: only errors defines a budget figure or raises
TooLarge."""

import ast
from pathlib import Path

import pytest

import diagtorus
from diagtorus import DiagSubgroup, IntMatrix, codim1_canonical, contains, lattice_of
from diagtorus.action import orbit_report
from diagtorus.normalizer import normalizer_report
from diagtorus.oracle import closedness_search, perm_sign_exhaust
from diagtorus.roots import RootVector, apply_derivation, weyl_action

MODULES = {path.stem: path for path in Path(diagtorus.__file__).parent.glob("*.py")}


def export_table(path: Path) -> dict[str, tuple[str, ...]]:
    """The module-level _EXPORTS table of a module, submodule name to the
    public names the package imports from it on first use; empty if none."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)):
            return ast.literal_eval(node.value)
    return {}


def imported_names(path: Path) -> set[str]:
    """Dotted names a module imports, with relative imports resolved
    ("from . import oracle" gives diagtorus and diagtorus.oracle), plus a
    name reached as an attribute of itertools or of the package
    (itertools.permutations, diagtorus.oracle: the package imports its
    submodules on first use).  A submodule in the export table is imported
    with its names, as the statement "from .oracle import a, b" would be."""
    names = set()
    for module, exported in export_table(path).items():
        names.add(f"diagtorus.{module}")
        names.update(f"diagtorus.{module}.{name}" for name in exported)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "diagtorus" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("itertools", "diagtorus")):
            names.add(f"{node.value.id}.{node.attr}")
    return names


def importers(name: str) -> set[str]:
    return {stem for stem, path in MODULES.items()
            if any(x == name or x.startswith(name + ".") for x in imported_names(path))}


def int_coercers() -> set[str]:
    """Modules that apply the builtin int to a comprehension's own variable,
    as in tuple(int(x) for x in v): a coercion that truncates 1.9 and
    parses "3" instead of rejecting them."""
    found = set()
    for stem, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                     ast.GeneratorExp)):
                continue
            bound = {name.id for gen in node.generators
                     for name in ast.walk(gen.target) if isinstance(name, ast.Name)}
            if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                   and call.func.id == "int" and len(call.args) == 1
                   and isinstance(call.args[0], ast.Name) and call.args[0].id in bound
                   for call in ast.walk(node)):
                found.add(stem)
    return found


def module_level_names(path: Path) -> set[str]:
    """Names a module defines at its top level, dunders and imports aside."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return {name for name in names if not name.startswith("__")}


def too_large_raisers() -> set[str]:
    """Modules that call TooLarge, by name or as an attribute."""
    found = set()
    for stem, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "TooLarge" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.add(stem)
    return found


def referenced_names(path: Path) -> set[str]:
    """Names a module reads, reaches as attributes, imports by name, or
    exports through its export table."""
    names = set().union(*export_table(path).values())
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_the_scan_sees_every_module():
    assert {"intmat", "lattice", "diag", "cli", "oracle", "__init__"} <= MODULES.keys()


def test_no_module_imports_fractions():
    assert importers("fractions") == set()


@pytest.mark.parametrize("name,allowed", [
    ("diagtorus.oracle", {"cli", "__init__"}),
])
def test_only_the_allowed_modules_import(name, allowed):
    # the allowed modules do import it today, so an empty scan cannot pass
    assert importers(name) == allowed


@pytest.mark.parametrize("name", ["networkx", "sympy", "numpy", "hypothesis"])
def test_no_module_imports_a_test_only_package(name):
    # available offline and used by tests, but never a runtime dependency
    assert importers(name) == set()


def test_no_module_imports_permutations():
    assert importers("itertools.permutations") == set()


def test_the_oracle_imports_none_of_the_modules_it_arbitrates():
    # an oracle that called codim1_conjugator or permuted_equal would certify
    # the production code against itself; intmat shows the scan reads oracle
    assert "oracle" in importers("diagtorus.intmat")
    for stem in ("diag", "lattice", "normalizer", "action", "roots"):
        assert "oracle" not in importers(f"diagtorus.{stem}")


def test_every_module_level_name_is_used():
    # __init__'s export table names every public name, so an export counts
    # as a use; a helper that no caller reads any more is dead code
    used = set().union(*map(referenced_names, MODULES.values()))
    unused = {f"{stem}.{name}" for stem, path in MODULES.items()
              for name in module_level_names(path) - used}
    assert unused == set()
    assert "_mix" in module_level_names(MODULES["intmat"])


def test_only_errors_raises_too_large():
    # check_budget raises it, so an empty scan cannot pass
    assert too_large_raisers() == {"errors"}


def test_only_errors_defines_budgets():
    # errors defines BUDGETS, so an empty scan cannot pass
    assert {stem for stem, path in MODULES.items()
            if any("BUDGET" in name for name in module_level_names(path))} == {"errors"}


def test_only_the_cli_coerces_with_int():
    # the CLI parses text with int(tok), so an empty scan cannot pass
    assert int_coercers() == {"cli"}


_RV = RootVector(1, (0, 1))


# each entry point with x where a 1 belongs
@pytest.mark.parametrize("call", [
    lambda x: IntMatrix.from_rows([[x, 2]]),
    lambda x: DiagSubgroup.from_weights((x, 2)),
    lambda x: contains(lattice_of(IntMatrix.identity(2)), (x, 0)),
    lambda x: codim1_canonical((x, -2)),
    lambda x: orbit_report((1, 2), (x,)),
    lambda x: normalizer_report((x, 2)),
    lambda x: apply_derivation(_RV, (x, 0)),
    lambda x: weyl_action((x, 0), _RV),
    lambda x: RootVector(x, (0, 1)),
    lambda x: RootVector(1, (0, x)),
    lambda x: perm_sign_exhaust((x, 2), (2, 1)),
    lambda x: closedness_search((x, -1), frozenset(), 2),
], ids=["from_rows", "from_weights", "contains", "codim1_canonical", "orbit_report",
        "normalizer_report", "apply_derivation", "weyl_action", "RootVector_i",
        "RootVector_l", "perm_sign_exhaust",
        "closedness_search"])
@pytest.mark.parametrize("bad", [1.9, "1", None], ids=["float", "str", "None"])
def test_library_entry_points_reject_non_integers(call, bad):
    call(1)
    with pytest.raises(TypeError):
        call(bad)
