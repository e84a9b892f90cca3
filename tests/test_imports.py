"""Design rules of the package, checked on the source of every module:
integer arithmetic only, the oracles reached only from the CLI's oracle
subcommands, and permutations enumerated only by the oracles."""

import ast
from pathlib import Path

import pytest

import diagtorus

MODULES = {path.stem: path for path in Path(diagtorus.__file__).parent.glob("*.py")}


def imported_names(path: Path) -> set[str]:
    """Dotted names a module imports, with relative imports resolved
    ("from . import oracle" gives diagtorus and diagtorus.oracle), plus
    itertools.permutations when reached as an attribute of itertools."""
    names = set()
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
              and node.value.id == "itertools"):
            names.add(f"itertools.{node.attr}")
    return names


def importers(name: str) -> set[str]:
    return {stem for stem, path in MODULES.items()
            if any(x == name or x.startswith(name + ".") for x in imported_names(path))}


def test_the_scan_sees_every_module():
    assert {"intmat", "lattice", "diag", "cli", "oracle", "__init__"} <= MODULES.keys()


def test_no_module_imports_fractions():
    assert importers("fractions") == set()


@pytest.mark.parametrize("name,allowed", [
    ("diagtorus.oracle", {"cli", "__init__"}),
    ("itertools.permutations", {"oracle"}),
])
def test_only_the_allowed_modules_import(name, allowed):
    # the allowed modules do import it today, so an empty scan cannot pass
    assert importers(name) == allowed
