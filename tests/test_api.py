"""The public surface: every exported name has a caller in the package or a reason.

The package binds its API and its modules and nothing else, so no name
shadows a module, and certify is its one matching check.  Also the
package's shape where it is cheap to pin: one module holds the greedy
collapse kernel and its heap.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

import morsematch

PACKAGE = Path(morsematch.__file__).parent

# Library entry points that nothing inside the package calls, each with
# the reason it is public anyway.
ENTRY_POINTS = {
    "amplified": "builds the hardness amplifier's wedges for callers of the library",
    "check_morse_inequalities": "checks a caller's critical counts against Betti numbers",
    "collapse_sequence": "turns a certified matching into elementary collapses",
    "erasability": "the exact erasability oracle for 2-complexes",
    "is_collapsible": "the exact collapsibility oracle",
    "write_complex": "the file counterpart of read_complex",
}


def names_used_in_the_package() -> set[str]:
    """Every name and attribute read in a package module other than __init__.py.

    A def or class statement binds its name without reading it, so a
    name counts as used only where code outside its definition refers to it.
    """
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_in_the_package_or_a_reason():
    unused = set(morsematch.__all__) - names_used_in_the_package()
    assert sorted(unused - ENTRY_POINTS.keys()) == []


def test_every_entry_point_is_public():
    assert sorted(ENTRY_POINTS.keys() - set(morsematch.__all__)) == []


def package_modules() -> list[str]:
    """The name of every module of the package, each imported."""
    names = [path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    for name in names:
        importlib.import_module("morsematch." + name)
    return names


def public_names_that_are_not_modules() -> set[str]:
    return {
        name for name, value in vars(morsematch).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_the_package_attribute_of_every_module_is_the_module():
    # A re-exported function named like its module would shadow it:
    # import morsematch.hasse as h would bind the function.
    for name in package_modules():
        assert getattr(morsematch, name) is sys.modules["morsematch." + name], name


def test_the_package_binds_exactly_its_api_besides_modules():
    assert sorted(public_names_that_are_not_modules()) == sorted(morsematch.__all__)


def test_certify_is_the_one_public_matching_check():
    # orient, OrientedHasse, is_acyclic and hasse stay in morsematch.hasse
    # and morsematch.morse for certify and the package's algorithms.
    public = public_names_that_are_not_modules() | set(morsematch.__all__)
    assert {"orient", "OrientedHasse", "is_acyclic", "hasse"} & public == set()
    assert "certify" in morsematch.__all__


def test_only_complexes_imports_heapq():
    # Every greedy free-face collapse (coreduction, reduction, collapse
    # sequences, the oracle's top core) runs complexes._eliminate.
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "heapq":
                importers.add(path.name)
            elif isinstance(node, ast.Import) and any(a.name == "heapq" for a in node.names):
                importers.add(path.name)
    assert importers == {"complexes.py"}
