"""The public surface: every exported name has a caller in the package or a reason."""

import ast
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
    "hasse": "benchmarks/tracer.py wraps it",
    "is_acyclic": "benchmarks/tracer.py wraps it",
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
