"""Every public function or method of a tropconv module has a caller
outside the tests.

Library code that only tests call belongs in the tests.  A definition
counts as used when `src/` or `bench/` names it: as a bare name, as an
attribute, or as a string (the bench tracer wraps functions by their
dotted names).  `verify` holds the seeded instance generators that the
tests draw from, and `__init__` only re-exports, so both are exempt.
An allowed definition names the reason it must stay.
"""

import ast
from pathlib import Path

import tropconv

ALLOWED = {
    # README documents coords / at as the read-only scalar view of a vector.
    ("tlinalg", "TVec.at"),
    # README documents the residuation certificate of a cone membership.
    ("tlinalg", "ConeMembership.reconstruction"),
}

EXEMPT = {"verify", "__init__"}


def public_defs(source: str) -> set[tuple[str, str]]:
    """(qualified name, name) of each public top-level function and of
    each public method of a top-level class."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found.add((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{item.name}", item.name) for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return found


def referenced_names(source: str) -> set[str]:
    """Every name the source reads, as a name, an attribute or a part of
    a dotted string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def unreferenced(modules: dict[str, str], users: list[str]) -> set[tuple[str, str]]:
    """(module, qualified name) of each public definition no user names."""
    refs = set().union(*map(referenced_names, users))
    return {(stem, qual) for stem, source in modules.items() if stem not in EXEMPT
            for qual, name in public_defs(source) if name not in refs}


def test_every_public_definition_has_a_caller_outside_the_tests():
    package = Path(tropconv.__file__).parent
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    bench = Path(__file__).resolve().parents[1] / "bench"
    users = [*modules.values(),
             *(path.read_text(encoding="utf-8") for path in sorted(bench.glob("*.py")))]
    assert unreferenced(modules, users) == ALLOWED


def test_a_planted_test_only_function_is_flagged():
    module = ("def used(x):\n    return x\n\ndef only_tests(x):\n    return x\n\n"
              "class C:\n    def m(self):\n        return used(1)\n    def _private(self):\n"
              "        pass\n")
    assert unreferenced({"m": module}, [module, "C().m()"]) == {("m", "only_tests")}
    assert unreferenced({"m": module}, [module, "C().m()", 'WRAP = ("m.only_tests",)']) == set()
    assert unreferenced({"m": module}, [module]) == {("m", "only_tests"), ("m", "C.m")}
    assert unreferenced({"verify": module}, [module]) == set()
