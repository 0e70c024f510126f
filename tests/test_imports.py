"""Every name that a tropconv module imports is used in that module.

The package's `__init__` imports to re-export, so it is exempt.  An
allowed unused import names the reason it must stay.
"""

import ast
from pathlib import Path

import tropconv

ALLOWED = {
    # bench/test_bench.py looks up the traced wrapper of this name in the
    # cli namespace, so the import stays although the CLI calls other_side.
    ("cli", "complement_spec"),
}


def _annotation_names(tree: ast.AST):
    """Names inside string annotations such as -> "TVec"."""
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [a.annotation for a in (*node.args.args, *node.args.kwonlyargs)]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield from (n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name))


def unused_imports(source: str) -> set[str]:
    """The imported names that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used - set(_annotation_names(tree))


def test_every_imported_name_is_used():
    package = Path(tropconv.__file__).parent
    unused = {(path.stem, name)
              for path in sorted(package.glob("*.py")) if path.stem != "__init__"
              for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert unused == ALLOWED


def test_a_planted_unused_import_is_flagged():
    source = 'import os, json\nfrom typing import Optional\ndef f(x: "Optional[int]"):\n    return json.dumps(x)\n'
    assert unused_imports(source) == {"os"}
    assert unused_imports(source + "os.sep\n") == set()
