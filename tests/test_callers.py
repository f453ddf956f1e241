"""Every function and class the library defines has a caller outside the
unit tests: the library itself or `perfbench/`."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]

# called only by an acceptance criterion, which is not to be edited
CRITERION_ONLY = {
    "inverse_project": "07",
    "project": "07",
    "pairs_in_range": "08",
    "estimate_normals": "09",
    "region_growing": "09",
    "statistical_outlier_removal": "09",
}


def _trees(paths):
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths]


def _library():
    package = ROOT / "src" / "cuboidpose"
    return sorted(p for p in package.glob("*.py") if p.name != "__init__.py")


def _defined(trees) -> set[str]:
    """Names of the functions and classes defined at any depth; dunder methods
    are called by Python itself."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, defs) and not node.name.startswith("__")
    }


def _used(trees) -> set[str]:
    """Names read as a name, an attribute or an import."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def _uncalled() -> set[str]:
    library = _trees(_library())
    users = library + _trees(sorted((ROOT / "perfbench").glob("*.py")))
    return _defined(library) - _used(users)


def test_library_code_has_a_caller_beyond_the_unit_tests():
    assert _uncalled() == set(CRITERION_ONLY)
