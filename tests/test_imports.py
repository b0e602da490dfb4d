"""Module boundaries: no module of the package imports a private name of a sibling module."""

import ast
from pathlib import Path

import cimfem


def private_sibling_imports(package: Path) -> list[str]:
    """``file:line name`` of every underscore name that a module of ``package`` imports from a sibling."""
    hits = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == package.name):
                hits += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    return hits


def test_no_module_imports_a_private_name_of_a_sibling():
    package = Path(cimfem.__file__).parent
    assert len(list(package.glob("*.py"))) > 1
    assert private_sibling_imports(package) == []
