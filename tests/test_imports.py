"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ondesign"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) for each name bound by an import and never read as a name.

    An attribute chain starts at a name, so `np.zeros` reads `np`.  `__future__`
    imports are directives, and `__init__.py` re-exports, so neither counts.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nprint(d)\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]
    assert unused_imports("import numpy as np\n\nx: np.ndarray = np.zeros(1)\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
