"""Every name a module of the package imports is used in that module, and
every private module-level name the package defines is read in it, by its
own module only: no module imports another's private name.  scipy
loads only at gen_graph_metric's first call: no import of the package and no
build_metric call, whatever the matrix and whether it passes, loads it."""

import ast
import json
import subprocess
import sys
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


def private_definitions(source: str) -> dict:
    """Each module-level private name (`_x`, not a dunder) a def, class or
    assignment binds, with its line."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update({name: node.lineno for name in names if name.startswith("_") and not name.startswith("__")})
    return out


def names_read(source: str) -> set:
    """Every name the source reads: as a name, as an attribute, or imported by name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_private_definitions_are_found():
    source = "_A = 1\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    _inner = 2\nx, _y = 1, 2\n"
    assert private_definitions(source) == {"_A": 1, "_f": 3, "_C": 5, "_y": 7}
    assert {"_A", "_f", "_C", "_y"} & names_read(source) == {"_A"}
    assert names_read("from .m import _g\nobj._h()\n") >= {"_g", "_h"}


def test_package_reads_every_private_definition():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(names_read, sources.values()))
    dead = [(module, line, name) for module, source in sources.items()
            for name, line in private_definitions(source).items() if name not in read]
    assert dead == []


def private_imports(source: str) -> list:
    """(line, module, name) for each private name (`_x`, not a dunder) the
    source imports from a module of the package, or reads as an attribute of
    a package module it imported by name (`from . import hst`)."""
    tree = ast.parse(source)
    modules, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "ondesign"):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    out.append((node.lineno, node.module, alias.name))
                elif node.module in (None, "ondesign"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules \
                and node.attr.startswith("_") and not node.attr.startswith("__"):
            out.append((node.lineno, node.value.id, node.attr))
    return sorted(out)


def test_private_imports_are_found():
    source = ("from . import hst, metric as mt\nfrom .hst import Hst, _forest\nfrom ondesign.cfl import _x\n"
              "from .metric import __all__\nimport numpy as np\n"
              "y = hst._lengths(mt._pow2(1)) + np._private + hst.__doc__ + Hst._cache\n")
    assert private_imports(source) == [(2, "hst", "_forest"), (3, "ondesign.cfl", "_x"),
                                       (6, "hst", "_lengths"), (6, "mt", "_pow2")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_no_private_name_of_another(module):
    # a module's private names are its own: `hst._lengths` and
    # `hst._root_levels`, say, are read only inside hst
    assert private_imports((PACKAGE / module).read_text()) == []


def imports_hst(source: str) -> bool:
    """Whether the source imports `Hst` by name from a module of the package."""
    return any(isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "ondesign")
               and any(alias.name == "Hst" for alias in node.names) for node in ast.walk(ast.parse(source)))


def test_hst_imports_are_found():
    assert imports_hst("from .hst import Forest, Hst\n") and imports_hst("from ondesign.hst import Hst as H\n")
    assert not imports_hst("from .hst import Forest\nimport numpy as np\n")


@pytest.mark.parametrize("module", MODULES)
def test_only_hst_reads_the_sampler_tree(module):
    # an Hst is the sampler's output: past validate_hst the trees are a
    # Forest's arrays, so no other module reads one (__init__ re-exports it)
    assert not imports_hst((PACKAGE / module).read_text()) or module == "hst.py"


def scipy_modules_after(code: str) -> list:
    """The scipy modules a fresh interpreter has loaded after running code
    with the package's source on its path."""
    script = (f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{code}\n"
              "import json\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_euclidean_loads_and_the_diamond_need_no_scipy():
    assert scipy_modules_after(
        "import ondesign, ondesign.cli\n"
        "from ondesign.generators import gen_diamond_lb, gen_euclidean\n"
        "from ondesign.metric import build_metric\n"
        "m, pts = gen_euclidean(30, seed=3)\n"
        "build_metric(m.d, 'matrix')\n"
        "gen_diamond_lb(4)\n"
    ) == []


def test_non_euclidean_matrices_need_no_scipy():
    # the star, a metric the certificate declines so that the scan passes it,
    # and a matrix the scan rejects
    assert scipy_modules_after(
        "from ondesign.errors import SchemaError\n"
        "from ondesign.metric import build_metric\n"
        "build_metric([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], 'matrix')\n"
        "try:\n"
        "    build_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]], 'matrix')\n"
        "except SchemaError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('a violated triangle passed')\n"
    ) == []


def test_gen_graph_metric_reaches_scipy():
    assert "scipy.sparse.csgraph" in scipy_modules_after(
        "from ondesign.generators import gen_graph_metric\ngen_graph_metric(12, seed=0)"
    )
