"""Module layering: which of the package's own modules each module imports.

Code that only reads a finished diagram lives in ``graph``; each backend
hands it an ``expand`` function.  The oracle judges both backends, so it
must not import either: it then cannot call a backend's constructors or
operations, whatever its docstring says.
"""
import ast
from pathlib import Path

import pytest

import bddhc

PACKAGE = Path(bddhc.__file__).resolve().parent

# module -> the package modules it may import
ALLOWED = {
    "core": set(),
    "graph": {"core"},
    "oracle": {"core", "graph"},
    "pure": {"core", "graph"},
    "_pykernel": {"core"},
    "interned": {"core", "graph", "_pykernel", "_speedups"},
}


def package_imports(module: str) -> set[str]:
    """Package modules that ``module`` imports, at any nesting level.

    Both spellings count: ``from . import a`` / ``from .a import x`` and
    ``from bddhc import a`` / ``from bddhc.a import x`` / ``import bddhc.a``.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "bddhc" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                parts = (node.module or "").split(".")
            elif node.level == 0 and (node.module or "").split(".")[0] == "bddhc":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts and parts[0]:  # from .a import x
                found.add(parts[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    assert package_imports(module) <= ALLOWED[module]


def test_package_imports_are_seen():
    # the collector itself, on imports known to be there: the compiled kernel
    # is imported inside a try block
    assert package_imports("interned") >= {"core", "graph", "_pykernel", "_speedups"}
    assert package_imports("cli") >= {"oracle", "pure", "interned"}
