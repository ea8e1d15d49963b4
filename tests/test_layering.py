"""Layering contract: the library packages never import the layers above them.

``repro.dse``, ``repro.analysis`` and ``repro.cli`` compose the lower
packages; a run-time import in the other direction (even a lazy one inside a
function) ties a lower layer to everything above it.  Imports under
``if TYPE_CHECKING:`` are annotations only and are allowed.  The package
uses absolute imports throughout, so only those are checked.
"""

from __future__ import annotations

import ast
import os

import repro

SRC = os.path.dirname(repro.__file__)
LOWER_PACKAGES = (
    "core", "ecc", "memory", "faultmodel", "quantize", "kernels", "stats",
    "quality", "apps", "hardware", "scenarios", "sim", "store",
)
UPPER_MODULES = ("repro.dse", "repro.analysis", "repro.cli")


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_imports(tree: ast.AST):
    """``(line, module)`` of every import outside ``if TYPE_CHECKING:``."""
    if isinstance(tree, ast.If) and _is_type_checking(tree.test):
        children = tree.orelse
    else:
        children = list(ast.iter_child_nodes(tree))
        if isinstance(tree, ast.Import):
            yield from ((tree.lineno, alias.name) for alias in tree.names)
        elif isinstance(tree, ast.ImportFrom) and not tree.level:
            yield tree.lineno, tree.module
    for child in children:
        yield from _runtime_imports(child)


def _is_upper(module: str) -> bool:
    return any(
        module == upper or module.startswith(upper + ".")
        for upper in UPPER_MODULES
    )


def test_lower_layers_do_not_import_upper_layers():
    offending = []
    for package in LOWER_PACKAGES:
        for dirpath, _, filenames in os.walk(os.path.join(SRC, package)):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                offending.extend(
                    f"{os.path.relpath(path, SRC)}:{line} imports {module}"
                    for line, module in _runtime_imports(tree)
                    if _is_upper(module)
                )
    assert not offending, "\n".join(offending)
