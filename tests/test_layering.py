"""Layering contract: the library packages never import the layers above them.

``repro.dse``, ``repro.analysis`` and ``repro.cli`` compose the lower
packages; a run-time import in the other direction (even a lazy one inside a
function) ties a lower layer to everything above it.  Within the lower
packages, ``repro.faultmodel`` sits below the fault-scenario pipeline and the
sweep engine that draw dies through it, and the modules that only describe
or store a sweep (its configuration, its result types, the store, the DSE
spec) sit below the engine and its executor tier.  ``repro.memory``
(words, fault maps) sits below ``repro.kernels``, whose reference backend
is built from its word helpers.  Imports under
``if TYPE_CHECKING:`` are annotations only and are allowed.  The package uses
absolute imports throughout, so only those are checked.
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


def _python_files(target):
    """The ``.py`` files of ``target``: a package directory or one module file
    (both relative to the ``repro`` package)."""
    root = os.path.join(SRC, target)
    if root.endswith(".py"):
        assert os.path.isfile(root), root
        return [root]
    return [
        os.path.join(dirpath, filename)
        for dirpath, _, filenames in os.walk(root)
        for filename in sorted(filenames)
        if filename.endswith(".py")
    ]


def _offending_imports(targets, upper_modules):
    """``path:line imports module`` for every run-time import of an upper
    module from a file of one of ``targets`` (packages or module files)."""
    offending = []
    for target in targets:
        for path in _python_files(target):
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            offending.extend(
                f"{os.path.relpath(path, SRC)}:{line} imports {module}"
                for line, module in _runtime_imports(tree)
                if any(
                    module == upper or module.startswith(upper + ".")
                    for upper in upper_modules
                )
            )
    return offending


def test_lower_layers_do_not_import_upper_layers():
    offending = _offending_imports(LOWER_PACKAGES, UPPER_MODULES)
    assert not offending, "\n".join(offending)


def test_faultmodel_does_not_import_sim_or_scenarios():
    offending = _offending_imports(
        ("faultmodel",), ("repro.sim", "repro.scenarios")
    )
    assert not offending, "\n".join(offending)


def test_memory_does_not_import_kernels():
    offending = _offending_imports(("memory",), ("repro.kernels",))
    assert not offending, "\n".join(offending)


def test_sweep_config_and_results_do_not_import_the_engine_or_store():
    offending = _offending_imports(
        ("sim/config.py", "sim/results.py"),
        (
            "repro.sim.engine", "repro.sim.executor", "repro.sim.wire",
            "repro.sim.shardeval", "repro.sim.worker", "repro.store",
        ),
    )
    assert not offending, "\n".join(offending)


def test_sweep_descriptions_do_not_import_the_engine_or_executor():
    offending = _offending_imports(
        ("dse/spec.py", "sim/runner.py", "store/schema.py"),
        ("repro.sim.engine", "repro.sim.executor"),
    )
    assert not offending, "\n".join(offending)


def test_store_does_not_import_the_engine_or_dse():
    offending = _offending_imports(
        ("store",),
        (
            "repro.sim.engine", "repro.sim.executor", "repro.sim.experiment",
            "repro.dse",
        ),
    )
    assert not offending, "\n".join(offending)
