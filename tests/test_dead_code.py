"""Regrowth guard: every public definition in ``repro`` has a caller.

A public ``def`` or ``class`` (module level or inside a class) must be
referenced somewhere in ``src/`` outside its own body, or be named in the
README, ``examples/``, ``benchmarks/`` or ``perfbench/``.  A definition
only tests call is a second path that can drift from the one results use,
so it is deleted with the tests that test only it.  A reference is a name,
an attribute or an identifier-valued string (so ``__all__`` entries and
``getattr`` names count); the check is by name, not by type, so it only
catches definitions whose name appears nowhere else.

:data:`KEPT` exempts the few that stay on purpose: scalar or one-pass
references that tests compare the product path against, and public API the
rule above does not see.  Each entry says why; an entry that stops being
needed (its definition is gone or gained a caller) fails the test too.
"""

from __future__ import annotations

import ast
import os
import re
from collections import defaultdict

import pytest

import repro

SRC = os.path.dirname(repro.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTSIDE_SRC = ("README.md", "examples", "benchmarks", "perfbench")

_REFERENCE = "reference implementation the tests compare the product path against"

#: ``module.Qualified.name`` -> why it stays although nothing in ``src/`` calls it.
KEPT = {
    "repro.quantize.fixedpoint.FixedPointFormat.to_raw":
        f"scalar {_REFERENCE} (quantize_array)",
    "repro.quantize.fixedpoint.FixedPointFormat.from_raw":
        f"scalar {_REFERENCE} (dequantize_array)",
    "repro.quality.cdf.WeightedEcdf.from_groups":
        f"one-pass {_REFERENCE} (the sharded WeightedSampleBuffer fold)",
    "repro.faultmodel.inclusion.VoltageScalableDie.fault_count_at":
        f"counting {_REFERENCE} (fault_map_at(vdd).fault_count)",
    "repro.sim.results.AdaptiveBudgetReport.fixed_equivalent_dies":
        "the fixed budget an adaptive run is measured against; the "
        "3x die-savings test compares with it",
    "repro.dse.explore.DesignSpaceExplorer.run_stats":
        "the only per-grid-point record of store hits and evaluated dies; "
        "the warm-store DSE tests read it",
    "repro.hardware.overhead.OverheadModel.compare_write_paths":
        "write-path overhead model (WritePathOverhead is in repro.__all__)",
    "repro.hardware.overhead.WritePathOverhead.as_dict":
        "serialised form of WritePathOverhead (in repro.__all__)",
    "repro.hardware.overhead.ReadPathOverhead.as_dict":
        "serialised form of the read-path result, the twin of "
        "WritePathOverhead.as_dict",
    "repro.memory.controller.ProtectedMemory.write_words":
        "ProtectedMemory's unsigned bulk write, the twin of write_ints "
        "(examples/quickstart.py)",
    "repro.memory.controller.ProtectedMemory.read_words":
        "ProtectedMemory's unsigned bulk read, the twin of read_ints "
        "(examples/quickstart.py)",
    "repro.memory.controller.ProtectedMemory.bist_result":
        "what ProtectedMemory's construction-time BIST found",
    "repro.memory.bist.BistResult.to_fault_map":
        "hands BIST's findings on as a FaultMap, the test-then-program flow "
        "of the paper",
    "repro.apps.pca.PrincipalComponentAnalysis.fit_transform":
        "estimator protocol (fit / transform / fit_transform) of an exported "
        "estimator",
    "repro.apps.preprocessing.StandardScaler.fit_transform":
        "estimator protocol (fit / transform / fit_transform) of an exported "
        "estimator",
}


def _python_files(root):
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _module_name(path: str) -> str:
    relative = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
    if relative == "__init__":
        return "repro"
    return "repro." + relative.removesuffix(".__init__")


def _definitions(body, prefix):
    """``(qualified name, name, first line, last line)`` of the public
    definitions at module or class level (decorators included)."""
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            yield from _definitions(node.body, prefix)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                first = min(
                    [node.lineno] + [d.lineno for d in node.decorator_list]
                )
                yield prefix + node.name, node.name, first, node.end_lineno
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}{node.name}.")


def _referenced_names(tree):
    """``(name, line)`` of every name, attribute and identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            yield node.value, node.lineno


def _outside_src_text() -> str:
    texts = []
    for entry in OUTSIDE_SRC:
        path = os.path.join(ROOT, entry)
        paths = [path] if os.path.isfile(path) else [
            os.path.join(dirpath, filename)
            for dirpath, _dirnames, filenames in sorted(os.walk(path))
            for filename in sorted(filenames)
            if filename.endswith((".py", ".json"))
        ]
        for name in paths:
            with open(name, "r", encoding="utf-8") as handle:
                texts.append(handle.read())
    return "\n".join(texts)


@pytest.fixture(scope="module")
def unreferenced():
    """Qualified names of public ``src/`` definitions nothing refers to."""
    definitions = []
    references = defaultdict(list)  # name -> [(path, line)]
    for path in _python_files(SRC):
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        module = _module_name(path)
        definitions.extend(
            (f"{module}.{qualified}", name, path, first, last)
            for qualified, name, first, last in _definitions(tree.body, "")
        )
        for name, line in _referenced_names(tree):
            references[name].append((path, line))
    outside = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", _outside_src_text()))
    return {
        qualified
        for qualified, name, path, first, last in definitions
        if name not in outside
        and not any(
            where != path or not first <= line <= last
            for where, line in references[name]
        )
    }


def test_every_public_definition_has_a_caller(unreferenced):
    orphans = sorted(unreferenced - set(KEPT))
    assert not orphans, (
        "public definitions that nothing in src/, the README, examples/, "
        "benchmarks/ or perfbench/ refers to (delete them with the tests "
        "that test only them, or add them to KEPT with a reason):\n"
        + "\n".join(orphans)
    )


def test_kept_entries_are_still_needed(unreferenced):
    stale = sorted(set(KEPT) - unreferenced)
    assert not stale, (
        "KEPT entries whose definition is gone or now has a caller:\n"
        + "\n".join(stale)
    )
