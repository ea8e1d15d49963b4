"""Row/column redundancy repair -- the conventional yield-recovery substrate.

Section 2 of the paper motivates the work by noting that the classical
response to manufacturing faults -- spare rows and columns that replace any
row/column containing a faulty cell -- becomes uneconomical as the failure
probability grows: "as the number of failures increases, the number of
redundant rows/columns required to replace every faulty row/column increases
tremendously".  This module provides that substrate so the claim can be
quantified and compared against the paper's scheme:

* :class:`RedundancyRepair` performs the repair allocation for one die: it
  remaps faulty rows to spare rows and faulty columns to spare columns (rows
  first, then columns for whatever remains, which is the standard greedy
  must-repair heuristic for sparse fault maps).
* :func:`repair_yield` evaluates the repaired yield analytically over the
  failure-count distribution of Eq. 4.
* :func:`spares_for_yield_target` reports how many spare rows are needed to
  reach a yield target at a given ``Pcell`` -- the "increases tremendously"
  curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization

__all__ = ["RepairResult", "RedundancyRepair", "repair_yield", "spares_for_yield_target"]


@dataclass
class RepairResult:
    """Outcome of allocating spare rows/columns to one die's fault map.

    Attributes
    ----------
    repaired:
        Whether every faulty cell was covered by a spare row or column.
    row_replacements:
        Mapping of faulty row index -> spare row index used.
    column_replacements:
        Mapping of faulty column index -> spare column index used.
    uncovered_faults:
        ``(row, column)`` cells left unrepaired (empty when ``repaired``).
    """

    repaired: bool
    row_replacements: Dict[int, int] = field(default_factory=dict)
    column_replacements: Dict[int, int] = field(default_factory=dict)
    uncovered_faults: List[Tuple[int, int]] = field(default_factory=list)


class RedundancyRepair:
    """Greedy spare-row / spare-column allocator for a single die.

    Parameters
    ----------
    spare_rows:
        Number of spare rows available on the die.
    spare_columns:
        Number of spare columns available on the die.
    """

    def __init__(self, spare_rows: int = 0, spare_columns: int = 0) -> None:
        if spare_rows < 0 or spare_columns < 0:
            raise ValueError("spare counts must be non-negative")
        self._spare_rows = spare_rows
        self._spare_columns = spare_columns

    @property
    def spare_rows(self) -> int:
        """Available spare rows."""
        return self._spare_rows

    @property
    def spare_columns(self) -> int:
        """Available spare columns."""
        return self._spare_columns

    def repair(self, fault_map: FaultMap) -> RepairResult:
        """Allocate spares to cover every faulty cell of ``fault_map``.

        Rows with the most faults are replaced first (they are "must repair"
        candidates); remaining faulty cells are covered by column spares, most
        frequent columns first.  This greedy order is optimal when faults are
        sparse (at most a handful per die), which is the regime of interest.
        """
        by_row = fault_map.faulty_columns_by_row()
        # Replace the rows with the largest fault counts first.
        rows_by_need = sorted(by_row, key=lambda r: len(by_row[r]), reverse=True)
        row_replacements: Dict[int, int] = {}
        for spare_index, row in enumerate(rows_by_need[: self._spare_rows]):
            row_replacements[row] = spare_index

        remaining: List[Tuple[int, int]] = [
            (row, column)
            for row, columns in by_row.items()
            if row not in row_replacements
            for column in columns
        ]

        # Cover what is left with column spares, most-loaded columns first.
        column_load: Dict[int, int] = {}
        for _row, column in remaining:
            column_load[column] = column_load.get(column, 0) + 1
        columns_by_need = sorted(column_load, key=lambda c: column_load[c], reverse=True)
        column_replacements: Dict[int, int] = {
            column: spare_index
            for spare_index, column in enumerate(columns_by_need[: self._spare_columns])
        }

        uncovered = [
            (row, column)
            for row, column in remaining
            if column not in column_replacements
        ]
        return RepairResult(
            repaired=not uncovered,
            row_replacements=row_replacements,
            column_replacements=column_replacements,
            uncovered_faults=uncovered,
        )

    def remaining_faults(self, fault_map: FaultMap) -> FaultMap:
        """The post-repair fault map: every fault no spare row/column covered.

        Spares are assumed fault-free, so a repaired die exposes exactly the
        uncovered faults of :meth:`repair` -- with their original
        :class:`~repro.memory.faults.FaultKind` preserved.  The result never
        has more faults than the input (repair only removes), and together
        with the covered cells it partitions the input's fault set (mass
        conservation).  This is the map the fault-scenario pipeline hands to
        protection encoding.
        """
        result = self.repair(fault_map)
        uncovered = set(result.uncovered_faults)
        return FaultMap(
            fault_map.organization,
            (f for f in fault_map if (f.row, f.column) in uncovered),
        )


def repair_yield(
    organization: MemoryOrganization,
    p_cell: float,
    spare_rows: int,
    max_failures: Optional[int] = None,
) -> float:
    """Yield of a row-redundancy-only repair under the Eq. 4 failure-count law.

    A die is repairable when its faults fall into at most ``spare_rows``
    distinct rows.  For the sparse-fault regime (faults far fewer than rows)
    distinct-row collisions are rare, so the dominant term is simply
    ``Pr(N <= spare_rows)``; this function uses that bound, which is exact for
    ``N <= spare_rows`` and conservative above it.
    """
    # Imported here: the failure-count law lives a layer above this module
    # (and the scenarios package between them would otherwise make the
    # module-level import circular).
    from repro.faultmodel.montecarlo import failure_count_pmf

    if not 0.0 <= p_cell <= 1.0:
        raise ValueError("p_cell must be a probability")
    if spare_rows < 0:
        raise ValueError("spare_rows must be non-negative")
    total_cells = organization.total_cells
    if max_failures is None:
        max_failures = spare_rows
    max_failures = min(max_failures, spare_rows)
    total = sum(
        failure_count_pmf(total_cells, p_cell, n)
        for n in range(0, max_failures + 1)
    )
    # Summing many pmf terms can overshoot 1.0 by a few ulps; clamp it.
    return float(min(total, 1.0))


def spares_for_yield_target(
    organization: MemoryOrganization,
    p_cell: float,
    yield_target: float = 0.99,
    max_spares: int = 4096,
) -> int:
    """Smallest number of spare rows reaching ``yield_target`` at ``p_cell``.

    This is the "redundancy cost" curve behind Section 2's motivation: at the
    paper's scaled-voltage operating points the required spare count explodes,
    which is why redundancy alone is not a viable answer to voltage scaling.
    Raises :class:`RuntimeError` if the target is unreachable within
    ``max_spares``.
    """
    if not 0.0 < yield_target < 1.0:
        raise ValueError("yield_target must be in (0, 1)")
    for spares in range(0, max_spares + 1):
        if repair_yield(organization, p_cell, spares) >= yield_target:
            return spares
    raise RuntimeError(
        f"yield target {yield_target} not reachable with {max_spares} spare rows"
    )
