"""Repair stage: spare-row/column redundancy applied before protection encoding.

Section 2 of the paper motivates the bit-shuffling scheme by the exploding
cost of conventional redundancy at scaled voltages.  This stage makes that
comparison runnable end-to-end: a :class:`RepairStage` wraps the memory
layer's :class:`~repro.memory.redundancy.RedundancyRepair` allocator and maps
every manufactured fault map to its *post-repair* map -- the faults left over
once the greedy spare-row/column allocation has replaced what it can.  The
protection schemes (and the quality/MSE evaluators behind Figs. 5 and 7)
then operate on exactly the population a repaired die would expose, so a
``repaired`` scenario answers "how much protection does redundancy still
need?" with the same machinery as every other scenario.

The stage is deterministic (the greedy allocation consumes no randomness),
never *adds* faults, and conserves the unrepaired mass: every fault of the
output map is a fault of the input map that no spare covered.
"""

from __future__ import annotations

from typing import Dict, List

from repro.memory.faults import FaultMap
from repro.memory.redundancy import RedundancyRepair
from repro.scenarios.base import RepairStageLike

__all__ = ["RepairStage"]


class RepairStage(RepairStageLike):
    """Deterministic spare-row/column repair applied to every sampled die."""

    def __init__(self, spare_rows: int = 0, spare_columns: int = 0) -> None:
        self._repair = RedundancyRepair(
            spare_rows=spare_rows, spare_columns=spare_columns
        )

    @property
    def spare_rows(self) -> int:
        """Spare rows available per die."""
        return self._repair.spare_rows

    @property
    def spare_columns(self) -> int:
        """Spare columns available per die."""
        return self._repair.spare_columns

    def apply(self, fault_map: FaultMap) -> FaultMap:
        """Post-repair fault map of one die (uncovered faults only)."""
        return self._repair.remaining_faults(fault_map)

    def apply_batch(self, maps: List[FaultMap]) -> List[FaultMap]:
        return [self.apply(fault_map) for fault_map in maps]

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "redundancy-repair",
            "spare_rows": self._repair.spare_rows,
            "spare_columns": self._repair.spare_columns,
        }
