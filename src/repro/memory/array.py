"""Bit-accurate SRAM array model with persistent faulty cells.

:class:`SramArray` models the raw storage that sits behind every protection
scheme: a grid of ``rows x word_width`` bit-cells, some of which may be faulty
according to a :class:`~repro.memory.faults.FaultMap`.  Writes always record
the intended value; reads apply the fault behaviour of each faulty cell, so
the observable corruption matches what a real die with persistent defects
would exhibit.

The array is deliberately scheme-agnostic: ECC parity columns, FM-LUT columns
and shifting are all layered on top by :mod:`repro.memory.controller` and the
schemes in :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization

__all__ = ["SramArray"]


class SramArray:
    """An R x W SRAM array whose cells may be defective.

    Parameters
    ----------
    organization:
        Geometry of the array.
    fault_map:
        Persistent fault map of this die.  ``None`` means a fault-free die.
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        fault_map: Optional[FaultMap] = None,
    ) -> None:
        if fault_map is not None and fault_map.organization != organization:
            raise ValueError(
                "fault map geometry does not match the array organization"
            )
        self._organization = organization
        self._fault_map = fault_map if fault_map is not None else FaultMap.empty(organization)
        self._storage = np.zeros(organization.rows, dtype=np.uint64)
        if organization.word_width > 63:
            raise ValueError("SramArray supports word widths up to 63 bits")

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def organization(self) -> MemoryOrganization:
        """Geometry of the array."""
        return self._organization

    @property
    def fault_map(self) -> FaultMap:
        """Persistent fault map of this die."""
        return self._fault_map

    @property
    def rows(self) -> int:
        """Number of word rows."""
        return self._organization.rows

    @property
    def word_width(self) -> int:
        """Bits per word."""
        return self._organization.word_width

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def write_word(self, row: int, pattern: int) -> None:
        """Store an unsigned word pattern at ``row`` (fault effects apply on read)."""
        self._organization.check_row(row)
        if pattern < 0 or pattern >> self.word_width:
            raise ValueError(
                f"pattern {pattern:#x} does not fit in {self.word_width} bits"
            )
        self._storage[row] = np.uint64(pattern)

    def read_word(self, row: int) -> int:
        """Read the word at ``row``; faulty cells corrupt the returned pattern."""
        self._organization.check_row(row)
        stored = int(self._storage[row])
        return self._fault_map.corrupt_word(row, stored)

    def fill(self, pattern: int) -> None:
        """Write the same pattern to every row (used by BIST march elements)."""
        if pattern < 0 or pattern >> self.word_width:
            raise ValueError(f"pattern does not fit in {self.word_width} bits")
        self._storage[:] = np.uint64(pattern)

    def clear(self) -> None:
        """Zero the entire array."""
        self.fill(0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SramArray({self.rows}x{self.word_width}, "
            f"{self._fault_map.fault_count} faulty cells)"
        )
