"""Baseline scheme: raw, unprotected storage.

Every fault corrupts exactly the data bit stored in the faulty cell, so the
error magnitude of a fault at bit position ``b`` is ``2**b`` -- up to ``2**31``
for the MSB of a 32-bit word.  This is the "No Correction" curve of Figs. 5
and 7.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.base import EnergyTables, ProtectionScheme

__all__ = ["NoProtection"]


class NoProtection(ProtectionScheme):
    """Identity write/read path with zero storage overhead."""

    def __init__(self, word_width: int) -> None:
        super().__init__(word_width)
        self._single_fault_energy = tuple(
            float(energy) for energy in self._energy_by_position
        )

    @property
    def name(self) -> str:
        """Scheme name used in reports."""
        return "no-protection"

    @property
    def extra_columns(self) -> int:
        """No extra storage is required."""
        return 0

    def encode_word(self, row: int, data: int) -> int:
        """Store the data word unchanged."""
        self._check_data(data)
        return data

    def decode_word(self, row: int, stored: int) -> int:
        """Return the read-out pattern unchanged."""
        if stored < 0 or stored >> self.word_width:
            raise ValueError(f"stored pattern does not fit in {self.word_width} bits")
        return stored

    def encode_words(self, rows: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Vectorised identity write path."""
        _rows, data = self._check_batch(rows, data, self.word_width, "data")
        return data.copy()

    def decode_words(self, rows: np.ndarray, stored: np.ndarray) -> np.ndarray:
        """Vectorised identity read path."""
        _rows, stored = self._check_batch(
            rows, stored, self.storage_width, "stored pattern"
        )
        return stored.copy()

    def residual_error_positions(
        self, row: int, fault_columns: Sequence[int]
    ) -> List[int]:
        """Every fault remains at its physical position."""
        self._check_fault_columns(fault_columns)
        return sorted(set(fault_columns))

    def error_energy_tables(self) -> EnergyTables:
        """Eq. 6 energy tables: every fault keeps its full weight."""
        return self._single_fault_energy, self._columns_energy
