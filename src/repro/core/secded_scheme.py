"""Baseline scheme: full-word SECDED Hamming ECC (H(39,32) for 32-bit data).

Every write encodes the whole data word into an extended-Hamming codeword with
``c`` parity bits stored in extra columns; every read decodes the codeword,
correcting any single bit error and detecting double errors.  This is the
conventional, overhead-heavy baseline against which the paper normalises all
of Fig. 6.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.base import EnergyTables, ProtectionScheme
from repro.ecc.hamming import SecdedCode, secded_code_for_data_bits

__all__ = ["SecdedScheme"]


class SecdedScheme(ProtectionScheme):
    """Full-word single-error-correct / double-error-detect Hamming protection."""

    def __init__(self, word_width: int = 32) -> None:
        super().__init__(word_width)
        self._code = secded_code_for_data_bits(word_width)
        self._single_fault_energy = (0.0,) * word_width

    @property
    def code(self) -> SecdedCode:
        """The underlying SECDED code (H(39,32) for the paper's 32-bit words)."""
        return self._code

    @property
    def name(self) -> str:
        """Scheme name used in reports, e.g. ``"secded-H(39,32)"``."""
        return f"secded-{self._code.name}"

    @property
    def extra_columns(self) -> int:
        """Parity columns added to the array (7 for H(39,32))."""
        return self._code.parity_bits

    def encode_word(self, row: int, data: int) -> int:
        """Encode the data word into a codeword pattern of ``storage_width`` bits."""
        self._check_data(data)
        return self._code.encode(data)

    def decode_word(self, row: int, stored: int) -> int:
        """Decode a (possibly corrupted) codeword; single errors are corrected."""
        return self._code.decode(stored).data

    def encode_words(self, rows: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Vectorised encode: the parity-check matrix applied to whole arrays.

        Runs on the active :mod:`repro.kernels` backend via the code's batch
        methods; the codeword layout is hoisted into the code's construction-
        time kernel spec, so no per-call setup remains.
        """
        _rows, data = self._check_batch(rows, data, self.word_width, "data")
        return self._code.encode_array(data)

    def decode_words(self, rows: np.ndarray, stored: np.ndarray) -> np.ndarray:
        """Vectorised syndrome decode with single-error correction."""
        _rows, stored = self._check_batch(
            rows, stored, self.storage_width, "stored pattern"
        )
        return self._code.decode_data_array(stored)

    def residual_error_positions(
        self, row: int, fault_columns: Sequence[int]
    ) -> List[int]:
        """A single fault per word is corrected; multiple faults all remain.

        The analytical model considers faults striking the cells that hold the
        data bits (the paper's 16 kB fault population).  With one fault the
        SECDED decoder removes it; with two or more the decoder only detects
        the error and the read path delivers the uncorrected word, so every
        faulty data bit may be wrong.
        """
        self._check_fault_columns(fault_columns)
        unique = sorted(set(fault_columns))
        if len(unique) <= 1:
            return []
        return unique

    def error_energy_tables(self) -> EnergyTables:
        """Eq. 6 energy tables: lone faults vanish, multi-fault rows stay whole."""
        return self._single_fault_energy, self._columns_energy
