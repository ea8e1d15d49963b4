"""Baseline scheme: priority-based ECC (P-ECC).

P-ECC (Lee et al., Emre et al.) reduces ECC overhead by protecting only the
bits that matter most: the most-significant half of each data word is encoded
with a smaller SECDED code, while the least-significant half is stored raw.
For the paper's 32-bit words this is an H(22,16) code over bits 16..31, the
configuration used in Figs. 5, 6 and 7.

Stored-pattern layout (LSB first): the unprotected LSB half occupies columns
``0 .. W/2 - 1``; the H(22,16) codeword of the MSB half occupies the next
``W/2 + parity`` columns.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence

import numpy as np

from repro.core.base import EnergyTables, ProtectionScheme
from repro.ecc.hamming import SecdedCode, secded_code_for_data_bits
from repro.memory.words import bit_mask

__all__ = ["PriorityEccScheme"]


class PriorityEccScheme(ProtectionScheme):
    """SECDED protection applied to the most-significant bits of each word only.

    Parameters
    ----------
    word_width:
        Data word width ``W``.
    protected_bits:
        Number of most-significant bits covered by the SECDED code.  Defaults
        to ``W / 2`` -- the paper's H(22,16)-on-32-bit configuration.  Other
        fractions (e.g. protecting only the top byte with H(13,8)) trade
        protection reach for parity-storage overhead and are exercised by the
        P-ECC coverage ablation bench.
    """

    def __init__(self, word_width: int = 32, protected_bits: Optional[int] = None) -> None:
        super().__init__(word_width)
        if protected_bits is None:
            if word_width % 2 != 0:
                raise ValueError(
                    f"priority ECC splits the word in half; width {word_width} is odd"
                )
            protected_bits = word_width // 2
        if not 0 < protected_bits < word_width:
            raise ValueError(
                f"protected_bits must be in (0, {word_width}), got {protected_bits}"
            )
        self._protected_bits = protected_bits
        self._unprotected_bits = word_width - protected_bits
        self._code = secded_code_for_data_bits(self._protected_bits)
        self._low_mask = bit_mask(self._unprotected_bits)
        # A lone protected fault is corrected; a lone raw one keeps its weight.
        self._single_fault_energy = tuple(
            float(energy) if column < self._unprotected_bits else 0.0
            for column, energy in enumerate(self._energy_by_position)
        )

    @property
    def code(self) -> SecdedCode:
        """SECDED code applied to the MSB half (H(22,16) for 32-bit words)."""
        return self._code

    @property
    def protected_bits(self) -> int:
        """Number of most-significant data bits under ECC protection."""
        return self._protected_bits

    @property
    def name(self) -> str:
        """Scheme name used in reports, e.g. ``"p-ecc-H(22,16)"``."""
        return f"p-ecc-{self._code.name}"

    @property
    def extra_columns(self) -> int:
        """Parity columns added to the array (6 for H(22,16))."""
        return self._code.parity_bits

    def encode_word(self, row: int, data: int) -> int:
        """Store the unprotected LSBs raw and the protected MSBs as a SECDED codeword."""
        self._check_data(data)
        low = data & self._low_mask
        high = data >> self._unprotected_bits
        codeword = self._code.encode(high)
        return low | (codeword << self._unprotected_bits)

    def decode_word(self, row: int, stored: int) -> int:
        """Recover the word: decode the MSB codeword, pass the LSBs through."""
        if stored < 0 or stored >> self.storage_width:
            raise ValueError(
                f"stored pattern does not fit in {self.storage_width} bits"
            )
        low = stored & self._low_mask
        codeword = stored >> self._unprotected_bits
        high = self._code.decode(codeword).data
        return low | (high << self._unprotected_bits)

    def encode_words(self, rows: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Vectorised encode: raw LSB half, batch SECDED codewords for the MSBs.

        The codeword arithmetic runs on the active :mod:`repro.kernels`
        backend through the code's batch methods.
        """
        _rows, data = self._check_batch(rows, data, self.word_width, "data")
        shift = np.uint64(self._unprotected_bits)
        low = data & np.uint64(self._low_mask)
        codewords = self._code.encode_array(data >> shift)
        return low | (codewords << shift)

    def decode_words(self, rows: np.ndarray, stored: np.ndarray) -> np.ndarray:
        """Vectorised decode: batch-decode the MSB codewords, pass the LSBs through."""
        _rows, stored = self._check_batch(
            rows, stored, self.storage_width, "stored pattern"
        )
        shift = np.uint64(self._unprotected_bits)
        low = stored & np.uint64(self._low_mask)
        high = self._code.decode_data_array(stored >> shift)
        return low | (high << shift)

    def residual_error_positions(
        self, row: int, fault_columns: Sequence[int]
    ) -> List[int]:
        """Unprotected LSB faults always remain; a single protected fault is corrected.

        Faults at positions below the protection boundary hit unprotected
        cells and corrupt their bit directly.  Faults at or above it hit the
        protected codeword: one such fault is corrected by the SECDED decoder,
        two or more are only detected and every affected bit may be wrong.
        """
        self._check_fault_columns(fault_columns)
        unique = sorted(set(fault_columns))
        low_faults = [c for c in unique if c < self._unprotected_bits]
        high_faults = [c for c in unique if c >= self._unprotected_bits]
        if len(high_faults) <= 1:
            high_faults = []
        return sorted(low_faults + high_faults)

    def error_energy_tables(self) -> EnergyTables:
        """Eq. 6 energy tables of the raw LSBs and any uncorrectable MSB faults."""
        return self._single_fault_energy, self._multi_fault_energy

    def _multi_fault_energy(self, columns: Sequence[int]) -> int:
        """Exact energy of a row with several (sorted) faults."""
        split = bisect_left(columns, self._unprotected_bits)
        if len(columns) - split <= 1:
            return self._columns_energy(columns[:split])
        return self._columns_energy(columns)
