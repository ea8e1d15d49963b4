"""The paper's contribution: the bit-shuffling protection scheme.

On every write the data word is right-circular-rotated by ``T(r)`` (Eq. 2) so
that the least-significant segment of the word is stored in the row's faulty
cell; on every read the rotation is undone.  The per-row rotation is derived
from an ``nFM``-bit FM-LUT entry programmed from BIST fault locations.  A
single fault per row is therefore guaranteed to corrupt only a bit of the
lowest-significance segment, bounding its error magnitude by ``2**(S-1)``
with ``S = W / 2**nFM`` (Eq. 1).

Multi-fault rows expose a policy choice, because one rotation cannot push two
faults in different segments into the lowest segment simultaneously:

``"most-significant"`` (default, matches the simplest hardware)
    Neutralise the fault with the largest potential error magnitude.
``"minimax"``
    Search all ``2**nFM`` LUT values and pick the one minimising the largest
    residual error weight across all faults in the row.  This is the ablation
    called out in DESIGN.md; it needs a slightly smarter BIST post-processing
    step but identical datapath hardware.
"""

from __future__ import annotations

import copy
from itertools import chain
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.core.base import EnergyTables, ProtectionScheme
from repro.core.fault_map_lut import FaultMapLut
from repro.core.segments import rotation_amount, segment_index, segment_size
from repro.core.shuffler import BitShuffler

__all__ = ["BitShuffleScheme"]

_POLICIES = ("most-significant", "minimax")


class BitShuffleScheme(ProtectionScheme):
    """Significance-driven fault mitigation via FM-LUT controlled rotations.

    Parameters
    ----------
    word_width:
        Data word width ``W`` (32 in the paper).
    n_fm:
        FM-LUT bits per row, 1..ceil(log2 W).  Larger values shrink the
        segment size and the residual error at the cost of more LUT storage
        and a wider shifter control.
    rows:
        Number of memory rows the scheme will serve.  Required before
        :meth:`program`/:meth:`encode_word` can be used; may also be provided
        later via :meth:`attach_rows`.
    multi_fault_policy:
        How to choose the LUT entry for rows with more than one fault (see
        module docstring).
    """

    def __init__(
        self,
        word_width: int = 32,
        n_fm: int = 1,
        rows: Optional[int] = None,
        multi_fault_policy: str = "most-significant",
    ) -> None:
        super().__init__(word_width)
        if multi_fault_policy not in _POLICIES:
            raise ValueError(
                f"multi_fault_policy must be one of {_POLICIES}, got "
                f"{multi_fault_policy!r}"
            )
        # segment_size validates n_fm.
        self._segment_size = segment_size(word_width, n_fm)
        self._n_fm = n_fm
        self._policy = multi_fault_policy
        self._shuffler = BitShuffler(word_width)
        self._lut: Optional[FaultMapLut] = None
        if rows is not None:
            self.attach_rows(rows)
        # Column -> LUT entry of the segment holding it, and the rotation
        # that entry programs: the most-significant policy for any row.
        self._entry_by_column = tuple(
            segment_index(column, word_width, n_fm) for column in range(word_width)
        )
        rotations = [
            rotation_amount(entry, word_width, n_fm) for entry in range(1 << n_fm)
        ]
        self._rotation_by_column = tuple(
            rotations[entry] for entry in self._entry_by_column
        )
        # A lone fault at column c lands on logical bit c mod S (Eq. 2).
        self._single_fault_energy = tuple(
            float(self._energy_by_position[column % self._segment_size])
            for column in range(word_width)
        )

    # ------------------------------------------------------------------ #
    # Static properties
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Scheme name used in reports, e.g. ``"bit-shuffle-nfm2"``.

        A non-default multi-fault policy is part of the name
        (``"bit-shuffle-nfm2-minimax"``): sweeps key schemes by name, so two
        policies must never share a store key or a checkpoint.
        """
        if self._policy == "most-significant":
            return f"bit-shuffle-nfm{self._n_fm}"
        return f"bit-shuffle-nfm{self._n_fm}-{self._policy}"

    @property
    def n_fm(self) -> int:
        """FM-LUT bits per row."""
        return self._n_fm

    @property
    def segment_size(self) -> int:
        """Segment size ``S`` (Eq. 1)."""
        return self._segment_size

    @property
    def multi_fault_policy(self) -> str:
        """Active policy for rows with multiple faults."""
        return self._policy

    @property
    def extra_columns(self) -> int:
        """The FM-LUT adds ``nFM`` bit columns per row."""
        return self._n_fm

    @property
    def lut(self) -> FaultMapLut:
        """The programmed FM-LUT (raises if rows were never attached)."""
        if self._lut is None:
            raise RuntimeError(
                "BitShuffleScheme has no FM-LUT yet; construct with rows= or "
                "call attach_rows() first"
            )
        return self._lut

    # ------------------------------------------------------------------ #
    # Die-specific programming
    # ------------------------------------------------------------------ #
    def attach_rows(self, rows: int) -> None:
        """Allocate a fresh (all-zero) FM-LUT for a memory of ``rows`` rows."""
        self._lut = FaultMapLut(rows, self.word_width, self._n_fm)

    def program(self, fault_columns_by_row: Mapping[int, Sequence[int]]) -> None:
        """Program the FM-LUT from BIST fault locations (row -> fault columns)."""
        lut = self.lut
        columns_by_row = fault_columns_by_row.values()
        if self._policy == "most-significant":
            # One range check over every fault of the die; each row's entry
            # is then the segment of its most significant fault.
            faults = list(chain.from_iterable(columns_by_row))
            if faults and (min(faults) < 0 or max(faults) >= self.word_width):
                self._check_fault_columns(faults)
            entry_by_column = self._entry_by_column
            entries = [
                entry_by_column[max(columns)] if columns else 0 for columns in columns_by_row
            ]
        else:
            entries = [self._select_entry(columns) for columns in columns_by_row]
        # Healthy rows keep xFM = 0.
        lut.program_entries(fault_columns_by_row.keys(), entries)

    def for_die(
        self, rows: int, fault_columns_by_row: Mapping[int, Sequence[int]]
    ) -> "BitShuffleScheme":
        """A copy with a fresh FM-LUT programmed for one die; ``self`` is untouched.

        The FM-LUT is the scheme's only mutable state and the copy gets its
        own, so a shallow copy suffices: everything else it shares with
        ``self`` is immutable.
        """
        scheme = copy.copy(self)
        scheme.attach_rows(rows)
        scheme.program(fault_columns_by_row)
        return scheme

    def _select_entry(self, fault_columns: Sequence[int]) -> int:
        """Choose the LUT entry for one row according to the multi-fault policy."""
        self._check_fault_columns(fault_columns)
        if not fault_columns:
            return 0
        if self._policy == "most-significant" or len(set(fault_columns)) == 1:
            return self._entry_by_column[max(fault_columns)]
        best_entry = 0
        best_cost = None
        for candidate in range(1 << self._n_fm):
            rotation = rotation_amount(candidate, self.word_width, self._n_fm)
            worst = max(
                (column + rotation) % self.word_width for column in fault_columns
            )
            if best_cost is None or worst < best_cost:
                best_cost = worst
                best_entry = candidate
        return best_entry

    # ------------------------------------------------------------------ #
    # Operational view
    # ------------------------------------------------------------------ #
    def encode_word(self, row: int, data: int) -> int:
        """Rotate the data word per the row's LUT entry; append the entry bits.

        The returned pattern is ``storage_width`` bits wide: the rotated data
        occupies the ``word_width`` data columns and the FM-LUT entry occupies
        the ``nFM`` extra columns, mirroring the in-array LUT realisation of
        Fig. 3.
        """
        self._check_data(data)
        lut = self.lut
        rotation = lut.rotation(row)
        shuffled = self._shuffler.shuffle(data, rotation)
        return shuffled | (lut.entry(row) << self.word_width)

    def decode_word(self, row: int, stored: int) -> int:
        """Undo the rotation recorded in the FM-LUT for ``row``."""
        if stored < 0 or stored >> self.storage_width:
            raise ValueError(
                f"stored pattern does not fit in {self.storage_width} bits"
            )
        data_part = stored & ((1 << self.word_width) - 1)
        rotation = self.lut.rotation(row)
        return self._shuffler.unshuffle(data_part, rotation)

    # ------------------------------------------------------------------ #
    # Operational (batch) view
    # ------------------------------------------------------------------ #
    def _check_rows(self, rows: np.ndarray) -> None:
        lut = self.lut
        if rows.size and (rows.min() < 0 or rows.max() >= lut.rows):
            raise IndexError(f"row index out of range [0, {lut.rows})")

    def encode_words(self, rows: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Vectorised write path: gather per-row rotations, rotate, append entries.

        Runs on the active kernel backend; the LUT tables are cached read-only
        views, so no per-call table rebuild happens on the hot path.
        """
        rows, data = self._check_batch(rows, data, self.word_width, "data")
        self._check_rows(rows)
        lut = self.lut
        from repro.kernels import active_backend

        return active_backend().fmlut_encode(
            data, rows, lut.entries_view(), lut.rotations_view(), self.word_width
        )

    def decode_words(self, rows: np.ndarray, stored: np.ndarray) -> np.ndarray:
        """Vectorised read path: strip the LUT columns and undo the rotations."""
        rows, stored = self._check_batch(
            rows, stored, self.storage_width, "stored pattern"
        )
        self._check_rows(rows)
        from repro.kernels import active_backend

        return active_backend().fmlut_decode(
            stored, rows, self.lut.rotations_view(), self.word_width
        )

    # ------------------------------------------------------------------ #
    # Analytical view
    # ------------------------------------------------------------------ #
    def residual_error_positions(
        self, row: int, fault_columns: Sequence[int]
    ) -> List[int]:
        """Logical positions that remain vulnerable after the rotation.

        Assumes the FM-LUT was programmed (via BIST) for exactly these faults,
        which is the paper's operating model.  A physical fault at column ``c``
        corrupts logical bit ``(c + T) mod W``; for a single fault this is
        ``c mod S`` and the error magnitude is bounded by ``2**(S-1)``.
        """
        self._check_fault_columns(fault_columns)
        if not fault_columns:
            return []
        entry = self._select_entry(fault_columns)
        rotation = rotation_amount(entry, self.word_width, self._n_fm)
        return sorted(
            {(column + rotation) % self.word_width for column in fault_columns}
        )

    def error_energy_tables(self) -> EnergyTables:
        """Eq. 6 energy tables of the rotated residual positions.

        A lone fault at column ``c`` always lands on logical bit ``c mod S``,
        so single-fault rows are one table lookup under either policy.
        """
        return self._single_fault_energy, self._multi_fault_energy

    def _multi_fault_energy(self, columns: Sequence[int]) -> int:
        """Exact energy of a row with several (sorted, distinct) faults."""
        width = self.word_width
        if self._policy == "most-significant":
            rotation = self._rotation_by_column[columns[-1]]
        else:
            rotation = rotation_amount(self._select_entry(columns), width, self._n_fm)
        energy = self._energy_by_position
        return sum(energy[(column + rotation) % width] for column in columns)
