"""Fault-map look-up table (FM-LUT) of the bit-shuffling scheme.

The FM-LUT holds one ``nFM``-bit entry per memory row.  Each entry records the
index of the word segment that contains the row's faulty cell, which via
Eq. 2 determines the circular rotation applied on every write and undone on
every read.  In the paper's straightforward hardware realisation the LUT is
implemented as ``nFM`` extra bit columns of the array; alternative
realisations (register file, CAM) change the overhead model but not the
behaviour captured here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.segments import (
    rotation_amount,
    segment_size,
)

__all__ = ["FaultMapLut"]


class FaultMapLut:
    """Per-row segment indices driving the bit-shuffling rotations.

    Parameters
    ----------
    rows:
        Number of memory rows covered.
    word_width:
        Data word width ``W``.
    n_fm:
        Number of LUT bits per row (1..ceil(log2 W)), setting the segment
        granularity of the scheme.
    """

    def __init__(self, rows: int, word_width: int, n_fm: int) -> None:
        if rows <= 0:
            raise ValueError(f"rows must be positive, got {rows}")
        # segment_size validates n_fm against word_width.
        self._segment_size = segment_size(word_width, n_fm)
        self._rows = rows
        self._word_width = word_width
        self._n_fm = n_fm
        self._entries = np.zeros(rows, dtype=np.int64)
        # Cached read-only views for the batch datapath; recomputing the
        # rotation vector on every encode/decode call was measurable per-call
        # setup, so it is invalidated on mutation instead (see _invalidate).
        self._rotations_cache: np.ndarray | None = None
        self._entries_view: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> int:
        """Number of rows covered by the LUT."""
        return self._rows

    @property
    def word_width(self) -> int:
        """Data word width ``W``."""
        return self._word_width

    @property
    def n_fm(self) -> int:
        """LUT bits per row ``nFM``."""
        return self._n_fm

    @property
    def segment_size(self) -> int:
        """Segment size ``S = W / 2**nFM`` (Eq. 1)."""
        return self._segment_size

    @property
    def segment_count(self) -> int:
        """Number of segments ``2**nFM``."""
        return 1 << self._n_fm

    # ------------------------------------------------------------------ #
    # Entry access
    # ------------------------------------------------------------------ #
    def entry(self, row: int) -> int:
        """The programmed segment index ``xFM(row)``."""
        self._check_row(row)
        return int(self._entries[row])

    def program_entries(self, rows: Sequence[int], entries: Sequence[int]) -> None:
        """Set ``xFM(rows[i]) = entries[i]`` and every other row to 0, in one write.

        Raises :class:`IndexError` on the first out-of-range row and
        :class:`ValueError` on the first out-of-range entry, and then leaves
        the LUT unchanged.  The range checks run once over
        each whole sequence: a die has a few dozen faulty rows, too few for
        NumPy's per-call overhead to pay off.
        """
        rows, entries = list(rows), list(entries)
        if len(rows) != len(entries):
            raise ValueError("rows and entries must have the same length")
        if rows and (min(rows) < 0 or max(rows) >= self._rows):
            for row in rows:
                self._check_row(row)
        if entries and (min(entries) < 0 or max(entries) >= self.segment_count):
            for x_fm in entries:
                self._check_entry(x_fm)
        self._entries[:] = 0
        self._entries[rows] = entries
        self._invalidate()

    def rotation(self, row: int) -> int:
        """Right-rotation amount ``T(row)`` for the programmed entry (Eq. 2)."""
        return rotation_amount(self.entry(row), self._word_width, self._n_fm)

    def entries(self) -> np.ndarray:
        """Copy of all programmed entries (index = row)."""
        return self._entries.copy()

    def rotations(self) -> np.ndarray:
        """Vector of rotation amounts for every row (used by the bulk simulator)."""
        s = self._segment_size
        segments = self.segment_count
        return ((segments - self._entries) * s) % self._word_width

    def entries_view(self) -> np.ndarray:
        """Cached read-only view of all entries for the batch datapath."""
        if self._entries_view is None:
            view = self._entries.view()
            view.flags.writeable = False
            self._entries_view = view
        return self._entries_view

    def rotations_view(self) -> np.ndarray:
        """Cached read-only rotation vector (recomputed only after mutation)."""
        if self._rotations_cache is None:
            rotations = self.rotations()
            rotations.flags.writeable = False
            self._rotations_cache = rotations
        return self._rotations_cache

    def _invalidate(self) -> None:
        self._rotations_cache = None

    def __getstate__(self) -> dict:
        # Copies (deepcopy/pickle) must not carry the cached views: a copied
        # view would otherwise alias the *original* entry array.
        state = self.__dict__.copy()
        state["_rotations_cache"] = None
        state["_entries_view"] = None
        return state

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._rows:
            raise IndexError(f"row {row} out of range [0, {self._rows})")

    def _check_entry(self, x_fm: int) -> None:
        if not 0 <= x_fm < self.segment_count:
            raise ValueError(
                f"xFM {x_fm} out of range [0, {self.segment_count}) for nFM={self._n_fm}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultMapLut(rows={self._rows}, W={self._word_width}, "
            f"nFM={self._n_fm}, S={self._segment_size})"
        )
