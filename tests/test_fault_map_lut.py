"""Tests for the FM-LUT (fault-map look-up table)."""

from __future__ import annotations

import pytest

from repro.core.fault_map_lut import FaultMapLut
from repro.core.scheme import BitShuffleScheme


class TestConstruction:
    def test_parameters(self):
        lut = FaultMapLut(rows=16, word_width=32, n_fm=2)
        assert lut.rows == 16
        assert lut.word_width == 32
        assert lut.n_fm == 2
        assert lut.segment_size == 8
        assert lut.segment_count == 4

    def test_rejects_invalid_nfm(self):
        with pytest.raises(ValueError):
            FaultMapLut(rows=16, word_width=32, n_fm=6)
        with pytest.raises(ValueError):
            FaultMapLut(rows=16, word_width=32, n_fm=0)

    def test_rejects_non_positive_rows(self):
        with pytest.raises(ValueError):
            FaultMapLut(rows=0, word_width=32, n_fm=1)

    def test_entries_default_to_zero(self):
        lut = FaultMapLut(rows=4, word_width=32, n_fm=3)
        assert all(lut.entry(r) == 0 for r in range(4))
        assert all(lut.rotation(r) == 0 for r in range(4))


class TestEntryAccess:
    def test_set_and_get(self):
        lut = FaultMapLut(rows=4, word_width=32, n_fm=3)
        lut.program_entries([2], [5])
        assert lut.entry(2) == 5

    def test_set_rejects_out_of_range_entry(self):
        lut = FaultMapLut(rows=4, word_width=32, n_fm=2)
        with pytest.raises(ValueError):
            lut.program_entries([0], [4])

    def test_row_bounds_checked(self):
        lut = FaultMapLut(rows=4, word_width=32, n_fm=1)
        with pytest.raises(IndexError):
            lut.entry(4)
        with pytest.raises(IndexError):
            lut.program_entries([-1], [0])

    def test_program_entries_writes_rows_and_clears_the_rest(self):
        lut = FaultMapLut(rows=6, word_width=32, n_fm=2)
        lut.program_entries([5], [3])  # stale entry from a previous die
        lut.program_entries([1, 4], [2, 3])
        assert lut.entries().tolist() == [0, 2, 0, 0, 3, 0]
        assert lut.rotations().tolist() == lut.rotations_view().tolist()

    @pytest.mark.parametrize(
        "rows, entries, error",
        [
            ([0, 6], [1, 1], IndexError),
            ([0, -1], [1, 1], IndexError),
            ([0, 2], [1, 4], ValueError),
        ],
    )
    def test_program_entries_rejects_out_of_range(self, rows, entries, error):
        lut = FaultMapLut(rows=6, word_width=32, n_fm=2)
        lut.program_entries([3], [2])
        with pytest.raises(error):
            lut.program_entries(rows, entries)
        assert lut.entries().tolist() == [0, 0, 0, 2, 0, 0]

    def test_rotation_matches_equation_two(self):
        lut = FaultMapLut(rows=4, word_width=32, n_fm=5)
        lut.program_entries([0], [3])
        assert lut.rotation(0) == 29

    def test_rotations_vector_matches_scalar(self):
        lut = FaultMapLut(rows=8, word_width=32, n_fm=2)
        lut.program_entries(range(8), [row % 4 for row in range(8)])
        rotations = lut.rotations()
        for row in range(8):
            assert rotations[row] == lut.rotation(row)

    def test_entries_returns_copy(self):
        lut = FaultMapLut(rows=4, word_width=32, n_fm=1)
        entries = lut.entries()
        entries[0] = 1
        assert lut.entry(0) == 0


class TestProgramming:
    """The FM-LUT as ``BitShuffleScheme.program`` writes it from BIST fault rows."""

    def test_program_row_single_fault(self):
        scheme = BitShuffleScheme(32, 5, rows=4)
        scheme.program({1: [3]})
        assert scheme.lut.entry(1) == 3

    def test_program_row_empty_resets(self):
        scheme = BitShuffleScheme(32, 5, rows=4)
        scheme.lut.program_entries([1], [7])
        scheme.program({1: []})
        assert scheme.lut.entry(1) == 0

    def test_program_row_multiple_faults_uses_most_significant(self):
        scheme = BitShuffleScheme(32, 2, rows=4)
        scheme.program({0: [2, 30]})
        # Bit 30 lives in segment 3 (segments of 8 bits).
        assert scheme.lut.entry(0) == 3

    def test_program_row_rejects_bad_columns(self):
        scheme = BitShuffleScheme(32, 1, rows=4)
        with pytest.raises(ValueError):
            scheme.program({0: [32]})

    def test_program_bulk(self):
        scheme = BitShuffleScheme(32, 5, rows=8)
        scheme.lut.program_entries([7], [9])  # stale entry from a previous die
        scheme.program({0: [31], 3: [0]})
        assert scheme.lut.entry(0) == 31
        assert scheme.lut.entry(3) == 0
        assert scheme.lut.entry(7) == 0  # reset
