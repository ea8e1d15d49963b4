"""Tests for the bit-accurate SRAM array model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory.array import SramArray
from repro.memory.faults import FaultKind, FaultMap
from repro.memory.organization import MemoryOrganization


class TestHealthyArray:
    def test_write_read_roundtrip(self, small_org):
        array = SramArray(small_org)
        array.write_word(0, 0xDEADBEEF)
        assert array.read_word(0) == 0xDEADBEEF

    def test_initial_contents_zero(self, small_org):
        array = SramArray(small_org)
        assert array.read_word(5) == 0

    def test_rejects_oversized_pattern(self, small_org):
        array = SramArray(small_org)
        with pytest.raises(ValueError):
            array.write_word(0, 1 << 32)

    def test_rejects_negative_pattern(self, small_org):
        array = SramArray(small_org)
        with pytest.raises(ValueError):
            array.write_word(0, -1)

    def test_rejects_out_of_range_row(self, small_org):
        array = SramArray(small_org)
        with pytest.raises(IndexError):
            array.write_word(small_org.rows, 0)
        with pytest.raises(IndexError):
            array.read_word(small_org.rows)

    def test_rejects_wide_words(self):
        with pytest.raises(ValueError):
            SramArray(MemoryOrganization(rows=4, word_width=64))


class TestFaultyArray:
    def test_bit_flip_fault_corrupts_read(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(3, 31)])
        array = SramArray(small_org, fault_map)
        array.write_word(3, 0)
        assert array.read_word(3) == 1 << 31

    def test_stuck_at_zero_only_affects_ones(self, small_org):
        fault_map = FaultMap.from_cells(
            small_org, [(0, 2)], kind=FaultKind.STUCK_AT_ZERO
        )
        array = SramArray(small_org, fault_map)
        array.write_word(0, 0b100)
        assert array.read_word(0) == 0
        array.write_word(0, 0b011)
        assert array.read_word(0) == 0b011

    def test_faults_are_persistent_across_writes(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(1, 0)])
        array = SramArray(small_org, fault_map)
        for value in (0, 1, 0xFFFFFFFF, 0x12345678):
            array.write_word(1, value)
            assert array.read_word(1) == value ^ 1

    def test_only_faulty_rows_affected(self, small_org, rng):
        fault_map = FaultMap.from_cells(small_org, [(7, 15)])
        array = SramArray(small_org, fault_map)
        values = rng.integers(0, 2 ** 32, size=small_org.rows, dtype=np.uint64)
        for row, value in enumerate(values.tolist()):
            array.write_word(row, value)
        readback = np.array(
            [array.read_word(row) for row in range(small_org.rows)], dtype=np.uint64
        )
        mismatches = np.nonzero(readback != values)[0]
        assert mismatches.tolist() == [7]

    def test_observed_error_mask(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(2, 5)])
        array = SramArray(small_org, fault_map)
        intended = 0x0F0F0F0F
        array.write_word(2, intended)
        assert array.read_word(2) ^ intended == 1 << 5

    def test_mismatched_fault_map_rejected(self, small_org, tiny_org):
        fault_map = FaultMap.empty(tiny_org)
        with pytest.raises(ValueError):
            SramArray(small_org, fault_map)


class TestBlockAccess:
    def test_write_read_block(self, small_org, rng):
        # Rows written back to back read back intact, row by row.
        array = SramArray(small_org)
        values = rng.integers(0, 2 ** 32, size=10, dtype=np.uint64).tolist()
        for offset, value in enumerate(values):
            array.write_word(5 + offset, value)
        assert [array.read_word(5 + offset) for offset in range(10)] == values

    def test_fill_and_clear(self, small_org):
        array = SramArray(small_org)
        array.fill(0xFFFFFFFF)
        assert array.read_word(10) == 0xFFFFFFFF
        array.clear()
        assert array.read_word(10) == 0

