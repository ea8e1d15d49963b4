"""Tests for the March-test BIST that locates faulty cells."""

from __future__ import annotations


from repro.memory.array import SramArray
from repro.memory.bist import BistResult, MarchAlgorithm, run_march_test
from repro.memory.faults import FaultKind, FaultMap, FaultSite
from repro.memory.organization import MemoryOrganization


class TestFaultDetection:
    def test_clean_array_reports_no_faults(self, small_org):
        result = run_march_test(SramArray(small_org))
        assert result.fault_count == 0
        assert result.faulty_cells == []

    def test_detects_single_bit_flip(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(3, 7)])
        result = run_march_test(SramArray(small_org, fault_map))
        assert result.faulty_cells == [(3, 7)]

    def test_detects_every_injected_fault(self, small_org, rng):
        fault_map = FaultMap.random_with_count(small_org, 25, rng)
        result = run_march_test(SramArray(small_org, fault_map))
        expected = sorted((f.row, f.column) for f in fault_map)
        assert result.faulty_cells == expected

    def test_detects_stuck_at_faults(self, small_org):
        fault_map = FaultMap(
            small_org,
            [
                FaultSite(0, 0, FaultKind.STUCK_AT_ONE),
                FaultSite(1, 5, FaultKind.STUCK_AT_ZERO),
            ],
        )
        result = run_march_test(SramArray(small_org, fault_map))
        assert set(result.faulty_cells) == {(0, 0), (1, 5)}

    def test_classifies_fault_kinds(self, small_org):
        fault_map = FaultMap(
            small_org,
            [
                FaultSite(0, 0, FaultKind.STUCK_AT_ONE),
                FaultSite(1, 5, FaultKind.STUCK_AT_ZERO),
                FaultSite(2, 9, FaultKind.BIT_FLIP),
            ],
        )
        result = run_march_test(SramArray(small_org, fault_map))
        assert result.inferred_kinds[(0, 0)] is FaultKind.STUCK_AT_ONE
        assert result.inferred_kinds[(1, 5)] is FaultKind.STUCK_AT_ZERO
        assert result.inferred_kinds[(2, 9)] is FaultKind.BIT_FLIP

    def test_bist_leaves_array_cleared(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 0)])
        array = SramArray(small_org, fault_map)
        array.write_word(5, 0x1234)
        run_march_test(array)
        assert array.read_word(5) == 0


class TestAlgorithms:
    def test_march_cminus_costs_more_operations(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 0)])
        mats = run_march_test(
            SramArray(small_org, fault_map), MarchAlgorithm.MATS_PLUS
        )
        cminus = run_march_test(
            SramArray(small_org, fault_map), MarchAlgorithm.MARCH_CMINUS
        )
        assert cminus.operations == 2 * mats.operations
        assert mats.faulty_cells == cminus.faulty_cells

    def test_operation_count_scales_with_rows(self):
        small = MemoryOrganization(rows=8, word_width=8)
        large = MemoryOrganization(rows=16, word_width=8)
        ops_small = run_march_test(SramArray(small), MarchAlgorithm.MATS_PLUS).operations
        ops_large = run_march_test(SramArray(large), MarchAlgorithm.MATS_PLUS).operations
        assert ops_large == 2 * ops_small


class TestBistResult:
    def test_faulty_columns_by_row(self):
        result = BistResult(
            algorithm=MarchAlgorithm.MATS_PLUS,
            faulty_cells=[(1, 3), (1, 0), (2, 7)],
        )
        assert result.faulty_columns_by_row() == {1: [0, 3], 2: [7]}

    def test_to_fault_map_roundtrip(self, small_org, rng):
        original = FaultMap.random_with_count(small_org, 12, rng)
        result = run_march_test(SramArray(small_org, original))
        recovered = result.to_fault_map(small_org)
        assert sorted((f.row, f.column) for f in recovered) == sorted(
            (f.row, f.column) for f in original
        )

    def test_fault_count_property(self):
        result = BistResult(MarchAlgorithm.MATS_PLUS, [(0, 0), (1, 1)])
        assert result.fault_count == 2
