"""Tests for the spare row/column redundancy repair substrate."""

from __future__ import annotations

import pytest

from repro.memory.faults import FaultMap, FaultSite
from repro.memory.redundancy import (
    RedundancyRepair,
    repair_yield,
    spares_for_yield_target,
)


class TestRepairAllocation:
    def test_fault_free_die_needs_no_spares(self, small_org):
        result = RedundancyRepair(spare_rows=0).repair(FaultMap.empty(small_org))
        assert result.repaired
        assert len(result.row_replacements) == 0

    def test_single_fault_repaired_by_one_row(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(3, 31)])
        result = RedundancyRepair(spare_rows=1).repair(fault_map)
        assert result.repaired
        assert result.row_replacements == {3: 0}

    def test_insufficient_spares_leaves_faults(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(1, 0), (2, 0), (3, 0)])
        result = RedundancyRepair(spare_rows=2).repair(fault_map)
        assert not result.repaired
        assert len(result.uncovered_faults) == 1

    def test_column_spares_cover_shared_column(self, small_org):
        # Three faults in the same column need only one spare column.
        fault_map = FaultMap.from_cells(small_org, [(1, 5), (2, 5), (3, 5)])
        result = RedundancyRepair(spare_rows=0, spare_columns=1).repair(fault_map)
        assert result.repaired
        assert len(result.column_replacements) == 1

    def test_rows_with_most_faults_replaced_first(self, small_org):
        fault_map = FaultMap.from_cells(
            small_org, [(1, 0), (1, 1), (1, 2), (2, 7)]
        )
        result = RedundancyRepair(spare_rows=1, spare_columns=1).repair(fault_map)
        assert result.repaired
        assert 1 in result.row_replacements
        assert 7 in result.column_replacements

    def test_mixed_row_and_column_repair(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(1, 0), (2, 9), (5, 9)])
        result = RedundancyRepair(spare_rows=1, spare_columns=1).repair(fault_map)
        assert result.repaired

    def test_rejects_negative_spares(self):
        with pytest.raises(ValueError):
            RedundancyRepair(spare_rows=-1)


class TestRemainingFaults:
    """Property tests of the post-repair fault map the scenario pipeline uses."""

    def _random_maps(self, org, rng, n_maps=50, max_faults=24):
        for _ in range(n_maps):
            count = int(rng.integers(0, max_faults + 1))
            yield FaultMap.random_with_count(org, count, rng)

    def test_repair_never_increases_fault_count(self, small_org, rng):
        for spare_rows, spare_columns in ((0, 0), (2, 0), (0, 2), (3, 2)):
            repair = RedundancyRepair(spare_rows, spare_columns)
            for fault_map in self._random_maps(small_org, rng):
                remaining = repair.remaining_faults(fault_map)
                assert remaining.fault_count <= fault_map.fault_count

    def test_mass_conservation_of_unrepaired_faults(self, small_org, rng):
        # Every input fault is either covered by a replaced row/column or
        # present, unchanged, in the post-repair map -- nothing is created,
        # duplicated, or silently dropped.
        repair = RedundancyRepair(spare_rows=2, spare_columns=1)
        for fault_map in self._random_maps(small_org, rng):
            result = repair.repair(fault_map)
            remaining = repair.remaining_faults(fault_map)
            all_cells = {(f.row, f.column) for f in fault_map}
            remaining_cells = {(f.row, f.column) for f in remaining}
            covered = {
                (row, column)
                for (row, column) in all_cells
                if row in result.row_replacements
                or column in result.column_replacements
            }
            assert remaining_cells == set(result.uncovered_faults)
            assert remaining_cells | covered == all_cells
            assert remaining_cells & covered == set()
            assert len(remaining_cells) + len(covered) == fault_map.fault_count

    def test_remaining_faults_preserve_kind(self, small_org):
        from repro.memory.faults import FaultKind

        fault_map = FaultMap(
            small_org,
            [
                FaultSite(1, 0, FaultKind.STUCK_AT_ONE),
                FaultSite(1, 1, FaultKind.STUCK_AT_ZERO),
                FaultSite(5, 9, FaultKind.STUCK_AT_ZERO),
            ],
        )
        # One spare row removes row 1; the row-5 stuck-at-0 survives as-is.
        remaining = RedundancyRepair(spare_rows=1).remaining_faults(fault_map)
        assert [(f.row, f.column, f.kind) for f in remaining] == [
            (5, 9, FaultKind.STUCK_AT_ZERO)
        ]

    def test_full_repair_leaves_empty_map(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 0), (8, 17)])
        remaining = RedundancyRepair(spare_rows=2).remaining_faults(fault_map)
        assert remaining.fault_count == 0


class TestRepairYield:
    def test_zero_spares_equals_zero_failure_yield(self, paper_org):
        p_cell = 1e-5
        assert repair_yield(paper_org, p_cell, 0) == pytest.approx(
            (1 - p_cell) ** paper_org.total_cells, rel=1e-9
        )

    def test_more_spares_never_reduce_yield(self, paper_org):
        p_cell = 5e-5
        values = [repair_yield(paper_org, p_cell, s) for s in (0, 2, 8, 32)]
        assert values == sorted(values)

    def test_yield_bounded_by_one(self, paper_org):
        assert repair_yield(paper_org, 1e-6, 100) <= 1.0

    def test_rejects_invalid_arguments(self, paper_org):
        with pytest.raises(ValueError):
            repair_yield(paper_org, 1.5, 1)
        with pytest.raises(ValueError):
            repair_yield(paper_org, 0.1, -1)


class TestSparesForYieldTarget:
    def test_low_pcell_needs_few_spares(self, paper_org):
        assert spares_for_yield_target(paper_org, 1e-7, 0.99) <= 2

    def test_required_spares_explode_with_pcell(self, paper_org):
        """Section 2: redundancy cost "increases tremendously" at scaled voltages."""
        low = spares_for_yield_target(paper_org, 5e-6, 0.99)
        high = spares_for_yield_target(paper_org, 1e-3, 0.99)
        assert high > 20 * max(low, 1)
        assert high > 130  # around the mean failure count at Pcell = 1e-3

    def test_rejects_bad_target(self, paper_org):
        with pytest.raises(ValueError):
            spares_for_yield_target(paper_org, 1e-4, 1.0)

    def test_unreachable_target_raises(self, small_org):
        with pytest.raises(RuntimeError):
            spares_for_yield_target(small_org, 0.9, 0.999999, max_spares=1)
