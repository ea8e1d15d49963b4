"""Tests for fault maps and fault-site semantics."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.faults import FaultKind, FaultMap, FaultSite, _invalid_map_mask
from repro.memory.organization import MemoryOrganization


class TestFaultSite:
    def test_defaults_to_bit_flip(self):
        site = FaultSite(1, 2)
        assert site.kind is FaultKind.BIT_FLIP

    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValueError):
            FaultSite(-1, 0)
        with pytest.raises(ValueError):
            FaultSite(0, -1)


class TestFaultMapConstruction:
    def test_empty_map(self, small_org):
        fault_map = FaultMap.empty(small_org)
        assert fault_map.fault_count == 0
        assert fault_map.faulty_rows() == []
        assert not list(fault_map)

    def test_from_cells(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 1), (5, 31)])
        assert fault_map.fault_count == 2
        assert (0, 1) in fault_map
        assert (5, 31) in fault_map
        assert (0, 2) not in fault_map

    def test_duplicate_cells_rejected(self, small_org):
        with pytest.raises(ValueError):
            FaultMap.from_cells(small_org, [(0, 1), (0, 1)])

    def test_out_of_range_row_rejected(self, small_org):
        with pytest.raises(IndexError):
            FaultMap.from_cells(small_org, [(small_org.rows, 0)])

    def test_out_of_range_column_rejected(self, small_org):
        with pytest.raises(IndexError):
            FaultMap.from_cells(small_org, [(0, small_org.word_width)])


class TestFromCellArrays:
    CELLS = [(5, 3), (0, 31), (63, 0), (5, 1), (17, 17)]

    def test_matches_from_cells_in_insertion_order(self, small_org):
        rows, columns = zip(*self.CELLS)
        built = FaultMap.from_cell_arrays(
            small_org, np.array(rows), np.array(columns), FaultKind.STUCK_AT_ONE
        )
        reference = FaultMap.from_cells(
            small_org, self.CELLS, kind=FaultKind.STUCK_AT_ONE
        )
        assert list(built._faults.items()) == list(reference._faults.items())

    @pytest.mark.parametrize(
        "convert",
        [
            lambda values: np.array(values, dtype=np.int32),
            lambda values: np.array(values, dtype=np.int64),
            list,
        ],
        ids=["int32", "int64", "list"],
    )
    def test_keys_are_python_ints(self, small_org, convert):
        rows, columns = zip(*self.CELLS)
        fault_map = FaultMap.from_cell_arrays(
            small_org, convert(rows), convert(columns)
        )
        assert list(fault_map._faults) == self.CELLS
        for (row, column), kind in fault_map._faults.items():
            assert type(row) is int and type(column) is int
            assert kind is FaultKind.BIT_FLIP
        for site in fault_map:
            assert type(site.row) is int and type(site.column) is int

    @pytest.mark.parametrize(
        "rows, columns, error, message",
        [
            ([1, -1], [0, 0], IndexError, r"^row out of range \[0, 64\)$"),
            ([1, 64], [0, 0], IndexError, r"^row out of range \[0, 64\)$"),
            ([1, 2], [0, -1], IndexError, r"^column out of range \[0, 32\)$"),
            ([1, 2], [0, 32], IndexError, r"^column out of range \[0, 32\)$"),
            (
                [1, 4, 1],
                [7, 0, 7],
                ValueError,
                r"^duplicate fault cell in rows/columns arrays$",
            ),
            (
                [1, 2],
                [0],
                ValueError,
                r"^rows and columns must have equal shapes$",
            ),
        ],
        ids=[
            "negative-row",
            "row-too-large",
            "negative-column",
            "column-too-large",
            "duplicate",
            "shape-mismatch",
        ],
    )
    def test_invalid_cells_rejected(self, small_org, rows, columns, error, message):
        with pytest.raises(error, match=message):
            FaultMap.from_cell_arrays(small_org, np.array(rows), np.array(columns))

    def test_empty_arrays_give_empty_map(self, small_org):
        empty = np.array([], dtype=np.int64)
        fault_map = FaultMap.from_cell_arrays(small_org, empty, empty)
        assert fault_map.fault_count == 0
        assert fault_map._faults == {}


class TestFaultMapQueries:
    def test_faults_in_row_sorted(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(2, 7), (2, 3), (4, 0)])
        columns = [f.column for f in fault_map.faults_in_row(2)]
        assert columns == [3, 7]

    def test_faulty_columns_by_row(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(2, 7), (2, 3), (4, 0)])
        assert fault_map.faulty_columns_by_row() == {2: [3, 7], 4: [0]}
        # Rows in first-fault order; each row's columns sorted.
        fault_map = FaultMap.from_cells(
            small_org, [(9, 31), (5, 1), (9, 2), (9, 0), (1, 4)]
        )
        by_row = fault_map.faulty_columns_by_row()
        assert list(by_row.items()) == [(9, [0, 2, 31]), (5, [1]), (1, [4])]
        assert list(fault_map.row_masks()) == [9, 5, 1]

    def test_max_faults_per_row(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(2, 7), (2, 3), (4, 0)])
        assert fault_map.max_faults_per_row() == 2
        assert FaultMap.empty(small_org).max_faults_per_row() == 0

    def test_bit_positions(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(2, 7), (4, 0), (9, 31)])
        assert fault_map.bit_positions().tolist() == [0, 7, 31]

    def test_fault_at(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(1, 1)])
        assert (1, 1) in fault_map
        assert (1, 2) not in fault_map

    def test_iteration_is_sorted(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(5, 0), (1, 3), (1, 1)])
        coords = [(f.row, f.column) for f in fault_map]
        assert coords == [(1, 1), (1, 3), (5, 0)]


class TestCorruption:
    def test_bit_flip(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 4)], kind=FaultKind.BIT_FLIP)
        assert fault_map.corrupt_word(0, 0) == 1 << 4
        assert fault_map.corrupt_word(0, 1 << 4) == 0

    def test_stuck_at_one(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 4)], kind=FaultKind.STUCK_AT_ONE)
        assert fault_map.corrupt_word(0, 0) == 1 << 4
        assert fault_map.corrupt_word(0, 1 << 4) == 1 << 4

    def test_stuck_at_zero(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 4)], kind=FaultKind.STUCK_AT_ZERO)
        assert fault_map.corrupt_word(0, 1 << 4) == 0
        assert fault_map.corrupt_word(0, 0) == 0

    def test_healthy_row_untouched(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 4)])
        assert fault_map.corrupt_word(1, 0xDEADBEEF) == 0xDEADBEEF

    def test_multiple_faults_in_row(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 0), (0, 31)])
        assert fault_map.corrupt_word(0, 0) == (1 << 31) | 1

    def test_rejects_oversized_pattern(self, small_org):
        fault_map = FaultMap.empty(small_org)
        with pytest.raises(ValueError):
            fault_map.corrupt_word(0, 1 << 32)

    def test_flip_masks(self, small_org):
        """Bit-flip cells land in the flip masks; the stuck-at masks stay empty."""
        fault_map = FaultMap.from_cells(small_org, [(0, 0), (3, 5)])
        masks = fault_map.row_masks()
        assert masks[0][2] == 1
        assert masks[3][2] == 1 << 5
        assert 1 not in masks
        assert all(zero == 0 and one == 0 for zero, one, _flip in masks.values())
        assert masks == {0: [0, 0, 1], 3: [0, 0, 1 << 5]}

    def test_flip_masks_rejects_stuck_faults(self, small_org):
        """Stuck-at cells never enter the flip masks: they go to zero and one."""
        fault_map = FaultMap(
            small_org,
            [
                FaultSite(0, 0, FaultKind.STUCK_AT_ONE),
                FaultSite(0, 4, FaultKind.STUCK_AT_ZERO),
                FaultSite(2, 1, FaultKind.BIT_FLIP),
            ],
        )
        masks = fault_map.row_masks()
        assert masks[0][2] == 0 and masks[2][2] == 0b10
        assert masks[0][1] == 1
        assert masks[0][0] == 1 << 4
        assert masks == {0: [1 << 4, 1, 0], 2: [0, 0, 0b10]}


class TestStringKinds:
    """A kind given by its string value behaves exactly like the enum member."""

    def test_string_stuck_at_zero_clears_the_bit(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 1)], kind="stuck_at_zero")
        zero, one, flip = fault_map.row_masks()[0]
        assert zero == 0b10
        assert one == 0 and flip == 0
        assert fault_map.corrupt_word(0, 0b10) == 0
        assert fault_map.to_dict()["faults"] == [
            {"row": 0, "column": 1, "kind": "stuck_at_zero"}
        ]

    def test_cell_arrays_coerce_the_kind(self, small_org):
        fault_map = FaultMap.from_cell_arrays(
            small_org, np.array([2, 0]), np.array([5, 1]), "stuck_at_one"
        )
        assert fault_map._faults == {
            (2, 5): FaultKind.STUCK_AT_ONE,
            (0, 1): FaultKind.STUCK_AT_ONE,
        }
        assert fault_map.faults_in_row(2)[0].kind is FaultKind.STUCK_AT_ONE

    def test_string_bit_flip_has_flip_masks(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(3, 5)], kind="bit_flip")
        assert fault_map.row_masks()[3][2] == 1 << 5

    def test_unknown_kind_rejected(self, small_org):
        with pytest.raises(ValueError):
            FaultSite(0, 0, "stuck")
        with pytest.raises(ValueError):
            FaultMap.from_cells(small_org, [(0, 0)], kind="stuck")
        with pytest.raises(ValueError):
            FaultMap.from_cell_arrays(
                small_org, np.array([0]), np.array([0]), "stuck"
            )


class TestRandomGeneration:
    def test_exact_count(self, small_org, rng):
        fault_map = FaultMap.random_with_count(small_org, 10, rng)
        assert fault_map.fault_count == 10

    def test_zero_count(self, small_org, rng):
        assert FaultMap.random_with_count(small_org, 0, rng).fault_count == 0

    def test_count_exceeding_cells_rejected(self, tiny_org, rng):
        with pytest.raises(ValueError):
            FaultMap.random_with_count(tiny_org, tiny_org.total_cells + 1, rng)

    def test_negative_count_rejected(self, small_org, rng):
        with pytest.raises(ValueError):
            FaultMap.random_with_count(small_org, -1, rng)

    def test_all_cells_faulty(self, tiny_org, rng):
        fault_map = FaultMap.random_with_count(tiny_org, tiny_org.total_cells, rng)
        assert fault_map.fault_count == tiny_org.total_cells

    def test_pcell_binomial_mean(self, rng):
        org = MemoryOrganization(rows=256, word_width=32)
        counts = [
            FaultMap.random_with_pcell(org, 0.01, rng).fault_count for _ in range(50)
        ]
        mean = np.mean(counts)
        expected = org.total_cells * 0.01
        assert abs(mean - expected) < 0.3 * expected

    def test_pcell_out_of_range(self, small_org, rng):
        with pytest.raises(ValueError):
            FaultMap.random_with_pcell(small_org, 1.5, rng)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("count", [0, 1, 5, 40])
    def test_legacy_stream_pinned(self, small_org, seed, count):
        # Pinned goldens depend on this stream: one choice() without
        # replacement, cells split row-major, kept in draw order.
        fault_map = FaultMap.random_with_count(
            small_org, count, np.random.default_rng(seed)
        )
        flat = np.random.default_rng(seed).choice(
            small_org.total_cells, count, replace=False
        )
        width = small_org.word_width
        assert list(fault_map._faults) == [
            (int(cell) // width, int(cell) % width) for cell in flat
        ]

    def test_reproducible_with_seed(self, small_org):
        a = FaultMap.random_with_count(small_org, 5, np.random.default_rng(1))
        b = FaultMap.random_with_count(small_org, 5, np.random.default_rng(1))
        assert [(f.row, f.column) for f in a] == [(f.row, f.column) for f in b]


class TestLegacyBatchStream:
    """``vectorized=False`` is the stream of one ``random_with_count`` per map."""

    #: 1024 one-fault-per-word slots: 40 faults collide in a row about half
    #: the time, so the rejection branch redraws often.
    ORG = MemoryOrganization(rows=1024, word_width=16)

    @pytest.mark.parametrize("max_faults_per_word", [None, 1])
    @pytest.mark.parametrize("batch_size", [0, 1, 7])
    @pytest.mark.parametrize("count", [0, 1, 2, 9, 40])
    def test_matches_per_map_loop(self, count, batch_size, max_faults_per_word):
        batch_rng, loop_rng = np.random.default_rng(21), np.random.default_rng(21)
        batch = FaultMap.random_batch_with_count(
            self.ORG, count, batch_size, batch_rng,
            max_faults_per_word=max_faults_per_word, vectorized=False,
        )
        expected = []
        for _ in range(batch_size):
            candidate = FaultMap.random_with_count(self.ORG, count, loop_rng)
            while (
                max_faults_per_word is not None
                and candidate.max_faults_per_row() > max_faults_per_word
            ):
                candidate = FaultMap.random_with_count(self.ORG, count, loop_rng)
            expected.append(candidate)
        assert [list(m._faults.items()) for m in batch] == [
            list(m._faults.items()) for m in expected
        ]
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_drawn_cells_stay_checked(self, small_org):
        # Drawn maps skip __init__, but a repeated or out-of-range cell
        # still raises.
        kind = FaultKind.BIT_FLIP
        with pytest.raises(ValueError, match="duplicate"):
            FaultMap._from_drawn_cells(small_org, np.array([[3, 5], [7, 7]]), kind)
        for cell in (-1, small_org.total_cells):
            with pytest.raises(IndexError):
                FaultMap._from_drawn_cells(small_org, np.array([[0, cell]]), kind)


def _reference_invalid(draws, width, max_faults_per_word):
    """Per-map loop: a map is invalid if it repeats a cell or packs more than
    ``max_faults_per_word`` faults into one ``width``-bit word."""
    invalid = []
    for cells in draws.tolist():
        per_word = Counter(cell // width for cell in cells)
        invalid.append(
            len(set(cells)) < len(cells)
            or (
                max_faults_per_word is not None
                and max(per_word.values(), default=0) > max_faults_per_word
            )
        )
    return invalid


class TestBatchValidityCheck:
    """The vectorised sampler's validity check against a per-map loop."""

    @given(
        fault_count=st.integers(min_value=1, max_value=12),
        max_faults_per_word=st.sampled_from([None, 1, 2, 3]),
        width=st.sampled_from([1, 4, 8, 32]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_map_reference(self, fault_count, max_faults_per_word, width, seed):
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, 6 * width, size=(40, fault_count))
        # Forced collisions: a repeated cell, consecutive cells filling the
        # first words, and distinct cells of one word.
        draws[0, -1] = draws[0, 0]
        draws[1] = np.arange(fault_count)
        draws[2] = 3 * width + np.arange(fault_count) % width
        got = _invalid_map_mask(draws, width, max_faults_per_word)
        assert got.dtype == bool
        assert got.tolist() == _reference_invalid(draws, width, max_faults_per_word)

    @pytest.mark.parametrize("max_faults_per_word", [None, 1, 2, 3])
    @pytest.mark.parametrize("fault_count", [0, 1, 9])
    def test_sampled_maps_pass_the_reference(self, fault_count, max_faults_per_word):
        org = MemoryOrganization(rows=64, word_width=8)
        batch = FaultMap.random_batch_with_count(
            org, fault_count, 20, np.random.default_rng(3),
            max_faults_per_word=max_faults_per_word,
        )
        cells = np.array(
            [[row * 8 + column for row, column in m.cells()] for m in batch],
            dtype=np.int64,
        ).reshape(20, fault_count)
        assert not any(_reference_invalid(cells, 8, max_faults_per_word))


class TestSerialization:
    def test_roundtrip_dict(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(1, 2), (3, 4)])
        restored = FaultMap.from_dict(fault_map.to_dict())
        assert [(f.row, f.column) for f in restored] == [(1, 2), (3, 4)]
        assert restored.organization == small_org

    def test_roundtrip_json(self, small_org):
        fault_map = FaultMap.from_cells(
            small_org, [(0, 0)], kind=FaultKind.STUCK_AT_ONE
        )
        restored = FaultMap.from_json(fault_map.to_json())
        assert restored.faults_in_row(0)[0].kind is FaultKind.STUCK_AT_ONE

    @given(st.integers(min_value=0, max_value=30))
    def test_roundtrip_preserves_count(self, count):
        org = MemoryOrganization(rows=16, word_width=16)
        rng = np.random.default_rng(count)
        fault_map = FaultMap.random_with_count(org, count, rng)
        assert FaultMap.from_json(fault_map.to_json()).fault_count == count
