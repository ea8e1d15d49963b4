"""Tests for the paper's bit-shuffling protection scheme."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scheme import BitShuffleScheme
from repro.core.segments import (
    segment_index,
    segment_size,
    worst_case_error_magnitude,
)
from repro.memory.words import from_twos_complement


class TestParameters:
    def test_name_and_overhead(self):
        scheme = BitShuffleScheme(32, 3)
        assert scheme.name == "bit-shuffle-nfm3"
        assert scheme.extra_columns == 3
        assert scheme.storage_width == 35
        assert scheme.segment_size == 4
        # Only a non-default multi-fault policy enters the name.
        minimax = BitShuffleScheme(32, 3, multi_fault_policy="minimax")
        assert minimax.name == "bit-shuffle-nfm3-minimax"

    def test_rejects_invalid_nfm(self):
        with pytest.raises(ValueError):
            BitShuffleScheme(32, 0)
        with pytest.raises(ValueError):
            BitShuffleScheme(32, 6)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            BitShuffleScheme(32, 1, multi_fault_policy="bogus")

    def test_lut_requires_rows(self):
        scheme = BitShuffleScheme(32, 1)
        with pytest.raises(RuntimeError):
            _ = scheme.lut

    def test_attach_rows_creates_lut(self):
        scheme = BitShuffleScheme(32, 1, rows=16)
        assert scheme.lut.rows == 16


class TestProgramming:
    def test_program_sets_lut_entries(self):
        scheme = BitShuffleScheme(32, 5, rows=8)
        scheme.lut.program_entries([1], [7])  # stale entry of a now-healthy row
        scheme.program({1: [], 2: [3], 5: [31]})
        assert scheme.lut.entry(2) == 3
        assert scheme.lut.entry(5) == 31
        assert scheme.lut.entry(0) == 0
        assert scheme.lut.entry(1) == 0

    def test_reprogramming_clears_previous_die(self):
        scheme = BitShuffleScheme(32, 5, rows=8)
        scheme.program({2: [3]})
        scheme.lut.program_entries([2, 7], [scheme.lut.entry(2), 9])
        scheme.program({0: [31], 4: [1], 3: [0]})
        assert scheme.lut.entries().tolist() == [31, 0, 0, 0, 1, 0, 0, 0]

    @example(n_fm=2, rows={0: [2, 30]})  # bit 30 lies in segment 3 of four
    @given(
        n_fm=st.integers(min_value=1, max_value=5),
        rows=st.dictionaries(
            st.integers(min_value=0, max_value=7),
            st.lists(
                st.integers(min_value=0, max_value=31), min_size=1, max_size=4,
                unique=True,
            ),
            max_size=8,
        ),
    )
    def test_most_significant_entries_match_segment_index(self, n_fm, rows):
        scheme = BitShuffleScheme(32, n_fm, rows=8)
        scheme.program(rows)
        expected = [
            segment_index(max(rows[row]), 32, n_fm) if row in rows else 0
            for row in range(8)
        ]
        assert scheme.lut.entries().tolist() == expected


    @pytest.mark.parametrize("policy", ["most-significant", "minimax"])
    @pytest.mark.parametrize("columns", [[32], [-1], [3, 40]])
    def test_program_rejects_out_of_range_columns(self, policy, columns):
        scheme = BitShuffleScheme(32, 2, rows=8, multi_fault_policy=policy)
        with pytest.raises(ValueError, match="fault column"):
            scheme.program({1: [0], 2: columns})

    def test_minimax_program_uses_the_minimax_entry(self):
        scheme = BitShuffleScheme(32, 2, rows=4, multi_fault_policy="minimax")
        faults = {0: [7, 31], 2: [], 3: [12]}
        scheme.program(faults)
        expected = [scheme._select_entry(faults.get(row, [])) for row in range(4)]
        assert scheme.lut.entries().tolist() == expected


class TestForDie:
    def test_returns_a_programmed_copy_and_leaves_the_caller_alone(self):
        scheme = BitShuffleScheme(32, 2, rows=4)
        scheme.program({1: [31]})
        die = scheme.for_die(8, {0: [31], 5: [9]})
        assert die is not scheme
        assert die.lut is not scheme.lut
        assert die.lut.entries().tolist() == [3, 0, 0, 0, 0, 1, 0, 0]
        assert scheme.lut.entries().tolist() == [0, 3, 0, 0]

    def test_copies_do_not_share_lut_state(self):
        scheme = BitShuffleScheme(32, 3, multi_fault_policy="minimax")
        first = scheme.for_die(4, {2: [30]})
        second = scheme.for_die(4, {})
        assert first.name == second.name == scheme.name
        assert first.lut.entry(2) == 7
        assert second.lut.entries().tolist() == [0, 0, 0, 0]


class TestOperationalPath:
    def test_clean_row_roundtrip(self):
        scheme = BitShuffleScheme(32, 2, rows=8)
        stored = scheme.encode_word(0, 0xCAFEBABE)
        assert scheme.decode_word(0, stored) == 0xCAFEBABE

    def test_encode_embeds_lut_entry_in_extra_columns(self):
        scheme = BitShuffleScheme(32, 5, rows=8)
        scheme.program({1: [31]})
        stored = scheme.encode_word(1, 0)
        assert stored >> 32 == 31

    def test_paper_example_lsb_moves_to_faulty_msb(self):
        # Fig. 3 top word: fault in bit 31, nFM=5 -> the LSB is stored at
        # bit position 31 of the memory word.
        scheme = BitShuffleScheme(32, 5, rows=4)
        scheme.program({0: [31]})
        stored = scheme.encode_word(0, 0x00000001)
        assert (stored & 0xFFFFFFFF) == 0x80000000

    def test_paper_example_bottom_word_rotation(self):
        # Fig. 3 bottom word: fault in bit 3, nFM=5 -> rotate right by 29.
        scheme = BitShuffleScheme(32, 5, rows=4)
        scheme.program({0: [3]})
        assert scheme.lut.rotation(0) == 29

    def test_single_fault_error_is_bounded(self):
        for n_fm in range(1, 6):
            scheme = BitShuffleScheme(32, n_fm, rows=4)
            bound = worst_case_error_magnitude(32, n_fm)
            for fault_column in range(32):
                scheme.program({0: [fault_column]})
                data = 0xA5A5A5A5
                stored = scheme.encode_word(0, data)
                corrupted = stored ^ (1 << fault_column)
                recovered = scheme.decode_word(0, corrupted)
                error = abs(
                    from_twos_complement(recovered, 32)
                    - from_twos_complement(data, 32)
                )
                assert error <= bound

    def test_rejects_oversized_stored_pattern(self):
        scheme = BitShuffleScheme(32, 1, rows=4)
        with pytest.raises(ValueError):
            scheme.decode_word(0, 1 << 33)

    @given(
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60)
    def test_roundtrip_with_programmed_fault(self, data, fault_column, n_fm):
        scheme = BitShuffleScheme(32, n_fm, rows=4)
        scheme.program({0: [fault_column]})
        assert scheme.decode_word(0, scheme.encode_word(0, data)) == data


class TestAnalyticalView:
    def test_single_fault_residual_is_in_lowest_segment(self):
        for n_fm in range(1, 6):
            scheme = BitShuffleScheme(32, n_fm)
            s = segment_size(32, n_fm)
            for fault_column in range(32):
                positions = scheme.residual_error_positions(0, [fault_column])
                assert positions == [fault_column % s]

    def test_empty_faults_give_no_residual(self):
        assert BitShuffleScheme(32, 2).residual_error_positions(0, []) == []

    def test_worst_case_matches_equation(self):
        for n_fm in range(1, 6):
            scheme = BitShuffleScheme(32, n_fm)
            worst = max(
                scheme.worst_case_error_magnitude(column) for column in range(32)
            )
            assert worst == worst_case_error_magnitude(32, n_fm)

    def test_most_significant_policy_neutralises_biggest_fault(self):
        scheme = BitShuffleScheme(32, 1, multi_fault_policy="most-significant")
        positions = scheme.residual_error_positions(0, [5, 30])
        # nFM=1 -> segments of 16; the fault at bit 30 selects segment 1 and a
        # rotation of 16, so it lands at logical bit 14 while the fault at bit
        # 5 wraps to logical bit 21.
        assert positions == [14, 21]

    def test_minimax_policy_never_worse_than_most_significant(self):
        greedy = BitShuffleScheme(32, 2, multi_fault_policy="most-significant")
        minimax = BitShuffleScheme(32, 2, multi_fault_policy="minimax")
        fault_sets = [[1, 30], [2, 17], [0, 8, 24], [15, 16], [7, 9, 28]]
        for faults in fault_sets:
            worst_greedy = max(greedy.residual_error_positions(0, faults))
            worst_minimax = max(minimax.residual_error_positions(0, faults))
            assert worst_minimax <= worst_greedy

    def test_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            BitShuffleScheme(32, 1).residual_error_positions(0, [40])
