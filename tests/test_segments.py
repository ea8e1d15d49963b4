"""Tests for the segment arithmetic (Eqs. 1-2, Fig. 4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.segments import (
    error_magnitude_for_fault,
    error_magnitude_profile,
    max_lut_bits,
    rotation_amount,
    segment_index,
    segment_size,
    unprotected_error_magnitude_profile,
    worst_case_error_magnitude,
)


class TestSegmentSize:
    def test_equation_one(self):
        # Eq. 1: S = W / 2**nFM for a 32-bit word.
        assert segment_size(32, 1) == 16
        assert segment_size(32, 2) == 8
        assert segment_size(32, 3) == 4
        assert segment_size(32, 4) == 2
        assert segment_size(32, 5) == 1

    def test_max_lut_bits(self):
        assert max_lut_bits(32) == 5
        assert max_lut_bits(16) == 4
        assert max_lut_bits(8) == 3

    def test_max_lut_bits_matches_ceil_log2(self):
        for word_width in range(1, 257):
            assert max_lut_bits(word_width) == int(np.ceil(np.log2(word_width)))

    def test_rejects_out_of_range_nfm(self):
        with pytest.raises(ValueError):
            segment_size(32, 0)
        with pytest.raises(ValueError):
            segment_size(32, 6)

    def test_rejects_non_divisible_word(self):
        with pytest.raises(ValueError):
            segment_size(24, 4)  # 24 / 16 is not an integer

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            max_lut_bits(0)


class TestSegmentIndex:
    def test_single_bit_segments(self):
        # nFM = 5 on 32 bits: the segment index is the bit position itself.
        for column in range(32):
            assert segment_index(column, 32, 5) == column

    def test_half_word_segments(self):
        assert segment_index(0, 32, 1) == 0
        assert segment_index(15, 32, 1) == 0
        assert segment_index(16, 32, 1) == 1
        assert segment_index(31, 32, 1) == 1

    def test_rejects_out_of_range_column(self):
        with pytest.raises(ValueError):
            segment_index(32, 32, 1)
        with pytest.raises(ValueError):
            segment_index(-1, 32, 1)


class TestRotationAmount:
    def test_paper_example_bottom_word(self):
        # W=32, nFM=5, fault in bit 3 -> xFM=3 -> T = 1*(32-3) = 29 (Section 3).
        assert rotation_amount(3, 32, 5) == 29

    def test_zero_entry_means_no_rotation(self):
        for n_fm in range(1, 6):
            assert rotation_amount(0, 32, n_fm) == 0

    def test_equation_two_general(self):
        # T = S * (2**nFM - xFM) mod W.
        for n_fm in range(1, 6):
            s = segment_size(32, n_fm)
            for x_fm in range(1 << n_fm):
                expected = (s * ((1 << n_fm) - x_fm)) % 32
                assert rotation_amount(x_fm, 32, n_fm) == expected

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError):
            rotation_amount(2, 32, 1)
        with pytest.raises(ValueError):
            rotation_amount(-1, 32, 1)


class TestErrorMagnitude:
    def test_nfm5_always_one(self):
        profile = error_magnitude_profile(32, 5)
        assert np.all(profile == 1.0)

    def test_bound_matches_segment_size(self):
        # Worst case error is 2**(S-1) for every nFM (Section 3).
        assert worst_case_error_magnitude(32, 1) == 2 ** 15
        assert worst_case_error_magnitude(32, 2) == 2 ** 7
        assert worst_case_error_magnitude(32, 3) == 2 ** 3
        assert worst_case_error_magnitude(32, 4) == 2 ** 1
        assert worst_case_error_magnitude(32, 5) == 2 ** 0

    def test_profile_never_exceeds_bound(self):
        for n_fm in range(1, 6):
            profile = error_magnitude_profile(32, n_fm)
            assert profile.max() == worst_case_error_magnitude(32, n_fm)

    def test_profile_is_periodic_in_segment(self):
        for n_fm in range(1, 6):
            s = segment_size(32, n_fm)
            profile = error_magnitude_profile(32, n_fm)
            for column in range(32):
                assert profile[column] == 2 ** (column % s)

    def test_unprotected_profile_is_exponential(self):
        profile = unprotected_error_magnitude_profile(32)
        assert profile[0] == 1
        assert profile[31] == 2 ** 31

    def test_larger_nfm_never_worse(self):
        # Fig. 4: increasing the LUT granularity never increases the error.
        for column in range(32):
            magnitudes = [
                error_magnitude_for_fault(column, 32, n_fm) for n_fm in range(1, 6)
            ]
            assert magnitudes == sorted(magnitudes, reverse=True)

    def test_rejects_out_of_range_column(self):
        with pytest.raises(ValueError):
            error_magnitude_for_fault(32, 32, 1)

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=31),
    )
    def test_shuffled_error_never_exceeds_unprotected(self, n_fm, column):
        assert error_magnitude_for_fault(column, 32, n_fm) <= 2 ** column
