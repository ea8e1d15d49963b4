"""Unit and property tests for the bit-level word codecs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.words import (
    bit_mask,
    clear_bit,
    flip_bit,
    from_bit_array,
    from_twos_complement,
    from_twos_complement_array,
    get_bit,
    popcount,
    rotate_left,
    rotate_left_array,
    rotate_right,
    rotate_right_array,
    set_bit,
    to_bit_array,
    to_twos_complement,
    to_twos_complement_array,
)


class TestBitMask:
    def test_zero_width(self):
        assert bit_mask(0) == 0

    def test_small_widths(self):
        assert bit_mask(1) == 1
        assert bit_mask(8) == 0xFF
        assert bit_mask(32) == 0xFFFFFFFF

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            bit_mask(-1)


class TestTwosComplement:
    def test_positive_identity(self):
        assert to_twos_complement(5, 8) == 5

    def test_negative_one(self):
        assert to_twos_complement(-1, 8) == 0xFF

    def test_minimum_value(self):
        assert to_twos_complement(-128, 8) == 0x80

    def test_maximum_value(self):
        assert to_twos_complement(127, 8) == 0x7F

    def test_out_of_range_high(self):
        with pytest.raises(ValueError):
            to_twos_complement(128, 8)

    def test_out_of_range_low(self):
        with pytest.raises(ValueError):
            to_twos_complement(-129, 8)

    def test_decode_negative(self):
        assert from_twos_complement(0xFF, 8) == -1

    def test_decode_positive(self):
        assert from_twos_complement(0x7F, 8) == 127

    def test_decode_rejects_wide_pattern(self):
        with pytest.raises(ValueError):
            from_twos_complement(0x100, 8)

    def test_decode_rejects_negative_pattern(self):
        with pytest.raises(ValueError):
            from_twos_complement(-1, 8)

    @given(st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1))
    def test_roundtrip_32bit(self, value):
        assert from_twos_complement(to_twos_complement(value, 32), 32) == value

    @given(st.integers(min_value=2, max_value=63), st.data())
    def test_roundtrip_any_width(self, width, data):
        value = data.draw(
            st.integers(min_value=-(2 ** (width - 1)), max_value=2 ** (width - 1) - 1)
        )
        assert from_twos_complement(to_twos_complement(value, width), width) == value


class TestBitManipulation:
    def test_get_bit(self):
        assert get_bit(0b1010, 1) == 1
        assert get_bit(0b1010, 0) == 0

    def test_set_bit(self):
        assert set_bit(0b1010, 0) == 0b1011

    def test_set_bit_idempotent(self):
        assert set_bit(0b1010, 1) == 0b1010

    def test_clear_bit(self):
        assert clear_bit(0b1010, 1) == 0b1000

    def test_clear_bit_idempotent(self):
        assert clear_bit(0b1010, 0) == 0b1010

    def test_flip_bit(self):
        assert flip_bit(0b1010, 0) == 0b1011
        assert flip_bit(0b1010, 1) == 0b1000

    def test_negative_position_rejected(self):
        for fn in (get_bit, set_bit, clear_bit, flip_bit):
            with pytest.raises(ValueError):
                fn(1, -1)

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount(bit_mask(32)) == 32

    def test_popcount_rejects_negative(self):
        with pytest.raises(ValueError):
            popcount(-1)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(0, 31))
    def test_flip_is_involution(self, pattern, position):
        assert flip_bit(flip_bit(pattern, position), position) == pattern


class TestRotation:
    def test_rotate_right_basic(self):
        assert rotate_right(0b0001, 1, 4) == 0b1000

    def test_rotate_left_basic(self):
        assert rotate_left(0b1000, 1, 4) == 0b0001

    def test_rotate_by_zero(self):
        assert rotate_right(0xAB, 0, 8) == 0xAB
        assert rotate_left(0xAB, 0, 8) == 0xAB

    def test_rotate_by_width_is_identity(self):
        assert rotate_right(0xAB, 8, 8) == 0xAB
        assert rotate_left(0xAB, 8, 8) == 0xAB

    def test_rotate_paper_example(self):
        # Fault in bit 31, nFM=5 -> rotate right by 1 puts the LSB at bit 31.
        rotated = rotate_right(0x00000001, 1, 32)
        assert rotated == 0x80000000

    def test_rejects_oversized_pattern(self):
        with pytest.raises(ValueError):
            rotate_right(0x100, 1, 8)

    @given(
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.integers(min_value=0, max_value=200),
    )
    def test_left_inverts_right(self, pattern, amount):
        assert rotate_left(rotate_right(pattern, amount, 32), amount, 32) == pattern

    @given(
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=64),
    )
    def test_rotations_compose(self, pattern, a, b):
        step = rotate_right(rotate_right(pattern, a, 32), b, 32)
        assert step == rotate_right(pattern, a + b, 32)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(0, 63))
    def test_rotation_preserves_popcount(self, pattern, amount):
        assert popcount(rotate_right(pattern, amount, 32)) == popcount(pattern)


class TestBitArrays:
    def test_to_bit_array_lsb_first(self):
        bits = to_bit_array(0b0110, 4)
        assert bits.tolist() == [0, 1, 1, 0]

    def test_from_bit_array(self):
        assert from_bit_array(np.array([0, 1, 1, 0])) == 0b0110

    def test_from_bit_array_rejects_non_binary(self):
        with pytest.raises(ValueError):
            from_bit_array(np.array([0, 2, 1]))

    def test_from_bit_array_rejects_2d(self):
        with pytest.raises(ValueError):
            from_bit_array(np.zeros((2, 2)))

    @given(st.integers(min_value=0, max_value=2 ** 16 - 1))
    def test_roundtrip(self, pattern):
        assert from_bit_array(to_bit_array(pattern, 16)) == pattern


class TestVectorisedRotation:
    def test_matches_scalar(self, rng):
        patterns = rng.integers(0, 2 ** 32, size=50, dtype=np.uint64)
        amounts = rng.integers(0, 32, size=50, dtype=np.uint64)
        vectorised = rotate_right_array(patterns, amounts, 32)
        for p, a, v in zip(patterns.tolist(), amounts.tolist(), vectorised.tolist()):
            assert v == rotate_right(int(p), int(a), 32)

    def test_left_matches_scalar(self, rng):
        patterns = rng.integers(0, 2 ** 32, size=50, dtype=np.uint64)
        amounts = rng.integers(0, 32, size=50, dtype=np.uint64)
        vectorised = rotate_left_array(patterns, amounts, 32)
        for p, a, v in zip(patterns.tolist(), amounts.tolist(), vectorised.tolist()):
            assert v == rotate_left(int(p), int(a), 32)

    def test_inverse_property(self, rng):
        patterns = rng.integers(0, 2 ** 32, size=100, dtype=np.uint64)
        amounts = rng.integers(0, 32, size=100, dtype=np.uint64)
        roundtrip = rotate_left_array(
            rotate_right_array(patterns, amounts, 32), amounts, 32
        )
        assert np.array_equal(roundtrip, patterns)

    def test_zero_amount_identity(self):
        patterns = np.array([1, 2, 3], dtype=np.uint64)
        out = rotate_right_array(patterns, np.zeros(3, dtype=np.uint64), 32)
        assert np.array_equal(out, patterns)

    def test_rejects_wide_patterns(self):
        with pytest.raises(ValueError):
            rotate_right_array(np.array([2 ** 33], dtype=np.uint64), np.array([1]), 32)

    def test_rejects_width_over_63(self):
        with pytest.raises(ValueError):
            rotate_right_array(np.array([1], dtype=np.uint64), np.array([1]), 64)


@pytest.mark.parametrize("width", range(1, 64))
class TestVectorisedTwosComplement:
    """The array codecs against the scalar ones, at every supported width."""

    def test_matches_scalar(self, width):
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        rng = np.random.default_rng(width)
        values = np.concatenate(
            [
                np.array([lo, hi, 0, -1, lo + 1, hi - 1], dtype=np.int64).clip(lo, hi),
                rng.integers(lo, hi + 1, size=50, dtype=np.int64),
            ]
        )
        patterns = to_twos_complement_array(values, width)
        assert patterns.dtype == np.uint64
        assert patterns.tolist() == [to_twos_complement(v, width) for v in values.tolist()]
        decoded = from_twos_complement_array(patterns, width)
        assert decoded.dtype == np.int64
        assert decoded.tolist() == [
            from_twos_complement(p, width) for p in patterns.tolist()
        ]
        assert np.array_equal(decoded, values)

        assert to_twos_complement_array(values[:0], width).size == 0
        assert from_twos_complement_array(patterns[:0], width).size == 0

    def test_out_of_range_raises(self, width):
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        message = f"values out of range for {width}-bit 2's complement"
        for value in (lo - 1, hi + 1):
            with pytest.raises(ValueError, match=message):
                to_twos_complement_array(np.array([0, value], dtype=np.int64), width)
        oversized = np.array([0, 1 << width], dtype=np.uint64)
        with pytest.raises(ValueError, match=f"pattern exceeds {width}-bit range"):
            from_twos_complement_array(oversized, width)
