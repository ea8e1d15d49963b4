"""Tests for the barrel-rotator shuffler datapath."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.shuffler import BitShuffler
from repro.memory.words import rotate_left_array, rotate_right_array


class TestScalarPath:
    def test_shuffle_moves_lsb_up(self):
        shuffler = BitShuffler(32)
        assert shuffler.shuffle(0x1, 1) == 0x80000000

    def test_unshuffle_restores(self):
        shuffler = BitShuffler(32)
        assert shuffler.unshuffle(0x80000000, 1) == 0x1

    def test_zero_rotation_is_identity(self):
        shuffler = BitShuffler(32)
        assert shuffler.shuffle(0xCAFEBABE, 0) == 0xCAFEBABE
        assert shuffler.unshuffle(0xCAFEBABE, 0) == 0xCAFEBABE

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            BitShuffler(0)

    @given(
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.integers(min_value=0, max_value=31),
    )
    def test_roundtrip(self, data, rotation):
        shuffler = BitShuffler(32)
        assert shuffler.unshuffle(shuffler.shuffle(data, rotation), rotation) == data

    @given(
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
    )
    def test_fault_position_mapping(self, data, rotation, fault_position):
        """A flip at stored position p corrupts logical bit (p + rotation) mod W."""
        shuffler = BitShuffler(32)
        stored = shuffler.shuffle(data, rotation)
        corrupted = stored ^ (1 << fault_position)
        recovered = shuffler.unshuffle(corrupted, rotation)
        assert recovered ^ data == 1 << ((fault_position + rotation) % 32)


class TestVectorPath:
    def test_matches_scalar(self, rng):
        shuffler = BitShuffler(32)
        data = rng.integers(0, 2 ** 32, size=64, dtype=np.uint64)
        rotations = rng.integers(0, 32, size=64, dtype=np.uint64)
        shuffled = rotate_right_array(data, rotations, 32)
        for d, r, s in zip(data.tolist(), rotations.tolist(), shuffled.tolist()):
            assert s == shuffler.shuffle(int(d), int(r))

    def test_roundtrip(self, rng):
        data = rng.integers(0, 2 ** 32, size=128, dtype=np.uint64)
        rotations = rng.integers(0, 32, size=128, dtype=np.uint64)
        assert np.array_equal(
            rotate_left_array(rotate_right_array(data, rotations, 32), rotations, 32),
            data,
        )
