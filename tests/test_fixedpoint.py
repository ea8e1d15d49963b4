"""Tests for the fixed-point quantisation format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.words import (
    from_twos_complement_array,
    to_twos_complement,
    to_twos_complement_array,
)
from repro.quantize.fixedpoint import FixedPointFormat


class TestFormatParameters:
    def test_default_q15_16(self):
        fmt = FixedPointFormat()
        assert fmt.total_bits == 32
        assert fmt.frac_bits == 16
        assert str(fmt) == "Q15.16"
        assert fmt.scale == 2.0 ** -16

    def test_range(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=8)
        assert fmt.from_raw(fmt.max_raw) == pytest.approx((2 ** 15 - 1) / 256)
        assert fmt.from_raw(fmt.min_raw) == pytest.approx(-(2 ** 15) / 256)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=1)
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=64)
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=16, frac_bits=16)
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=16, frac_bits=-1)


class TestScalarConversion:
    def test_exact_values(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=8)
        assert fmt.to_raw(1.0) == 256
        assert fmt.from_raw(256) == 1.0
        assert fmt.to_raw(-1.0) == -256

    def test_rounding(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=0)
        assert fmt.to_raw(2.4) == 2
        assert fmt.to_raw(2.6) == 3

    def test_saturation(self):
        fmt = FixedPointFormat(total_bits=8, frac_bits=0)
        assert fmt.to_raw(1000.0) == 127
        assert fmt.to_raw(-1000.0) == -128

    def test_rejects_non_finite(self):
        fmt = FixedPointFormat()
        with pytest.raises(ValueError):
            fmt.to_raw(float("nan"))
        with pytest.raises(ValueError):
            fmt.to_raw(float("inf"))

    def test_from_raw_bounds_checked(self):
        fmt = FixedPointFormat(total_bits=8, frac_bits=0)
        with pytest.raises(ValueError):
            fmt.from_raw(128)

    def test_pattern_roundtrip_negative(self):
        # The stored pattern of a value, as the datapath builds it: codes
        # from quantize_array, then their 2's-complement patterns.
        fmt = FixedPointFormat()
        pattern = to_twos_complement_array(fmt.quantize_array([-3.25]), 32)
        assert 0 <= int(pattern[0]) < 2 ** 32
        assert int(pattern[0]) == to_twos_complement(fmt.to_raw(-3.25), 32)
        codes = from_twos_complement_array(pattern, 32)
        assert fmt.dequantize_array(codes)[0] == pytest.approx(-3.25)

    @given(st.floats(min_value=-30000.0, max_value=30000.0, allow_nan=False))
    def test_roundtrip_error_bounded(self, value):
        fmt = FixedPointFormat()
        recovered = fmt.from_raw(fmt.to_raw(value))
        assert abs(recovered - value) <= fmt.scale / 2 + 1e-12


class TestArrayConversion:
    def test_roundtrip(self, rng):
        fmt = FixedPointFormat()
        values = rng.normal(scale=100.0, size=(50, 4))
        raw = fmt.quantize_array(values)
        back = fmt.dequantize_array(raw).reshape(values.shape)
        assert np.max(np.abs(back - values)) <= fmt.scale / 2

    @given(
        st.lists(
            st.floats(min_value=-40000.0, max_value=40000.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_matches_scalar_reference(self, values):
        fmt = FixedPointFormat()
        raw = fmt.quantize_array(values)
        assert raw.tolist() == [fmt.to_raw(value) for value in values]
        assert fmt.dequantize_array(raw).tolist() == [
            fmt.from_raw(code) for code in raw.tolist()
        ]

    def test_saturation_vectorised(self):
        fmt = FixedPointFormat(total_bits=8, frac_bits=0)
        raw = fmt.quantize_array(np.array([1e9, -1e9]))
        assert raw.tolist() == [127, -128]

    def test_rejects_non_finite_array(self):
        fmt = FixedPointFormat()
        with pytest.raises(ValueError):
            fmt.quantize_array(np.array([1.0, np.nan]))

    def test_dequantize_bounds_checked(self):
        fmt = FixedPointFormat(total_bits=8, frac_bits=0)
        with pytest.raises(ValueError):
            fmt.dequantize_array(np.array([200]))

    def test_matches_scalar_path(self, rng):
        fmt = FixedPointFormat(total_bits=32, frac_bits=12)
        values = rng.normal(scale=10.0, size=20)
        raw = fmt.quantize_array(values)
        for v, r in zip(values.tolist(), raw.tolist()):
            assert r == fmt.to_raw(v)
