"""Tests for the priority-based ECC baseline (P-ECC)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.priority_ecc import PriorityEccScheme


class TestParameters:
    def test_32bit_configuration(self):
        scheme = PriorityEccScheme(32)
        assert scheme.name == "p-ecc-H(22,16)"
        assert scheme.protected_bits == 16
        assert scheme.extra_columns == 6
        assert scheme.storage_width == 38

    def test_rejects_odd_width(self):
        with pytest.raises(ValueError):
            PriorityEccScheme(31)


class TestOperationalPath:
    def test_clean_roundtrip(self):
        scheme = PriorityEccScheme(32)
        stored = scheme.encode_word(0, 0xDEADBEEF)
        assert scheme.decode_word(0, stored) == 0xDEADBEEF

    def test_fault_in_lsb_half_is_not_corrected(self):
        scheme = PriorityEccScheme(32)
        stored = scheme.encode_word(0, 0)
        for position in range(16):
            recovered = scheme.decode_word(0, stored ^ (1 << position))
            assert recovered == 1 << position  # error passes straight through

    def test_single_fault_in_msb_half_is_corrected(self):
        scheme = PriorityEccScheme(32)
        data = 0xABCD1234
        stored = scheme.encode_word(0, data)
        for position in range(16, scheme.storage_width):
            assert scheme.decode_word(0, stored ^ (1 << position)) == data

    def test_msb_half_double_fault_not_corrected(self):
        scheme = PriorityEccScheme(32)
        data = 0xABCD1234
        stored = scheme.encode_word(0, data)
        corrupted = stored ^ (1 << 20) ^ (1 << 25)
        assert scheme.decode_word(0, corrupted) != data

    def test_rejects_oversized_stored_pattern(self):
        scheme = PriorityEccScheme(32)
        with pytest.raises(ValueError):
            scheme.decode_word(0, 1 << scheme.storage_width)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_roundtrip_random(self, data):
        scheme = PriorityEccScheme(32)
        assert scheme.decode_word(1, scheme.encode_word(1, data)) == data


class TestAnalyticalView:
    def test_lsb_fault_remains(self):
        scheme = PriorityEccScheme(32)
        assert scheme.residual_error_positions(0, [5]) == [5]

    def test_single_msb_fault_corrected(self):
        scheme = PriorityEccScheme(32)
        assert scheme.residual_error_positions(0, [27]) == []

    def test_two_msb_faults_remain(self):
        scheme = PriorityEccScheme(32)
        assert scheme.residual_error_positions(0, [20, 27]) == [20, 27]

    def test_mixed_faults(self):
        scheme = PriorityEccScheme(32)
        # One MSB fault (corrected) and one LSB fault (remains).
        assert scheme.residual_error_positions(0, [3, 27]) == [3]

    def test_worst_case_error_is_bounded_by_protected_boundary(self):
        scheme = PriorityEccScheme(32)
        # Worst surviving single fault sits just below the protected half.
        assert scheme.worst_case_error_magnitude(15) == 2 ** 15
        assert scheme.worst_case_error_magnitude(16) == 0

    def test_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            PriorityEccScheme(32).residual_error_positions(0, [-1])


class TestConfigurableCoverage:
    """P-ECC with a non-default protected fraction (coverage ablation)."""

    def test_byte_protection_uses_h13_8(self):
        scheme = PriorityEccScheme(32, protected_bits=8)
        assert scheme.name == "p-ecc-H(13,8)"
        assert scheme.protected_bits == 8
        assert scheme.extra_columns == 5

    def test_byte_protection_roundtrip(self):
        scheme = PriorityEccScheme(32, protected_bits=8)
        for data in (0, 0xFFFFFFFF, 0x12345678, 0x80000001):
            assert scheme.decode_word(0, scheme.encode_word(0, data)) == data

    def test_byte_protection_residuals(self):
        scheme = PriorityEccScheme(32, protected_bits=8)
        assert scheme.residual_error_positions(0, [23]) == [23]
        assert scheme.residual_error_positions(0, [24]) == []
        assert scheme.residual_error_positions(0, [25, 30]) == [25, 30]

    def test_wider_coverage_reduces_worst_residual(self):
        narrow = PriorityEccScheme(32, protected_bits=8)
        default = PriorityEccScheme(32, protected_bits=16)
        wide = PriorityEccScheme(32, protected_bits=24)
        # Worst surviving single-fault magnitude shrinks as coverage grows.
        worst = [
            max(s.worst_case_error_magnitude(c) for c in range(32))
            for s in (narrow, default, wide)
        ]
        assert worst == sorted(worst, reverse=True)
        assert worst == [2 ** 23, 2 ** 15, 2 ** 7]

    def test_wider_coverage_costs_more_parity(self):
        assert (
            PriorityEccScheme(32, protected_bits=24).extra_columns
            > PriorityEccScheme(32, protected_bits=8).extra_columns
        )

    def test_rejects_out_of_range_coverage(self):
        with pytest.raises(ValueError):
            PriorityEccScheme(32, protected_bits=0)
        with pytest.raises(ValueError):
            PriorityEccScheme(32, protected_bits=32)

    def test_odd_width_allowed_with_explicit_coverage(self):
        scheme = PriorityEccScheme(31, protected_bits=15)
        data = 0x7FFFFFFF & ((1 << 31) - 1)
        assert scheme.decode_word(0, scheme.encode_word(0, data)) == data
