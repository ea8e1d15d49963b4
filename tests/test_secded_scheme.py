"""Tests for the full-word SECDED protection scheme."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.secded_scheme import SecdedScheme
from repro.ecc.hamming import DecodeStatus


class TestParameters:
    def test_32bit_configuration(self):
        scheme = SecdedScheme(32)
        assert scheme.name == "secded-H(39,32)"
        assert scheme.extra_columns == 7
        assert scheme.storage_width == 39

    def test_16bit_configuration(self):
        scheme = SecdedScheme(16)
        assert scheme.name == "secded-H(22,16)"
        assert scheme.extra_columns == 6


class TestOperationalPath:
    def test_clean_roundtrip(self):
        scheme = SecdedScheme(32)
        stored = scheme.encode_word(0, 0xDEADBEEF)
        assert scheme.decode_word(0, stored) == 0xDEADBEEF

    def test_single_fault_anywhere_is_corrected(self):
        scheme = SecdedScheme(32)
        stored = scheme.encode_word(0, 0x0BADF00D)
        for position in range(scheme.storage_width):
            assert scheme.decode_word(0, stored ^ (1 << position)) == 0x0BADF00D

    def test_double_fault_detected_not_corrected(self):
        scheme = SecdedScheme(32)
        stored = scheme.encode_word(0, 0x0BADF00D)
        corrupted = stored ^ 0b11
        code = scheme.code
        assert code.decode(corrupted).status is DecodeStatus.DETECTED_DOUBLE
        assert scheme.decode_word(0, corrupted) == code.extract_data(corrupted)

    def test_rejects_oversized_data(self):
        scheme = SecdedScheme(8)
        with pytest.raises(ValueError):
            scheme.encode_word(0, 1 << 8)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_roundtrip_random(self, data):
        scheme = SecdedScheme(32)
        assert scheme.decode_word(5, scheme.encode_word(5, data)) == data


class TestAnalyticalView:
    def test_single_fault_leaves_no_residual(self):
        scheme = SecdedScheme(32)
        assert scheme.residual_error_positions(0, [17]) == []

    def test_no_fault_no_residual(self):
        assert SecdedScheme(32).residual_error_positions(0, []) == []

    def test_two_faults_remain(self):
        scheme = SecdedScheme(32)
        assert scheme.residual_error_positions(0, [3, 29]) == [3, 29]

    def test_duplicate_columns_collapse(self):
        scheme = SecdedScheme(32)
        assert scheme.residual_error_positions(0, [3, 3]) == []

    def test_worst_case_error_magnitude_is_zero_for_single_fault(self):
        assert SecdedScheme(32).worst_case_error_magnitude(31) == 0

    def test_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            SecdedScheme(32).residual_error_positions(0, [32])
