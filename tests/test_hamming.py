"""Tests for the SECDED extended Hamming codes."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ecc.hamming import (
    DecodeStatus,
    SecdedCode,
    secded_code_for_data_bits,
)


class TestCodeParameters:
    def test_h39_32(self):
        code = SecdedCode(32)
        assert code.name == "H(39,32)"
        assert code.codeword_bits == 39
        assert code.parity_bits == 7

    def test_h22_16(self):
        code = SecdedCode(16)
        assert code.name == "H(22,16)"
        assert code.codeword_bits == 22
        assert code.parity_bits == 6

    def test_h13_8(self):
        code = SecdedCode(8)
        assert code.name == "H(13,8)"
        assert code.codeword_bits == 13
        assert code.parity_bits == 5

    def test_rejects_non_positive_data_bits(self):
        with pytest.raises(ValueError):
            SecdedCode(0)

    def test_factory_caches(self):
        assert secded_code_for_data_bits(32) is secded_code_for_data_bits(32)

    def test_overhead_bits(self):
        assert SecdedCode(32).parity_bits == 7

    def test_data_positions_are_not_parity_positions(self):
        spec = SecdedCode(16).kernel_spec
        assert spec.data_positions.size == 16
        assert not set(spec.data_positions.tolist()) & set(
            spec.parity_positions.tolist()
        )

    def test_parity_position_queries(self):
        # The kernels' codeword layout: bit 0 is the overall parity, the
        # power-of-two positions hold the Hamming parity bits.
        spec = SecdedCode(8).kernel_spec
        assert 0 not in spec.data_positions.tolist()  # overall parity
        assert spec.parity_positions.tolist() == [1, 2, 4, 8]
        assert 3 in spec.data_positions.tolist()


class TestEncodeDecode:
    @pytest.mark.parametrize("data_bits", [8, 16, 32])
    def test_roundtrip_corner_values(self, data_bits):
        code = SecdedCode(data_bits)
        for data in (0, 1, (1 << data_bits) - 1, 1 << (data_bits - 1)):
            codeword = code.encode(data)
            result = code.decode(codeword)
            assert result.status is DecodeStatus.NO_ERROR
            assert result.data == data

    def test_encode_rejects_oversized_data(self):
        code = SecdedCode(8)
        with pytest.raises(ValueError):
            code.encode(256)

    def test_decode_rejects_oversized_codeword(self):
        code = SecdedCode(8)
        with pytest.raises(ValueError):
            code.decode(1 << 13)

    def test_extract_data_without_errors(self):
        code = SecdedCode(16)
        assert code.extract_data(code.encode(0xBEEF)) == 0xBEEF

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_roundtrip_random_32bit(self, data):
        code = secded_code_for_data_bits(32)
        result = code.decode(code.encode(data))
        assert result.status is DecodeStatus.NO_ERROR
        assert result.data == data

    def test_clean_codeword_has_zero_syndrome(self):
        code = SecdedCode(16)
        syndrome, overall = code.syndrome(code.encode(0x1234))
        assert syndrome == 0
        assert overall == 0


class TestSingleErrorCorrection:
    @pytest.mark.parametrize("data_bits", [8, 16, 32])
    def test_corrects_every_single_bit_error(self, data_bits):
        code = SecdedCode(data_bits)
        data = 0xA5A5A5A5 & ((1 << data_bits) - 1)
        codeword = code.encode(data)
        for position in range(code.codeword_bits):
            corrupted = codeword ^ (1 << position)
            result = code.decode(corrupted)
            assert result.status is DecodeStatus.CORRECTED_SINGLE
            assert result.data == data
            assert result.corrected_bit == position

    @given(
        st.integers(min_value=0, max_value=2 ** 16 - 1),
        st.integers(min_value=0, max_value=21),
    )
    def test_single_error_always_corrected_h22(self, data, position):
        code = secded_code_for_data_bits(16)
        corrupted = code.encode(data) ^ (1 << position)
        result = code.decode(corrupted)
        assert result.status is DecodeStatus.CORRECTED_SINGLE
        assert result.data == data


class TestDoubleErrorDetection:
    @pytest.mark.parametrize("data_bits", [8, 16])
    def test_detects_all_double_errors(self, data_bits):
        code = SecdedCode(data_bits)
        data = 0x5A5A & ((1 << data_bits) - 1)
        codeword = code.encode(data)
        n = code.codeword_bits
        for i in range(n):
            for j in range(i + 1, n):
                corrupted = codeword ^ (1 << i) ^ (1 << j)
                result = code.decode(corrupted)
                assert result.status is DecodeStatus.DETECTED_DOUBLE

    @given(
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.integers(min_value=0, max_value=38),
        st.integers(min_value=0, max_value=38),
    )
    def test_double_error_never_miscorrected_silently(self, data, i, j):
        code = secded_code_for_data_bits(32)
        codeword = code.encode(data)
        corrupted = codeword ^ (1 << i) ^ (1 << j)
        result = code.decode(corrupted)
        if i == j:
            assert result.status is DecodeStatus.NO_ERROR
            assert result.data == data
        else:
            # A double error must never be reported as clean or corrected.
            assert result.status is DecodeStatus.DETECTED_DOUBLE
