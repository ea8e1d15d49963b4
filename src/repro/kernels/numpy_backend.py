"""Reference kernel backend: the original vectorised NumPy datapath.

The implementations here are *extracted* from their historical homes
(``repro.ecc.hamming``, ``repro.core.scheme``, ``repro.memory.faults``,
``repro.memory.words``) rather than rewritten, so every seeded result, golden
figure, and equivalence-harness case is bit-for-bit what it was before the
kernel registry existed.  Compiled backends are validated against this one by
the capability probe's self-test and by ``tests/test_kernels.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.api import KernelBackend, SecdedKernelSpec
from repro.memory.words import bit_mask, parity_array, rotate_left_array, rotate_right_array

__all__ = ["NumpyKernelBackend"]


class NumpyKernelBackend(KernelBackend):
    """Pure-NumPy reference implementation of every kernel."""

    name = "numpy"

    # ------------------------------------------------------------------ #
    # XOR-popcount SECDED
    # ------------------------------------------------------------------ #
    def secded_encode(self, data: np.ndarray, spec: SecdedKernelSpec) -> np.ndarray:
        inner = np.zeros_like(data)
        one = np.uint64(1)
        for i, pos in enumerate(spec.data_positions.tolist()):
            inner |= ((data >> np.uint64(i)) & one) << np.uint64(pos)
        for j, ppos in enumerate(spec.parity_positions.tolist()):
            inner |= parity_array(inner & spec.check_masks[j]) << np.uint64(ppos)
        return inner | parity_array(inner)

    def secded_syndrome(
        self, codewords: np.ndarray, spec: SecdedKernelSpec
    ) -> Tuple[np.ndarray, np.ndarray]:
        syndromes = np.zeros_like(codewords)
        for j in range(spec.parity_positions.size):
            syndromes |= parity_array(codewords & spec.check_masks[j]) << np.uint64(j)
        return syndromes, parity_array(codewords)

    def secded_decode(self, codewords: np.ndarray, spec: SecdedKernelSpec) -> np.ndarray:
        syndromes, overall_errors = self.secded_syndrome(codewords, spec)
        corrected = np.where(
            overall_errors == np.uint64(1),
            codewords ^ (np.uint64(1) << syndromes),
            codewords,
        )
        # A syndrome pointing outside the codeword (3+ errors) must fail
        # exactly like the scalar decoder's _check_codeword.
        if corrected.size and np.any(corrected > np.uint64(bit_mask(spec.codeword_bits))):
            raise ValueError(f"codeword does not fit in {spec.codeword_bits} bits")
        data = np.zeros_like(corrected)
        one = np.uint64(1)
        for i, pos in enumerate(spec.data_positions.tolist()):
            data |= ((corrected >> np.uint64(pos)) & one) << np.uint64(i)
        return data

    # ------------------------------------------------------------------ #
    # FM-LUT rotation apply
    # ------------------------------------------------------------------ #
    def fmlut_encode(
        self,
        data: np.ndarray,
        rows: np.ndarray,
        entries: np.ndarray,
        rotations: np.ndarray,
        width: int,
    ) -> np.ndarray:
        shuffled = rotate_right_array(data, rotations[rows], width)
        return shuffled | (entries[rows].astype(np.uint64) << np.uint64(width))

    def fmlut_decode(
        self,
        stored: np.ndarray,
        rows: np.ndarray,
        rotations: np.ndarray,
        width: int,
    ) -> np.ndarray:
        data_part = stored & np.uint64(bit_mask(width))
        return rotate_left_array(data_part, rotations[rows], width)

    # ------------------------------------------------------------------ #
    # Stuck-at corruption masks
    # ------------------------------------------------------------------ #
    def apply_corruption_masks(
        self,
        patterns: np.ndarray,
        rows: np.ndarray,
        and_masks: np.ndarray,
        or_masks: np.ndarray,
        xor_masks: np.ndarray,
    ) -> np.ndarray:
        return ((patterns & and_masks[rows]) | or_masks[rows]) ^ xor_masks[rows]

    # ------------------------------------------------------------------ #
    # 2's-complement array codecs
    # ------------------------------------------------------------------ #
    def to_twos_complement(self, values: np.ndarray, width: int) -> np.ndarray:
        lo = -(1 << (width - 1))
        hi = (1 << (width - 1)) - 1
        if values.size and (values.min() < lo or values.max() > hi):
            raise ValueError(f"values out of range for {width}-bit 2's complement")
        return values.astype(np.uint64) & np.uint64(bit_mask(width))

    def from_twos_complement(self, patterns: np.ndarray, width: int) -> np.ndarray:
        if patterns.size and patterns.max() > np.uint64(bit_mask(width)):
            raise ValueError(f"pattern exceeds {width}-bit range")
        sign = np.uint64(1 << (width - 1))
        # (x ^ m) - m sign-extends an m-bit pattern; x ^ sign stays below 2**63.
        return (patterns ^ sign).astype(np.int64) - np.int64(sign)

    # ------------------------------------------------------------------ #
    # Rejection-sampler validity check
    # ------------------------------------------------------------------ #
    def invalid_map_mask(
        self,
        draws: np.ndarray,
        width: int,
        max_faults_per_word: Optional[int],
    ) -> np.ndarray:
        n_maps, fault_count = draws.shape
        draws_sorted = np.sort(draws, axis=1)
        bad = np.zeros(n_maps, dtype=bool)
        # Repeated cell within a map -> invalid (uniformity requires
        # exactly fault_count distinct cells).
        bad |= np.any(draws_sorted[:, 1:] == draws_sorted[:, :-1], axis=1)
        if max_faults_per_word is not None:
            rows_sorted = np.sort(draws // width, axis=1)
            # After sorting, faults sharing a word form runs of equal row
            # indices; the longest run is the per-word maximum.
            equal_neighbours = rows_sorted[:, 1:] == rows_sorted[:, :-1]
            if max_faults_per_word == 1:
                bad |= np.any(equal_neighbours, axis=1)
            else:
                run_len = np.ones((n_maps, fault_count), dtype=np.int64)
                for j in range(1, fault_count):
                    run_len[:, j] = np.where(
                        equal_neighbours[:, j - 1], run_len[:, j - 1] + 1, 1
                    )
                bad |= run_len.max(axis=1) > max_faults_per_word
        return bad
