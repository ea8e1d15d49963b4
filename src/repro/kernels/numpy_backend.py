"""Reference kernel backend: the vectorised NumPy SECDED and FM-LUT loops.

These are the batch paths behind :class:`repro.ecc.hamming.SecdedCode` and the
bit-shuffling scheme of :mod:`repro.core.scheme`; every seeded result, golden
figure, and equivalence-harness case is pinned to them bit for bit.
Compiled backends are validated against this one by the capability probe's
self-test and by ``tests/test_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.api import KernelBackend, SecdedKernelSpec
from repro.memory.words import bit_mask, parity_array, rotate_left_array, rotate_right_array

__all__ = ["NumpyKernelBackend"]


class NumpyKernelBackend(KernelBackend):
    """Pure-NumPy reference implementation of the four kernels."""

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

    def secded_decode(self, codewords: np.ndarray, spec: SecdedKernelSpec) -> np.ndarray:
        syndromes = np.zeros_like(codewords)
        for j in range(spec.parity_positions.size):
            syndromes |= parity_array(codewords & spec.check_masks[j]) << np.uint64(j)
        corrected = np.where(
            parity_array(codewords) == np.uint64(1),
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
