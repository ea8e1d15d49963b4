"""Reference kernel backend: the NumPy SECDED, FM-LUT and ElasticNet loops.

These are the batch paths behind :class:`repro.ecc.hamming.SecdedCode`, the
bit-shuffling scheme of :mod:`repro.core.scheme` and
:meth:`repro.apps.elasticnet.ElasticNetRegressor.fit`; every seeded result,
golden figure, and equivalence-harness case is pinned to them bit for bit.
Compiled backends are validated against this one by the capability probe's
self-test and by ``tests/test_kernels.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels.api import KernelBackend, SecdedKernelSpec
from repro.memory.words import bit_mask, parity_array, rotate_left_array, rotate_right_array

__all__ = ["NumpyKernelBackend"]


class NumpyKernelBackend(KernelBackend):
    """Pure-NumPy reference implementation of the five kernels."""

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

    # ------------------------------------------------------------------ #
    # ElasticNet coordinate descent
    # ------------------------------------------------------------------ #
    def elasticnet_sweeps(
        self,
        x_centered: np.ndarray,
        x_update: np.ndarray,
        residual: np.ndarray,
        column_norms: np.ndarray,
        l1_penalty: float,
        l2_penalty: float,
        max_iter: int,
        tol: float,
    ) -> Tuple[np.ndarray, int]:
        # Each update is the plain NumPy form (one ``x[:, j] @ residual`` and
        # one ``residual += x[:, j] * delta``) without NumPy scalar round
        # trips: the dot product stays on the strided column view, whose BLAS
        # summation order differs from a contiguous column's, and only the
        # elementwise residual update reads the Fortran-ordered copy.
        # Everything an update reads besides the residual is fixed for the
        # whole fit, so it is looked up once here as Python floats.  Zero-norm
        # columns never move their weight and are left out.
        n_samples, n_features = x_centered.shape
        columns = [
            (j, x_centered[:, j], x_update[:, j], norm, norm + l2_penalty)
            for j, norm in enumerate(column_norms.tolist())
            if norm != 0.0
        ]
        weights = [0.0] * n_features
        step = np.empty(n_samples)
        dot, multiply = np.dot, np.multiply

        n_iter = 0
        for iteration in range(max_iter):
            max_update = 0.0
            for j, column, column_update, norm, denominator in columns:
                old_weight = weights[j]
                # Partial residual excluding feature j's current contribution,
                # soft-thresholded by the L1 penalty.
                rho = float(dot(column, residual)) / n_samples + norm * old_weight
                if rho > l1_penalty:
                    rho -= l1_penalty
                elif rho < -l1_penalty:
                    rho += l1_penalty
                else:
                    rho = 0.0
                new_weight = rho / denominator
                if new_weight != old_weight:
                    delta = old_weight - new_weight
                    multiply(column_update, delta, out=step)
                    residual += step
                    weights[j] = new_weight
                    change = abs(delta)
                    if change > max_update:
                        max_update = change
            n_iter = iteration + 1
            if max_update < tol:
                break
        return np.array(weights, dtype=np.float64), n_iter
