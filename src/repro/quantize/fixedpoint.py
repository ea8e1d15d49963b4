"""Signed fixed-point (Q-format) conversion with saturation.

A :class:`FixedPointFormat` with ``total_bits = 32`` and ``frac_bits = 16``
(the default, "Q15.16") represents values in ``[-2**15, 2**15 - 2**-16]`` with
a resolution of ``2**-16``.  Values are stored as ``total_bits``-wide
2's-complement integers -- exactly the representation whose bit significance
the bit-shuffling scheme exploits: a fault in a low-order bit perturbs the
value by a tiny fraction, a fault in the MSB flips its sign and magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FixedPointFormat"]


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed Q-format description: ``total_bits`` wide with ``frac_bits`` fraction bits."""

    total_bits: int = 32
    frac_bits: int = 16

    def __post_init__(self) -> None:
        if self.total_bits <= 1:
            raise ValueError("total_bits must be at least 2 (sign + magnitude)")
        if self.total_bits > 63:
            raise ValueError("total_bits must not exceed 63")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError(
                "frac_bits must be non-negative and smaller than total_bits"
            )

    # ------------------------------------------------------------------ #
    # Range and resolution
    # ------------------------------------------------------------------ #
    @property
    def scale(self) -> float:
        """Value of one least-significant bit, ``2**-frac_bits``."""
        return 2.0 ** (-self.frac_bits)

    @property
    def max_raw(self) -> int:
        """Largest signed integer code."""
        return 2 ** (self.total_bits - 1) - 1

    @property
    def min_raw(self) -> int:
        """Smallest signed integer code."""
        return -(2 ** (self.total_bits - 1))

    # ------------------------------------------------------------------ #
    # Scalar conversion (the reference the array conversion is tested against)
    # ------------------------------------------------------------------ #
    def to_raw(self, value: float) -> int:
        """Quantise a real value to its signed integer code (with saturation)."""
        if not np.isfinite(value):
            raise ValueError(f"cannot quantise non-finite value {value}")
        raw = int(round(value / self.scale))
        return max(self.min_raw, min(self.max_raw, raw))

    def from_raw(self, raw: int) -> float:
        """De-quantise a signed integer code back to a real value."""
        if not self.min_raw <= raw <= self.max_raw:
            raise ValueError(f"raw code {raw} outside the {self.total_bits}-bit range")
        return raw * self.scale

    # ------------------------------------------------------------------ #
    # Array conversion
    # ------------------------------------------------------------------ #
    def quantize_array(self, values: np.ndarray) -> np.ndarray:
        """Quantise an array of reals to signed integer codes (int64, saturated)."""
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("cannot quantise non-finite values")
        raw = np.rint(values / self.scale)
        return np.clip(raw, self.min_raw, self.max_raw).astype(np.int64)

    def dequantize_array(self, raw: np.ndarray) -> np.ndarray:
        """De-quantise signed integer codes back to float64 values."""
        raw = np.asarray(raw, dtype=np.int64)
        if raw.size and (raw.max() > self.max_raw or raw.min() < self.min_raw):
            raise ValueError("raw codes outside the representable range")
        return raw.astype(np.float64) * self.scale

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Q{self.total_bits - self.frac_bits - 1}.{self.frac_bits}"
