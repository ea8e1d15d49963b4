"""Mergeable running moments (Welford / Chan).

:class:`StreamingMoments` tracks count, mean, and the centred second moment
``M2`` of a stream of observations in O(1) memory, using Welford's update for
batches and Chan et al.'s parallel combination rule for merges.  The sample
variance it reports is the unbiased (Bessel-corrected) estimator the
adaptive-budget controller's confidence intervals are built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping

import numpy as np

from repro.stats.base import as_float_array

__all__ = ["MomentsResult", "StreamingMoments"]


@dataclass(frozen=True)
class MomentsResult:
    """Finalised view of a :class:`StreamingMoments` accumulator."""

    count: int
    mean: float
    variance: float  # unbiased sample variance (0.0 when count < 2)
    std: float
    minimum: float  # +inf when empty
    maximum: float  # -inf when empty


class StreamingMoments:
    """Streaming mean / variance / extrema with exact-count merging."""

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    # ------------------------------------------------------------------ #
    # StreamingSummary protocol
    # ------------------------------------------------------------------ #
    def update_batch(self, values: Any) -> None:
        """Absorb a batch of observations (vectorised Welford via Chan merge)."""
        values = as_float_array(values)
        if values.size == 0:
            return
        batch = StreamingMoments()
        batch.count = int(values.size)
        batch.mean = float(values.mean())
        batch.m2 = float(np.square(values - batch.mean).sum())
        batch.minimum = float(values.min())
        batch.maximum = float(values.max())
        self.merge(batch)

    def update(self, value: float) -> None:
        """Absorb one observation, bit for bit as ``update_batch([value])``.

        It builds the same count-1 summary without NumPy and merges it.
        NumPy's mean of one value is ``0.0 + value`` (so ``-0.0`` comes back
        as ``0.0``), and its squared deviation is ``0.0``, or ``nan`` for an
        infinite or ``nan`` value.
        """
        value = float(value)
        single = StreamingMoments()
        single.count = 1
        single.mean = 0.0 + value
        deviation = value - single.mean
        single.m2 = deviation * deviation
        single.minimum = value
        single.maximum = value
        self.merge(single)

    def merge(self, other: "StreamingMoments") -> None:
        """Chan's parallel combination; exact for counts and extrema."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = (
            self.m2
            + other.m2
            + delta * delta * (self.count * other.count / total)
        )
        self.mean = self.mean + delta * (other.count / total)
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def finalize(self) -> MomentsResult:
        """Count, mean, unbiased variance, std, and extrema."""
        variance = self.variance()
        return MomentsResult(
            count=self.count,
            mean=self.mean,
            variance=variance,
            std=math.sqrt(variance),
            minimum=self.minimum,
            maximum=self.maximum,
        )

    # ------------------------------------------------------------------ #
    # Direct queries
    # ------------------------------------------------------------------ #
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two observations)."""
        if self.count < 2:
            return 0.0
        # Rounding in the merge chain can leave m2 a hair below zero for
        # constant streams; clamp so downstream sqrt never sees a negative.
        return max(self.m2, 0.0) / (self.count - 1)

    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance())

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Exact JSON-safe state (floats round-trip bit-for-bit)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self.m2,
            "min": None if math.isinf(self.minimum) else self.minimum,
            "max": None if math.isinf(self.maximum) else self.maximum,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StreamingMoments":
        """Rebuild a summary saved by :meth:`to_dict`."""
        summary = cls()
        summary.count = int(data["count"])
        summary.mean = float(data["mean"])
        summary.m2 = float(data["m2"])
        summary.minimum = math.inf if data["min"] is None else float(data["min"])
        summary.maximum = -math.inf if data["max"] is None else float(data["max"])
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingMoments(count={self.count}, mean={self.mean!r}, "
            f"m2={self.m2!r})"
        )
