"""Exact mergeable buffer of weighted observations.

:class:`WeightedSampleBuffer` is the *exact* member of the streaming-summary
family: it keeps every (value, weight) pair it absorbs, so finalising it
reproduces the historical concatenate-then-sort ECDF construction
bit-for-bit.  It exists so the fixed-budget reduction path -- whose pinned
golden curves forbid any sketching -- still speaks the same
``update_batch`` / ``merge`` / ``finalize`` algebra as the O(bins) sketches
used by adaptive sweeps.  Memory is O(samples); callers that need bounded
shard payloads use :class:`~repro.stats.sketch.FixedGridEcdfSketch` instead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.stats.base import as_float_array

__all__ = ["WeightedSampleBuffer"]


class WeightedSampleBuffer:
    """Ordered, mergeable collection of weighted observation batches."""

    __slots__ = ("_values", "_weights")

    def __init__(self) -> None:
        self._values: List[np.ndarray] = []
        self._weights: List[np.ndarray] = []

    # ------------------------------------------------------------------ #
    # StreamingSummary protocol
    # ------------------------------------------------------------------ #
    def update_batch(self, values: Any, weights: Any = None) -> None:
        """Append a batch; ``weights`` is a scalar (shared by the batch),
        a per-value array, or ``None`` for unit weights."""
        values = as_float_array(values)
        if values.size == 0:
            return
        if weights is None:
            weights = np.ones(values.shape, dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.ndim == 0:
                weights = np.full(values.shape, float(weights))
            else:
                weights = weights.ravel()
                if weights.shape != values.shape:
                    raise ValueError(
                        "values and weights must have the same length"
                    )
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        self._values.append(values)
        self._weights.append(weights)

    def merge(self, other: "WeightedSampleBuffer") -> None:
        """Append ``other``'s batches after this buffer's (order-preserving).

        The finalised *distribution* is merge-order independent; the exact
        array layout follows the fold order, which is why callers fold in a
        canonical order when bit-identical layouts matter.
        """
        self._values.extend(other._values)
        self._weights.extend(other._weights)

    def finalize(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, weights)`` concatenated in absorption order."""
        if not self._values:
            raise ValueError("no samples supplied")
        return np.concatenate(self._values), np.concatenate(self._weights)

    # ------------------------------------------------------------------ #
    # Introspection / serialisation
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(chunk.size for chunk in self._values)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe state (exact float round-trip)."""
        return {
            "values": [chunk.tolist() for chunk in self._values],
            "weights": [chunk.tolist() for chunk in self._weights],
        }

    @classmethod
    def from_dict(cls, data) -> "WeightedSampleBuffer":
        """Rebuild a buffer saved by :meth:`to_dict`."""
        buffer = cls()
        for values, weights in zip(data["values"], data["weights"]):
            buffer._values.append(np.asarray(values, dtype=np.float64))
            buffer._weights.append(np.asarray(weights, dtype=np.float64))
        return buffer
