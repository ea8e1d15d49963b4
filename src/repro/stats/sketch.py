"""Fixed-grid mergeable ECDF / quantile sketch.

:class:`FixedGridEcdfSketch` histograms weighted observations onto a fixed,
shared bin grid.  Because every shard of a sweep uses the *same* grid, merging
is exact bin-wise addition -- the sketch of the whole population equals the
merge of the shards' sketches regardless of how the dies were partitioned --
and the payload is O(bins) no matter how many dies a shard evaluated.

Bins are right-closed: bin ``i`` (``1 <= i <= B``) holds values in
``(edges[i-1], edges[i]]``, bin ``0`` holds values ``<= edges[0]``, and the
overflow bin holds values ``> edges[-1]``.  The CDF is therefore *exact at
every grid edge*; between edges it is a conservative step function.  Exact
minimum and maximum are tracked so the support of the finalised distribution
is honest at both tails.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.stats.base import as_float_array

__all__ = ["FixedGridEcdfSketch"]


class FixedGridEcdfSketch:
    """Weighted ECDF sketch over a fixed bin grid (mergeable, O(bins))."""

    __slots__ = ("edges", "counts", "count", "minimum", "maximum")

    def __init__(self, edges: Any) -> None:
        edges = as_float_array(edges)
        if edges.size < 2:
            raise ValueError("a sketch grid needs at least two edges")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("sketch edges must be strictly increasing")
        self.edges = edges
        self.counts = np.zeros(edges.size + 1, dtype=np.float64)
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf

    # ------------------------------------------------------------------ #
    # Grid factories
    # ------------------------------------------------------------------ #
    @classmethod
    def linear(cls, low: float, high: float, bins: int) -> "FixedGridEcdfSketch":
        """Uniform grid of ``bins`` right-closed bins over ``[low, high]``."""
        if bins < 1:
            raise ValueError("bins must be positive")
        return cls(np.linspace(low, high, bins + 1))

    @classmethod
    def log10(cls, low: float, high: float, bins: int) -> "FixedGridEcdfSketch":
        """Log-spaced grid (decades) -- the natural grid for MSE magnitudes."""
        if low <= 0 or high <= low:
            raise ValueError("log grid needs 0 < low < high")
        if bins < 1:
            raise ValueError("bins must be positive")
        return cls(np.logspace(math.log10(low), math.log10(high), bins + 1))

    # ------------------------------------------------------------------ #
    # StreamingSummary protocol
    # ------------------------------------------------------------------ #
    def update_batch(self, values: Any, weights: Any = None) -> None:
        """Absorb observations; ``weights`` is a scalar or per-value array
        (default: unit weight per observation).

        Weights must be non-negative: negative mass would make bin totals --
        and every quantile built from them -- meaningless, so it is rejected
        here rather than surfacing later as a garbled CDF.  A nan value is
        rejected too: it has no bin and would poison the tracked minimum and
        maximum.  Zero weights are legal (the observation still advances
        :attr:`count` and the min/max tracking, but contributes no mass).  A
        rejected batch absorbs nothing.
        """
        values = as_float_array(values)
        if values.size == 0:
            return
        if np.isnan(values).any():
            raise ValueError("sketch values must not be nan")
        indices = np.searchsorted(self.edges, values, side="left")
        if weights is None:
            np.add.at(self.counts, indices, 1.0)
        else:
            weights = np.broadcast_to(
                np.asarray(weights, dtype=np.float64), values.shape
            )
            if np.any(weights < 0):
                raise ValueError("sketch weights must be non-negative")
            np.add.at(self.counts, indices, weights)
        self.count += int(values.size)
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))

    def merge(self, other: "FixedGridEcdfSketch") -> None:
        """Exact bin-wise addition; grids must match exactly."""
        if not np.array_equal(self.edges, other.edges):
            raise ValueError("cannot merge sketches with different grids")
        self.counts += other.counts
        self.count += other.count
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def finalize(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(support, weights)`` of the sketched distribution.

        Occupied bins are reported at their upper edge -- except the
        underflow bin, reported at the exact observed minimum, and the
        overflow bin, reported at the exact observed maximum -- so the
        support never extends beyond the data.  Weights are the raw bin
        masses (not normalised).
        """
        support = np.concatenate(
            (
                [self.minimum if self.count else self.edges[0]],
                self.edges[1:],
                [self.maximum if self.count else self.edges[-1]],
            )
        )
        occupied = self.counts > 0
        return support[occupied], self.counts[occupied]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def total_weight(self) -> float:
        """Sum of all absorbed weights (the distribution's total mass).

        Distinct from :attr:`count`, which is the *number of observations*
        absorbed regardless of their weights: an ``update_batch`` of three
        zero-weight values leaves ``count == 3`` but ``total_weight == 0``.
        Mass-dependent queries (:meth:`quantile`,
        :meth:`probability_at_most`) operate on ``total_weight``;
        ``count`` answers "has this sketch seen any data at all".
        """
        return float(self.counts.sum())

    def probability_at_most(self, threshold: float) -> float:
        """``P(X <= threshold)`` -- exact when ``threshold`` is a grid edge,
        otherwise the mass of all bins entirely at or below it (a lower
        bound)."""
        total = self.total_weight
        if total <= 0:
            return 0.0
        idx = int(np.searchsorted(self.edges, threshold, side="right"))
        return float(self.counts[:idx].sum()) / total

    def quantile(self, q: float) -> float:
        """Smallest support point whose cumulative mass reaches ``q``.

        Raises
        ------
        ValueError
            If the sketch has absorbed no observations at all (empty
            sketch), or -- the weighted edge case -- if it has observations
            but their total mass is zero, in which case no quantile of the
            distribution is defined.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {q}")
        support, weights = self.finalize()
        if support.size == 0:
            if self.count > 0:
                raise ValueError(
                    f"cannot take the quantile of a sketch with zero total "
                    f"mass ({self.count} observations, all with weight 0)"
                )
            raise ValueError("cannot take the quantile of an empty sketch")
        cumulative = np.cumsum(weights) / weights.sum()
        idx = min(
            int(np.searchsorted(cumulative, q, side="left")), support.size - 1
        )
        return float(support[idx])

    def payload_scalars(self) -> int:
        """Number of scalars this sketch ships when pickled (O(bins))."""
        return int(self.edges.size + self.counts.size) + 3

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self, edges: Optional[List[float]] = None) -> Dict[str, Any]:
        """Exact JSON-safe state; bins stored sparsely (index, mass).

        ``edges`` is this grid's ``edges.tolist()`` when the caller has it
        already: sketches on one grid then share one list, which
        :func:`repro.jsonio.dump` encodes once.
        """
        occupied = np.flatnonzero(self.counts)
        return {
            "edges": self.edges.tolist() if edges is None else edges,
            "bins": {int(i): float(self.counts[i]) for i in occupied},
            "count": self.count,
            "min": None if math.isinf(self.minimum) else self.minimum,
            "max": None if math.isinf(self.maximum) else self.maximum,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FixedGridEcdfSketch":
        """Rebuild a sketch saved by :meth:`to_dict`."""
        sketch = cls(np.asarray(data["edges"], dtype=np.float64))
        for index, mass in data["bins"].items():
            sketch.counts[int(index)] = float(mass)
        sketch.count = int(data["count"])
        sketch.minimum = math.inf if data["min"] is None else float(data["min"])
        sketch.maximum = -math.inf if data["max"] is None else float(data["max"])
        return sketch

    def blank(self) -> "FixedGridEcdfSketch":
        """An empty sketch sharing this sketch's grid, without checking the
        grid again (it was checked when this sketch was built)."""
        other = FixedGridEcdfSketch.__new__(FixedGridEcdfSketch)
        other.edges = self.edges
        other.counts = np.zeros_like(self.counts)
        other.count = 0
        other.minimum = math.inf
        other.maximum = -math.inf
        return other

    def copy(self) -> "FixedGridEcdfSketch":
        """Independent deep copy (fresh count arrays)."""
        other = self.blank()
        other.counts = self.counts.copy()
        other.count = self.count
        other.minimum = self.minimum
        other.maximum = self.maximum
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FixedGridEcdfSketch(bins={self.edges.size - 1}, "
            f"count={self.count}, total_weight={self.total_weight!r})"
        )
