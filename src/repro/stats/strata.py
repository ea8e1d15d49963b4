"""The stratified yield estimator of the adaptive Monte-Carlo budget.

The sweeps estimate, per protection scheme, a population yield of the form

``theta = baseline + sum_n w_n * E[1{die passes} | N = n]``

where ``w_n = Pr(N = n)`` is the (fixed, known) weight of failure-count
stratum ``n`` (Eq. 4), ``baseline`` carries the analytically known
fault-free point mass, and each conditional yield is estimated by its
stratum's sample mean.  :class:`StratifiedYield` holds all of an adaptive
sweep's round state: per (scheme, stratum) the pass/fail
:class:`StreamingMoments` and the score :class:`FixedGridEcdfSketch`, per
stratum the dies drawn so far, the round count and the largest shard
payload.  It folds shard summaries, answers the estimate and its confidence
half-width ``z * sqrt(sum_n w_n^2 * s_n^2 / m_n)``, splits the next round by
Neyman allocation -- stratum ``n`` gets dies proportionally to ``w_n * s_n``
summed over the schemes -- and serialises itself as the checkpoint body.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.stats.moments import StreamingMoments
from repro.stats.sketch import FixedGridEcdfSketch

__all__ = [
    "StratifiedYield",
    "largest_remainder_allocation",
    "normal_critical_value",
]


def normal_critical_value(confidence: float) -> float:
    """Two-sided normal critical value ``z`` for a confidence level."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def largest_remainder_allocation(
    scores: Mapping[int, float], batch: int
) -> Dict[int, int]:
    """Split ``batch`` integer units proportionally to ``scores``.

    Deterministic largest-remainder rounding: fractional remainders win
    first, ties broken by ascending key, so the same scores always produce
    the same allocation.  All-zero (or empty-positive) scores fall back to a
    uniform split -- the caller wants more evidence, not a crash.
    """
    if batch < 0:
        raise ValueError("batch must be non-negative")
    keys = sorted(scores)
    if not keys:
        raise ValueError("at least one stratum is required")
    values = [max(float(scores[key]), 0.0) for key in keys]
    total = sum(values)
    if total <= 0.0:
        values = [1.0] * len(keys)
        total = float(len(keys))
    shares = [batch * value / total for value in values]
    allocation = {key: int(share) for key, share in zip(keys, shares)}
    remainder = batch - sum(allocation.values())
    order = sorted(
        range(len(keys)),
        key=lambda i: (-(shares[i] - int(shares[i])), keys[i]),
    )
    for i in order[:remainder]:
        allocation[keys[i]] += 1
    return allocation


class StratifiedYield:
    """The round state and answers of one adaptive sweep's stratified yield.

    ``weights`` maps each stratum to its ``Pr(N = n)``; every one of the
    ``n_schemes`` schemes is tracked over the same strata, with its score
    sketches on the grid ``edges``.
    """

    def __init__(
        self, weights: Mapping[int, float], n_schemes: int, edges: Any
    ) -> None:
        if not weights:
            raise ValueError("at least one stratum weight is required")
        if any(w < 0 for w in weights.values()):
            raise ValueError("stratum weights must be non-negative")
        if n_schemes < 1:
            raise ValueError("at least one scheme is required")
        self.weights: Dict[int, float] = {
            int(k): float(v) for k, v in weights.items()
        }
        grid = FixedGridEcdfSketch(edges)
        #: The score grid every sketch of the sweep shares.
        self.edges = grid.edges
        self.moments: List[Dict[int, StreamingMoments]] = [
            {key: StreamingMoments() for key in self.weights}
            for _ in range(n_schemes)
        ]
        self.sketches: Dict[Tuple[int, int], FixedGridEcdfSketch] = {
            (si, key): grid.blank()
            for si in range(n_schemes)
            for key in self.weights
        }
        #: Dies drawn so far per stratum.
        self.samples: Dict[int, int] = {key: 0 for key in self.weights}
        self.rounds = 0
        #: Largest shard summary folded so far, in scalars (the O(bins) witness).
        self.max_payload = 0

    @property
    def total_dies(self) -> int:
        """Dies drawn so far over every stratum."""
        return sum(self.samples.values())

    def fold(
        self,
        summary: Sequence[Tuple[Tuple[int, int], StreamingMoments, FixedGridEcdfSketch]],
    ) -> None:
        """Merge one shard's ``((scheme, stratum), moments, sketch)`` cells.

        Callers fold shards in a canonical order (shard index, never
        completion order) so the floating-point merges are reproducible.
        """
        # Five moment scalars plus the sketch, per cell of the payload.
        scalars = sum(5 + sketch.payload_scalars() for _, _, sketch in summary)
        self.max_payload = max(self.max_payload, scalars)
        for (si, key), moments, sketch in summary:
            self.moments[si][key].merge(moments)
            self.sketches[(si, key)].merge(sketch)

    def end_round(self, allocation: Mapping[int, int]) -> None:
        """Record a finished round that drew ``allocation[n]`` dies of stratum ``n``."""
        for key, batch in allocation.items():
            self.samples[key] += batch
        self.rounds += 1

    def std(self, scheme: int, stratum: int) -> float:
        """Observed pass/fail standard deviation of one (scheme, stratum)."""
        return self.moments[scheme][stratum].std()

    def estimate(self, scheme: int, baseline: float = 0.0) -> float:
        """The stratified yield ``baseline + sum_n w_n * mean_n`` of a scheme.

        Strata with no observations contribute zero.
        """
        total = baseline
        strata = self.moments[scheme]
        for key in sorted(strata):
            moments = strata[key]
            if moments.count:
                total += self.weights[key] * moments.mean
        return total

    def half_width(self, scheme: int, confidence: float = 0.95) -> float:
        """Confidence half-width ``z * sqrt(sum_n w_n^2 * s_n^2 / m_n)``.

        Strata with fewer than two observations have an undefined sample
        variance and contribute zero, which is why every stratum is seeded
        with at least two dies.
        """
        variance = 0.0
        strata = self.moments[scheme]
        for key in sorted(strata):
            moments = strata[key]
            if moments.count >= 2:
                weight = self.weights[key]
                variance += weight * weight * moments.variance() / moments.count
        return normal_critical_value(confidence) * math.sqrt(variance)

    def allocate(self, batch: int) -> Dict[int, int]:
        """Neyman-split ``batch`` new dies across the strata.

        Stratum ``n`` is scored ``sum_s w_n * s_n,s`` over the schemes, in
        scheme order, and the batch is split by
        :func:`largest_remainder_allocation`.  A stratum whose every scheme
        has zero observed variance receives nothing; if all of them do, the
        batch is spread uniformly (the caller only asks when the CI target
        is unmet, so it simply wants more evidence).
        """
        return largest_remainder_allocation(
            {
                key: sum(weight * strata[key].std() for strata in self.moments)
                for key, weight in self.weights.items()
            },
            batch,
        )

    def cells(self) -> Dict[Tuple[int, int], Tuple[Any, Any]]:
        """Per-(scheme, stratum) ``(support, mass)`` of the score sketches."""
        return {key: sketch.finalize() for key, sketch in self.sketches.items()}

    def to_dict(self) -> Dict[str, Any]:
        """Exact JSON-safe round state; empty sketches are left out.

        Every sketch shares one ``edges`` list, so :func:`repro.jsonio.dump`
        encodes the grid once per write.
        """
        weights = {str(k): self.weights[k] for k in sorted(self.weights)}
        edges = self.edges.tolist()
        return {
            "rounds": self.rounds,
            "samples_per_count_index": {
                str(k): self.samples[k] for k in sorted(self.samples)
            },
            "trackers": [
                {
                    "weights": weights,
                    "strata": {str(k): strata[k].to_dict() for k in sorted(strata)},
                }
                for strata in self.moments
            ],
            "sketches": {
                f"{si}:{key}": self.sketches[(si, key)].to_dict(edges)
                for si, key in sorted(self.sketches)
                if self.sketches[(si, key)].count
            },
            "max_shard_payload_scalars": self.max_payload,
        }

    def restore(self, data: Mapping[str, Any]) -> None:
        """Load the round state :meth:`to_dict` saved.

        Each scheme's saved strata, and the strata with saved die counts,
        must be exactly the weighted ones: a stratum without a weight cannot
        enter the estimate, and a weighted stratum without saved moments
        would silently restart empty.  Every saved sketch must belong to a
        (scheme, stratum) of the sweep and lie on its grid.
        """
        trackers = data["trackers"]
        if len(trackers) != len(self.moments):
            raise ValueError(
                f"saved state tracks {len(trackers)} schemes, expected "
                f"{len(self.moments)}"
            )
        moments = []
        for tracker in trackers:
            strata = {int(k): saved for k, saved in tracker["strata"].items()}
            extra = sorted(set(strata) - set(self.weights))
            if extra:
                raise ValueError(f"saved stratum {extra[0]} has no weight")
            missing = sorted(set(self.weights) - set(strata))
            if missing:
                raise ValueError(
                    f"stratum {missing[0]} has a weight but no saved moments"
                )
            moments.append(
                {key: StreamingMoments.from_dict(strata[key]) for key in self.weights}
            )
        cells = {f"{si}:{key}": (si, key) for si, key in self.sketches}
        sketches = {}
        for key, saved in data["sketches"].items():
            if key not in cells:
                raise ValueError(
                    f"saved sketch {key!r} is not a (scheme, stratum) of this sweep"
                )
            sketch = FixedGridEcdfSketch.from_dict(saved)
            if not np.array_equal(sketch.edges, self.edges):
                raise ValueError(f"saved sketch {key!r} is on another grid")
            sketches[cells[key]] = sketch
        samples = {
            int(k): int(v) for k, v in data["samples_per_count_index"].items()
        }
        extra = sorted(set(samples) - set(self.weights))
        if extra:
            raise ValueError(f"saved die count of stratum {extra[0]} has no weight")
        missing = sorted(set(self.weights) - set(samples))
        if missing:
            raise ValueError(
                f"stratum {missing[0]} has a weight but no saved die count"
            )
        self.moments = moments
        self.sketches.update(sketches)
        self.samples = samples
        self.rounds = int(data["rounds"])
        self.max_payload = int(data.get("max_shard_payload_scalars", 0))
