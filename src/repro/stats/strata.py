"""Per-stratum variance tracking for stratified Monte-Carlo estimators.

The sweeps estimate population statistics of the form

``theta = w_0 * v_0 + sum_n w_n * E[f(die) | N = n]``

where ``w_n = Pr(N = n)`` is the (fixed, known) probability of the stratum
and the conditional expectations are estimated by per-stratum sample means.
:class:`StratumVarianceTracker` keeps one :class:`StreamingMoments` per
stratum plus the stratum weights, merges stratum-wise (exactly the shape a
shard returns), and answers the current confidence half-width of the
stratified estimate, ``z * sqrt(sum_n w_n^2 * s_n^2 / m_n)``, which the
adaptive budget controller checks each round.

The controller's other question, how to split the next round's dies, is
:func:`neyman_allocation`: stratum ``n`` gets dies proportionally to
``w_n * s_n`` summed over the trackers of every scheme in the sweep (the
variance-optimal split for one tracker).
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Any, Dict, Mapping, Sequence

from repro.stats.base import as_float_array
from repro.stats.moments import StreamingMoments

__all__ = [
    "StratumVarianceTracker",
    "largest_remainder_allocation",
    "neyman_allocation",
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


class StratumVarianceTracker:
    """Weighted per-stratum moments behind the stratified CI and allocation."""

    __slots__ = ("weights", "strata")

    def __init__(self, weights: Mapping[int, float]) -> None:
        if not weights:
            raise ValueError("at least one stratum weight is required")
        if any(w < 0 for w in weights.values()):
            raise ValueError("stratum weights must be non-negative")
        self.weights: Dict[int, float] = {
            int(k): float(v) for k, v in weights.items()
        }
        self.strata: Dict[int, StreamingMoments] = {
            key: StreamingMoments() for key in self.weights
        }

    # ------------------------------------------------------------------ #
    # StreamingSummary protocol (stratified flavour)
    # ------------------------------------------------------------------ #
    def update_batch(self, stratum: int, values: Any) -> None:
        """Absorb a batch of observations belonging to one stratum."""
        stratum = int(stratum)
        if stratum not in self.strata:
            raise KeyError(f"unknown stratum {stratum}")
        self.strata[stratum].update_batch(as_float_array(values))

    def merge(self, other: "StratumVarianceTracker") -> None:
        """Stratum-wise merge; the two trackers must share weights exactly."""
        if self.weights != other.weights:
            raise ValueError("cannot merge trackers with different strata")
        # Sorted fold order keeps the merge canonical no matter how the
        # other tracker's dict happens to be ordered.
        for key in sorted(self.strata):
            self.strata[key].merge(other.strata[key])

    def finalize(self) -> Dict[int, Any]:
        """Per-stratum :class:`MomentsResult` views, keyed by stratum."""
        return {key: self.strata[key].finalize() for key in sorted(self.strata)}

    # ------------------------------------------------------------------ #
    # Stratified estimator
    # ------------------------------------------------------------------ #
    def counts(self) -> Dict[int, int]:
        """Observations absorbed per stratum."""
        return {key: self.strata[key].count for key in sorted(self.strata)}

    def estimate(self, baseline: float = 0.0) -> float:
        """The stratified estimate ``baseline + sum_n w_n * mean_n``.

        ``baseline`` carries analytically known terms (the fault-free point
        mass of the sweeps).  Strata with no observations contribute zero.
        """
        total = baseline
        for key in sorted(self.strata):
            moments = self.strata[key]
            if moments.count:
                total += self.weights[key] * moments.mean
        return total

    def estimate_variance(self) -> float:
        """``Var(theta_hat) = sum_n w_n^2 * s_n^2 / m_n`` (sampled strata only).

        Strata with fewer than two observations have an undefined sample
        variance and contribute zero -- callers must seed every stratum with
        an initial batch of at least two before trusting the result.
        """
        total = 0.0
        for key in sorted(self.strata):
            moments = self.strata[key]
            if moments.count >= 2:
                weight = self.weights[key]
                total += weight * weight * moments.variance() / moments.count
        return total

    def half_width(self, confidence: float = 0.95) -> float:
        """Confidence half-width of the stratified estimate."""
        return normal_critical_value(confidence) * math.sqrt(
            self.estimate_variance()
        )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Exact JSON-safe state (weights plus per-stratum moments)."""
        return {
            "weights": {str(k): self.weights[k] for k in sorted(self.weights)},
            "strata": {
                str(k): self.strata[k].to_dict() for k in sorted(self.strata)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StratumVarianceTracker":
        """Rebuild a tracker saved by :meth:`to_dict`.

        The saved strata must be exactly the weighted ones: a stratum without
        a weight cannot enter :meth:`estimate`, and a weighted stratum
        without saved moments would silently restart empty.
        """
        tracker = cls({int(k): float(v) for k, v in data["weights"].items()})
        strata = {int(key): moments for key, moments in data["strata"].items()}
        extra = sorted(set(strata) - set(tracker.weights))
        if extra:
            raise ValueError(f"saved stratum {extra[0]} has no weight")
        missing = sorted(set(tracker.weights) - set(strata))
        if missing:
            raise ValueError(f"stratum {missing[0]} has a weight but no saved moments")
        for key, moments in strata.items():
            tracker.strata[key] = StreamingMoments.from_dict(moments)
        return tracker


def neyman_allocation(
    trackers: Sequence[StratumVarianceTracker], batch: int
) -> Dict[int, int]:
    """Split ``batch`` new samples across the strata the ``trackers`` share.

    Stratum ``n`` is scored ``sum_t w_n * s_n,t`` over the trackers (one per
    scheme of a sweep), in tracker order, and the batch is split by
    :func:`largest_remainder_allocation`.  A stratum whose every tracker has
    zero observed variance receives nothing; if all of them do, the batch is
    spread uniformly (the caller only asks when the CI target is unmet, so
    it simply wants more evidence).
    """
    if not trackers:
        raise ValueError("at least one tracker is required")
    weights = trackers[0].weights
    if any(tracker.weights != weights for tracker in trackers):
        raise ValueError("cannot allocate across trackers with different strata")
    return largest_remainder_allocation(
        {
            key: sum(
                weights[key] * tracker.strata[key].std() for tracker in trackers
            )
            for key in weights
        },
        batch,
    )
