"""Result types of a Monte-Carlo sweep: the Fig. 7 :class:`QualityDistribution`
(its Fig. 5 counterpart is :class:`~repro.faultmodel.yieldmodel.MseDistribution`),
the :class:`AdaptiveBudgetReport` of an adaptive budget and the per-call
:class:`SweepRunStats`.  :class:`~repro.sim.engine.SweepEngine` produces them and
:mod:`repro.store.schema` encodes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.quality.cdf import WeightedEcdf
from repro.stats import normal_critical_value

__all__ = ["AdaptiveBudgetReport", "QualityDistribution", "SweepRunStats"]


@dataclass
class AdaptiveBudgetReport:
    """Outcome of one adaptive-budget sweep (``SweepEngine.last_adaptive_report``).

    ``half_widths`` / ``estimates`` are keyed by scheme name; the sweep stops
    when *every* scheme's half-width reaches the target.  ``stratum_weights``,
    ``stratum_stds`` and ``samples_per_count`` are keyed by failure count and
    feed :meth:`fixed_equivalent_dies`, the analytic answer to "how many dies
    would the uniform fixed budget have needed for the same half-width?".
    """

    evaluation: str
    threshold: float
    target_ci: float
    confidence: float
    reached: bool
    rounds: int
    total_dies: int
    max_total_dies: int
    half_widths: Dict[str, float]
    estimates: Dict[str, float]
    samples_per_count: Dict[int, int]
    stratum_weights: Dict[int, float] = field(default_factory=dict)
    stratum_stds: Dict[str, Dict[int, float]] = field(default_factory=dict)
    max_shard_payload_scalars: int = 0

    @property
    def achieved_half_width(self) -> float:
        """The widest (worst-scheme) confidence half-width at stop time."""
        return max(self.half_widths.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe state (stored with adaptive records in the result store)."""
        return {
            "evaluation": self.evaluation,
            "threshold": self.threshold,
            "target_ci": self.target_ci,
            "confidence": self.confidence,
            "reached": self.reached,
            "rounds": self.rounds,
            "total_dies": self.total_dies,
            "max_total_dies": self.max_total_dies,
            "half_widths": dict(self.half_widths),
            "estimates": dict(self.estimates),
            "samples_per_count": {
                str(count): dies
                for count, dies in self.samples_per_count.items()
            },
            "stratum_weights": {
                str(count): weight
                for count, weight in self.stratum_weights.items()
            },
            "stratum_stds": {
                scheme: {str(count): std for count, std in stds.items()}
                for scheme, stds in self.stratum_stds.items()
            },
            "max_shard_payload_scalars": self.max_shard_payload_scalars,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AdaptiveBudgetReport":
        """Rebuild a report saved by :meth:`to_dict` (int keys restored)."""
        return cls(
            evaluation=str(data["evaluation"]),
            threshold=float(data["threshold"]),
            target_ci=float(data["target_ci"]),
            confidence=float(data["confidence"]),
            reached=bool(data["reached"]),
            rounds=int(data["rounds"]),
            total_dies=int(data["total_dies"]),
            max_total_dies=int(data["max_total_dies"]),
            half_widths={k: float(v) for k, v in data["half_widths"].items()},
            estimates={k: float(v) for k, v in data["estimates"].items()},
            samples_per_count={
                int(k): int(v) for k, v in data["samples_per_count"].items()
            },
            stratum_weights={
                int(k): float(v) for k, v in data["stratum_weights"].items()
            },
            stratum_stds={
                scheme: {int(k): float(v) for k, v in stds.items()}
                for scheme, stds in data["stratum_stds"].items()
            },
            max_shard_payload_scalars=int(
                data.get("max_shard_payload_scalars", 0)
            ),
        )

    def fixed_equivalent_dies(self, target_ci: Optional[float] = None) -> int:
        """Dies a uniform fixed budget would need to reach ``target_ci``.

        Uses the final per-stratum standard-deviation estimates: a fixed
        budget of ``S`` dies per failure count has estimator variance
        ``sum_n w_n^2 s_n^2 / S``, so the smallest sufficient ``S`` is
        ``ceil(z^2 * sum_n w_n^2 s_n^2 / target_ci^2)`` for the worst
        scheme, and the die bill is ``S * len(strata)``.
        """
        target = self.target_ci if target_ci is None else target_ci
        if target <= 0.0:
            raise ValueError("target_ci must be positive")
        z = normal_critical_value(self.confidence)
        worst = 0.0
        for stds in self.stratum_stds.values():
            worst = max(
                worst,
                sum(
                    (self.stratum_weights[count] * std) ** 2
                    for count, std in stds.items()
                ),
            )
        samples_per_count = max(2, math.ceil(z * z * worst / (target * target)))
        return samples_per_count * len(self.stratum_weights)


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class QualityDistribution:
    """Distribution of a benchmark's quality metric for one scheme (a Fig. 7 curve).

    Attributes
    ----------
    benchmark:
        Benchmark name (``"elasticnet"``, ``"pca"``, ``"knn"``).
    metric_name:
        Name of the quality metric.
    scheme_name:
        Protection scheme the distribution belongs to.
    p_cell:
        Operating-point bit-cell failure probability.
    clean_quality:
        Quality obtained with uncorrupted training data (normalisation point).
    ecdf:
        Weighted empirical CDF of the *normalised* quality (faulty quality
        divided by ``clean_quality``), including the fault-free point mass.
    samples:
        Number of fault maps evaluated.
    """

    benchmark: str
    metric_name: str
    scheme_name: str
    p_cell: float
    clean_quality: float
    ecdf: WeightedEcdf
    samples: int

    def yield_at_quality(self, normalized_target: float) -> float:
        """Fraction of dies whose normalised quality reaches ``normalized_target``."""
        return float(self.ecdf.probability_at_least(normalized_target))

    def quality_at_yield(self, yield_target: float) -> float:
        """Normalised quality guaranteed at a die-yield target.

        The largest quality bound ``q`` such that at most ``1 - yield_target``
        of the die population falls strictly below it -- i.e. the quality an
        application can rely on if it is willing to discard the worst
        ``1 - yield_target`` of dies.
        """
        if not 0.0 < yield_target <= 1.0:
            raise ValueError("yield_target must be in (0, 1]")
        return float(self.ecdf.quantile(1.0 - yield_target))

    def cdf_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(normalised quality, P(Q <= q))`` step points -- the Fig. 7 curve."""
        return self.ecdf.curve()

    def median_quality(self) -> float:
        """Median normalised quality across the die population."""
        return self.ecdf.quantile(0.5)


@dataclass(frozen=True)
class SweepRunStats:
    """Bookkeeping of the most recent :meth:`SweepEngine.run`/``run_mse`` call.

    Both entry points run through the one sweep core, which alone builds
    these stats, so a quality and an MSE sweep report them identically.

    Attributes
    ----------
    evaluation:
        ``"quality"`` or ``"mse"``.
    store_key:
        Configuration hash used against the result store (``None`` when the
        run had no store configured).
    store_hit:
        ``True`` when the results were served from the store without any
        simulation.
    evaluated_dies:
        Monte-Carlo dies actually evaluated by *this* call -- ``0`` on a
        store hit, and less than :attr:`total_dies` when a checkpoint
        resumed part of the sweep.
    total_dies:
        Dies the full sweep comprises (fixed grid size, or the adaptive
        controller's final total).
    executor:
        Shard executor that ran the sweep: ``"inline"``, ``"local"``
        (forked workers), ``"tcp"`` (distributed coordinator), or ``"store"``
        when the results were served from the result store without any
        execution.
    redispatched_shards:
        Shards re-dispatched after a worker died.  Re-dispatch never
        changes results (die evaluation is a pure function of the entry
        list, folded canonically), so a nonzero count documents recovered
        faults, not divergence.
    """

    evaluation: str
    store_key: Optional[str]
    store_hit: bool
    evaluated_dies: int
    total_dies: int
    executor: str = "inline"
    redispatched_shards: int = 0
