"""Configuration of one stratified Monte-Carlo sweep (Figs. 5 and 7).

The scheme registry (:func:`build_scheme`), the failure-count grid and its
``Pr(N = n)`` weights (Eqs. 3-6), the confidence-driven :class:`AdaptiveBudget`
and the frozen sweep description :class:`ExperimentConfig`.  Nothing here runs
a sweep: :class:`~repro.sim.engine.SweepEngine` does, and its module docstring
describes the per-die seeding scheme that ``master_seed`` roots.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import ProtectionScheme
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.faultmodel.montecarlo import (
    failure_count_pmf,
    failure_count_pmf_array,
    max_failures_for_coverage,
)
from repro.memory.organization import MemoryOrganization
from repro.scenarios.base import FaultScenario, ScenarioSpec, validated_effective_p_cell
from repro.scenarios.catalog import default_scenario

__all__ = [
    "DEFAULT_SCHEME_SPECS", "AdaptiveBudget", "ExperimentConfig", "build_scheme",
    "evaluated_failure_counts", "reassign_count_probabilities",
]

# The four Fig. 7 schemes, by registry spec.
DEFAULT_SCHEME_SPECS: Tuple[str, ...] = (
    "no-protection",
    "p-ecc",
    "bit-shuffle-nfm1",
    "bit-shuffle-nfm2",
)


# --------------------------------------------------------------------------- #
# Scheme registry
# --------------------------------------------------------------------------- #
def build_scheme(spec: str, word_width: int) -> ProtectionScheme:
    """Instantiate a protection scheme from its registry spec.

    Accepted specs (case-insensitive) and the canonical report names they
    produce for 32-bit words:

    ==============================  ===============================
    spec                            scheme
    ==============================  ===============================
    ``no-protection`` / ``none``    :class:`NoProtection`
    ``secded`` / ``secded-...``     :class:`SecdedScheme` (H(39,32))
    ``p-ecc`` / ``p-ecc-...``       :class:`PriorityEccScheme`
    ``bit-shuffle-nfm<k>``          :class:`BitShuffleScheme`, nFM=k
    ==============================  ===============================

    Report names (``scheme.name``) round-trip: every name produced by the
    registry is itself a valid spec, so configurations can be serialised by
    name alone.
    """
    normalized = spec.strip().lower()
    if normalized in ("none", "no-protection"):
        return NoProtection(word_width)
    if normalized == "secded" or normalized.startswith("secded-"):
        scheme = SecdedScheme(word_width)
        # Only the variant this registry can actually build is accepted; a
        # config naming some other code must fail loudly, not run silently
        # with the default.
        if normalized not in ("secded", scheme.name.lower()):
            raise ValueError(
                f"unknown SECDED variant {spec!r}; for {word_width}-bit words "
                f"this registry builds {scheme.name!r}"
            )
        return scheme
    if normalized == "p-ecc" or normalized.startswith("p-ecc-"):
        scheme = PriorityEccScheme(word_width)
        if normalized not in ("p-ecc", scheme.name.lower()):
            raise ValueError(
                f"unknown P-ECC variant {spec!r}; for {word_width}-bit words "
                f"this registry builds {scheme.name!r}"
            )
        return scheme
    match = re.fullmatch(r"bit-shuffle-nfm(\d+)", normalized)
    if match:
        return BitShuffleScheme(word_width, int(match.group(1)))
    raise ValueError(
        f"unknown scheme spec {spec!r}; expected one of no-protection, "
        f"secded, p-ecc, or bit-shuffle-nfm<k>"
    )


# --------------------------------------------------------------------------- #
# Failure-count grid helpers
# --------------------------------------------------------------------------- #
def evaluated_failure_counts(
    max_failures: int, n_points: Optional[int] = None
) -> List[int]:
    """The failure counts evaluated by a sweep: all of ``1..max_failures``, or
    a geometric subsample of ``n_points`` of them."""
    counts = list(range(1, max_failures + 1))
    if n_points is None or n_points >= len(counts):
        return counts
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    positions = np.unique(
        np.geomspace(1, max_failures, n_points).round().astype(int)
    )
    return positions.tolist()


def reassign_count_probabilities(
    total_cells: int,
    p_cell: float,
    max_failures: int,
    evaluated_counts: Sequence[int],
) -> Dict[int, float]:
    """Assign each failure count's ``Pr(N = n)`` to the nearest evaluated count.

    Probability mass of skipped counts moves to the closest evaluated count
    (ties to the smaller count), conserving the sweep's total coverage.
    """
    evaluated = np.asarray(sorted(evaluated_counts))
    probabilities = {int(c): 0.0 for c in evaluated}
    pmf = failure_count_pmf_array(total_cells, p_cell, max_failures)
    for n in range(1, max_failures + 1):
        nearest = int(evaluated[np.argmin(np.abs(evaluated - n))])
        probabilities[nearest] += float(pmf[n])
    return probabilities


_DEFAULT_QUALITY_THRESHOLD = 0.9  # normalised quality (clean = 1.0)
_DEFAULT_MSE_THRESHOLD = 1e2  # local-MSE bound of the yield criterion


@dataclass(frozen=True)
class AdaptiveBudget:
    """Confidence-driven Monte-Carlo budget (the ``mode="adaptive"`` sweep).

    The controller estimates the yield at a threshold -- the fraction of
    dies whose normalised quality reaches ``threshold`` (quality sweeps) or
    whose local MSE stays at or below it (MSE sweeps) -- and keeps drawing
    dies until the estimate's two-sided confidence half-width drops to
    ``target_ci``, or ``max_total_samples`` dies have been spent.

    Parameters
    ----------
    target_ci:
        Target half-width of the yield estimate's confidence interval.
    confidence:
        Confidence level of the interval (normal approximation).
    threshold:
        Yield threshold the CI is tracked at; ``None`` selects the mode
        default (normalised quality 0.9, or MSE 1e2).
    initial_samples_per_count:
        Dies drawn for every failure count in the first round (at least 2,
        so every stratum has a defined sample variance).
    round_dies:
        Total dies per subsequent round, split across strata by Neyman
        allocation.
    max_total_samples:
        Hard cap on evaluated dies; ``None`` means the equivalent fixed
        budget (``samples_per_count`` dies for every failure count), so an
        adaptive sweep never costs more than the fixed sweep it replaces.
    sketch_bins:
        Bin count of the fixed-grid ECDF sketches (the O(bins) that bounds
        shard payloads and merged-result memory).
    """

    target_ci: float = 0.02
    confidence: float = 0.95
    threshold: Optional[float] = None
    initial_samples_per_count: int = 8
    round_dies: int = 64
    max_total_samples: Optional[int] = None
    sketch_bins: int = 256

    def __post_init__(self) -> None:
        if not self.target_ci > 0.0:
            raise ValueError("target_ci must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.initial_samples_per_count < 2:
            raise ValueError(
                "initial_samples_per_count must be at least 2 (a stratum "
                "needs two observations for a sample variance)"
            )
        if self.round_dies < 1:
            raise ValueError("round_dies must be positive")
        if self.max_total_samples is not None and self.max_total_samples < 1:
            raise ValueError("max_total_samples must be positive")
        if self.sketch_bins < 8:
            raise ValueError("sketch_bins must be at least 8")

    def resolved_threshold(self, evaluation: str) -> float:
        """The yield threshold for an evaluation mode (mode default if unset)."""
        if self.threshold is not None:
            return float(self.threshold)
        if evaluation == "mse":
            return _DEFAULT_MSE_THRESHOLD
        return _DEFAULT_QUALITY_THRESHOLD

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (keys the checkpoint hash)."""
        return {
            "target_ci": self.target_ci,
            "confidence": self.confidence,
            "threshold": self.threshold,
            "initial_samples_per_count": self.initial_samples_per_count,
            "round_dies": self.round_dies,
            "max_total_samples": self.max_total_samples,
            "sketch_bins": self.sketch_bins,
        }


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentConfig:
    """Frozen description of one stratified Monte-Carlo quality sweep.

    Parameters
    ----------
    rows / word_width:
        Memory geometry (the paper's 16 kB memory is 4096 x 32).
    p_cell:
        Operating-point bit-cell failure probability.
    coverage:
        Fraction of the die population covered by the failure-count grid.
    samples_per_count:
        Fault maps evaluated per failure count.
    n_count_points:
        Geometric subsample size of the failure-count grid (``None`` = every
        count up to Nmax).
    master_seed:
        Root entropy of the deterministic per-die seeding scheme (see the
        module docstring).  ``None`` is only valid when pre-drawn fault maps
        are supplied to :meth:`SweepEngine.run`.
    scheme_specs:
        Protection schemes by registry spec (see :func:`build_scheme`).
    discard_multi_fault_words:
        Redraw dies containing a word with more than one faulty cell,
        reproducing the paper's Fig. 7 simplification.
    frac_bits:
        Fraction bits of the stored fixed-point format.
    benchmark:
        Optional benchmark label recorded in the checkpoint hash.
    scenario:
        Optional :class:`~repro.scenarios.base.ScenarioSpec` naming the
        fault-scenario pipeline every die is drawn through.  ``None`` (and
        any spec of the default ``iid-pcell`` scenario, which is normalised
        to ``None``) reproduces the historical i.i.d. sampling bit-for-bit
        and leaves every checkpoint hash unchanged; a non-default scenario
        keys the hash, so caches of different scenarios never alias.
    adaptive:
        Optional :class:`AdaptiveBudget` switching the sweep from the fixed
        ``samples_per_count`` budget to confidence-driven sampling.  ``None``
        (fixed mode) keeps every historical result and checkpoint hash
        bit-identical; a budget keys the hash with its full parameter set.
    access_trace:
        Read passes replayed per load when the scenario carries a transient
        tier (see :mod:`repro.scenarios.transient`).  The default single
        pass keeps non-transient hashes unchanged; any other value requires
        a transient scenario and keys the hash.
    """

    rows: int
    word_width: int = 32
    p_cell: float = 1e-3
    coverage: float = 0.99
    samples_per_count: int = 10
    n_count_points: Optional[int] = None
    master_seed: Optional[int] = None
    scheme_specs: Tuple[str, ...] = DEFAULT_SCHEME_SPECS
    discard_multi_fault_words: bool = True
    frac_bits: int = 16
    benchmark: str = ""
    scenario: Optional[ScenarioSpec] = None
    adaptive: Optional[AdaptiveBudget] = None
    access_trace: int = 1

    def __post_init__(self) -> None:
        if self.adaptive is not None and not isinstance(
            self.adaptive, AdaptiveBudget
        ):
            raise ValueError(
                f"adaptive must be an AdaptiveBudget or None, got "
                f"{type(self.adaptive).__name__}"
            )
        if not 0.0 < self.p_cell < 1.0:
            raise ValueError("p_cell must be in (0, 1)")
        if self.samples_per_count <= 0:
            raise ValueError("samples_per_count must be positive")
        if not self.scheme_specs:
            raise ValueError("at least one scheme spec is required")
        if self.scenario is not None:
            if not isinstance(self.scenario, ScenarioSpec):
                raise ValueError(
                    f"scenario must be a ScenarioSpec or None, got "
                    f"{type(self.scenario).__name__}"
                )
            if self.scenario.is_default:
                # Canonical form: the default pipeline is represented as
                # None, so its hashes match the pre-scenario era exactly.
                object.__setattr__(self, "scenario", None)
        if not isinstance(self.access_trace, int) or isinstance(
            self.access_trace, bool
        ):
            raise ValueError(
                f"access_trace must be an integer, got {self.access_trace!r}"
            )
        if self.access_trace < 1:
            raise ValueError(
                f"access_trace must be >= 1, got {self.access_trace}"
            )
        if self.access_trace != 1 and self.build_scenario().transient is None:
            raise ValueError(
                "access_trace > 1 requires a scenario with a transient "
                "tier: static faults do not change between read passes, so "
                "a longer trace would silently run the single-read model"
            )

    @property
    def organization(self) -> MemoryOrganization:
        """Memory geometry under study."""
        return MemoryOrganization(rows=self.rows, word_width=self.word_width)

    def build_scenario(self) -> FaultScenario:
        """The live fault-scenario pipeline of this sweep (default i.i.d.)."""
        if self.scenario is None:
            return default_scenario()
        return self.scenario.build()

    @property
    def effective_p_cell(self) -> float:
        """The cell-failure probability the stratified grid is computed at.

        Scenario sources may shift the base operating point (an aged
        population fails more often than the fresh ``p_cell`` suggests); the
        failure-count grid, its ``Pr(N = n)`` weights, and the fault-free
        point mass all follow that shift.
        """
        if self.scenario is None:
            return self.p_cell
        # Cached on first access (outside the frozen-dataclass field set, so
        # equality and hashing are unaffected): the grid properties below
        # read this repeatedly per sweep, and recomputing it rebuilds the
        # scenario pipeline each time.
        cached = self.__dict__.get("_effective_p_cell")
        if cached is not None:
            return cached
        effective = validated_effective_p_cell(self.build_scenario(), self.p_cell)
        object.__setattr__(self, "_effective_p_cell", effective)
        return effective

    @property
    def max_failures(self) -> int:
        """Largest failure count in the sweep (coverage-determined Nmax)."""
        return max_failures_for_coverage(
            self.rows * self.word_width, self.effective_p_cell, self.coverage
        )

    @property
    def zero_fault_probability(self) -> float:
        """``Pr(N = 0)`` -- the fault-free point mass."""
        return failure_count_pmf(
            self.rows * self.word_width, self.effective_p_cell, 0
        )

    def evaluated_counts(self) -> List[int]:
        """The failure counts this sweep evaluates.

        Cached on first access (same ``__dict__`` technique as
        ``effective_p_cell``): adaptive sweeps and the budgeted optimizer
        read the grid every round/rung, and the coverage search behind it is
        the costly part.  A fresh list is returned so callers can never
        mutate the cache.
        """
        cached = self.__dict__.get("_evaluated_counts")
        if cached is None:
            cached = evaluated_failure_counts(
                self.max_failures, self.n_count_points
            )
            object.__setattr__(self, "_evaluated_counts", cached)
        return list(cached)

    def count_probabilities(self) -> Dict[int, float]:
        """``Pr(N = n)`` mass reassigned onto the evaluated counts (cached
        per config instance, like :meth:`evaluated_counts`)."""
        cached = self.__dict__.get("_count_probabilities")
        if cached is None:
            cached = reassign_count_probabilities(
                self.rows * self.word_width,
                self.effective_p_cell,
                self.max_failures,
                self.evaluated_counts(),
            )
            object.__setattr__(self, "_count_probabilities", cached)
        return dict(cached)

    def build_schemes(self) -> List[ProtectionScheme]:
        """Instantiate the configured protection schemes."""
        return [build_scheme(spec, self.word_width) for spec in self.scheme_specs]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (feeds the checkpoint hash).

        The ``scenario`` key is present only for non-default scenarios:
        default sweeps keep the exact payload (and therefore the exact
        checkpoint hashes) of the pre-scenario engine, while every other
        scenario keys the cache so resumes can never replay another
        scenario's dies.  The key holds the *resolved pipeline* description
        (:meth:`FaultScenario.to_dict`), not the spec: two specs naming the
        same pipeline (``years=5`` versus ``5.0``) share a cache, and a
        custom scenario whose registered factory changes under the same name
        changes the hash instead of silently aliasing stale results.
        """
        data: Dict[str, object] = {
            "rows": self.rows,
            "word_width": self.word_width,
            "p_cell": self.p_cell,
            "coverage": self.coverage,
            "samples_per_count": self.samples_per_count,
            "n_count_points": self.n_count_points,
            "master_seed": self.master_seed,
            "scheme_specs": list(self.scheme_specs),
            "discard_multi_fault_words": self.discard_multi_fault_words,
            "frac_bits": self.frac_bits,
            "benchmark": self.benchmark,
        }
        if self.scenario is not None:
            data["scenario"] = self.build_scenario().to_dict()
        if self.adaptive is not None:
            # Adaptive budgets key the cache with their full parameter set:
            # a fixed-mode checkpoint must never resume an adaptive sweep
            # (or vice versa), and two different CI targets must not alias.
            data["adaptive"] = self.adaptive.to_dict()
        if self.access_trace != 1:
            # Same only-when-non-default rule as the scenario/adaptive keys:
            # single-pass sweeps keep their historical hashes, and sweeps of
            # different trace lengths never alias one cache entry.
            data["access_trace"] = self.access_trace
        return data

    def max_adaptive_samples(self) -> int:
        """Total die cap of the adaptive budget (the equivalent fixed budget
        when the budget leaves ``max_total_samples`` unset)."""
        if self.adaptive is None:
            raise ValueError("config has no adaptive budget")
        if self.adaptive.max_total_samples is not None:
            return self.adaptive.max_total_samples
        return len(self.evaluated_counts()) * self.samples_per_count
