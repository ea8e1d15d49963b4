"""Quality-aware yield criterion (Eqs. 3-6) and MSE distributions (Fig. 5).

The paper replaces the traditional zero-failure yield criterion with a
quality-aware one: a die is acceptable if its local MSE (Eq. 6) -- computed
from the residual error positions after the protection scheme has done its
work -- stays below an application-dependent bound.  The yield at a bound
``q`` is then ``Pr(MSE <= q)`` taken over the joint distribution of failure
counts (Eq. 4) and fault locations (Eq. 3, 5).

:class:`YieldAnalyzer` estimates that distribution for any protection scheme
by the same stratified Monte-Carlo procedure the paper uses for Fig. 5 and
wraps the result in :class:`MseDistribution`, which answers yield queries and
exports the CDF series that the Fig. 5 analysis, the CLI and the paper-claim
tests read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import ProtectionScheme
from repro.faultmodel.montecarlo import (
    FaultMapSampler,
    failure_count_pmf,
    failure_count_pmf_array,
    max_failures_for_coverage,
)
from repro.memory.organization import MemoryOrganization
from repro.quality.cdf import WeightedEcdf
from repro.quality.mse import mse_of_fault_map
from repro.scenarios.base import ScenarioSpec, validated_effective_p_cell

__all__ = ["MseDistribution", "YieldAnalyzer"]


@dataclass
class MseDistribution:
    """MSE distribution of a memory + scheme combination at one operating point.

    Attributes
    ----------
    scheme_name:
        Name of the protection scheme the distribution belongs to.
    p_cell:
        Bit-cell failure probability of the operating point.
    ecdf:
        Weighted empirical CDF of the per-die MSE, including the point mass of
        fault-free dies at MSE = 0.
    zero_fault_probability:
        ``Pr(N = 0)``, the probability mass sitting exactly at MSE = 0.
    max_failures:
        Largest failure count included in the Monte-Carlo sweep.
    samples:
        Total number of fault maps evaluated.
    """

    scheme_name: str
    p_cell: float
    ecdf: WeightedEcdf
    zero_fault_probability: float
    max_failures: int
    samples: int

    def yield_at_mse(self, mse_target: float) -> float:
        """Quality-aware yield: fraction of dies with MSE not exceeding the target."""
        if mse_target < 0:
            raise ValueError("the MSE target must be non-negative")
        return float(self.ecdf.probability_at_most(mse_target))

    def mse_at_yield(self, yield_target: float) -> float:
        """Smallest MSE bound that a fraction ``yield_target`` of dies satisfies."""
        return self.ecdf.quantile(yield_target)

    def cdf_series(
        self, mse_grid: Optional[Sequence[float]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(mse, P(MSE <= mse))`` points: the Fig. 5 curve for this scheme."""
        if mse_grid is None:
            return self.ecdf.curve()
        grid = np.asarray(mse_grid, dtype=np.float64)
        return grid, np.asarray(self.ecdf.probability_at_most(grid))


class YieldAnalyzer:
    """Monte-Carlo estimator of the quality-aware yield criterion.

    Parameters
    ----------
    organization:
        Memory geometry (the paper uses the 16 kB / 32-bit configuration).
    p_cell:
        Bit-cell failure probability of the operating point under study.
    rng:
        Random generator for fault-map sampling (pass a seeded generator for
        reproducible experiments).
    coverage:
        Fraction of the die population that must be covered by the failure
        count sweep (0.99 in the paper's application study).
    scenario:
        Optional :class:`~repro.scenarios.base.ScenarioSpec` naming the
        fault-scenario pipeline the sampled dies run through (and whose
        operating-point shift the failure-count grid follows).  ``None`` is
        the default i.i.d. population with the historical sampling stream.
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        p_cell: float,
        rng: Optional[np.random.Generator] = None,
        coverage: float = 0.99,
        scenario: Optional[ScenarioSpec] = None,
    ) -> None:
        if not 0.0 < p_cell < 1.0:
            raise ValueError("p_cell must be in (0, 1)")
        self._organization = organization
        self._p_cell = p_cell
        self._rng = rng if rng is not None else np.random.default_rng()
        self._coverage = coverage
        if scenario is not None and scenario.is_default:
            scenario = None
        self._scenario_spec = scenario
        self._scenario = scenario.build() if scenario is not None else None
        # The shift-and-validate rule is shared with ExperimentConfig so the
        # two failure-count grids can never disagree about a scenario.
        self._effective_p_cell = (
            validated_effective_p_cell(self._scenario, p_cell)
            if self._scenario is not None
            else p_cell
        )
        self._max_failures = max_failures_for_coverage(
            organization.total_cells, self._effective_p_cell, coverage
        )

    def _sampler(self) -> FaultMapSampler:
        """A sampler over this analyzer's generator and scenario pipeline."""
        return FaultMapSampler(
            self._organization, self._rng, scenario=self._scenario
        )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def organization(self) -> MemoryOrganization:
        """Memory geometry under analysis."""
        return self._organization

    @property
    def p_cell(self) -> float:
        """Bit-cell failure probability of the operating point."""
        return self._p_cell

    @property
    def max_failures(self) -> int:
        """Largest failure count included in the sweep (coverage-determined)."""
        return self._max_failures

    @property
    def effective_p_cell(self) -> float:
        """The probability the failure-count grid is computed at (scenario-shifted)."""
        return self._effective_p_cell

    @property
    def zero_fault_probability(self) -> float:
        """``Pr(N = 0)`` for the operating point."""
        return failure_count_pmf(
            self._organization.total_cells, self._effective_p_cell, 0
        )

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def mse_distribution(
        self,
        scheme: ProtectionScheme,
        samples_per_count: int = 200,
        fault_maps_by_count: Optional[Dict[int, List]] = None,
        include_fault_free: bool = True,
    ) -> MseDistribution:
        """Estimate the MSE distribution of ``scheme`` at this operating point.

        Parameters
        ----------
        scheme:
            The protection scheme to analyse.
        samples_per_count:
            Number of random fault maps evaluated for every failure count in
            ``1..max_failures``.  (The paper scales the per-count budget by
            ``Pr(N = n)``; using a flat budget with probability re-weighting is
            an equally unbiased estimator with better tail resolution, and the
            weights applied are identical.)
        fault_maps_by_count:
            Pre-generated fault maps keyed by failure count.  When supplied the
            same dies can be replayed against several schemes so the comparison
            in Fig. 5 is paired sample-by-sample.
        include_fault_free:
            Whether to include the ``Pr(N = 0)`` point mass at MSE = 0.  The
            paper's Eq. 5 sums from one failure upwards, i.e. it characterises
            dies that do contain faults; pass ``False`` to reproduce that
            conditional view.
        """
        if scheme.word_width != self._organization.word_width:
            raise ValueError("scheme word width does not match the memory")
        if samples_per_count <= 0:
            raise ValueError("samples_per_count must be positive")
        sampler = self._sampler()

        groups: List[Tuple[np.ndarray, float]] = []
        if include_fault_free:
            # Fault-free dies form an exact point mass at MSE = 0; Eq. 5 starts
            # its sum at one failure, so the zero-failure term is added here
            # analytically rather than sampled.
            groups.append((np.array([0.0]), self.zero_fault_probability))

        # One cached-PMF call covers every stratum weight (bit-identical to
        # the historical per-count scalar evaluation); the sweep engine's
        # count grid uses the same table, so the weighting math lives in one
        # place.
        pmf = failure_count_pmf_array(
            self._organization.total_cells,
            self._effective_p_cell,
            self._max_failures,
        )
        total_samples = 0
        for n in range(1, self._max_failures + 1):
            probability = float(pmf[n])
            if fault_maps_by_count is not None and n in fault_maps_by_count:
                maps = fault_maps_by_count[n]
            else:
                # The legacy per-map stream keeps this analyzer's seeded
                # Fig. 5 realisations stable across releases; scenario
                # pipelines have no pinned stream and keep their fast
                # vectorized samplers.
                maps = sampler.sample_batch(
                    n,
                    samples_per_count,
                    vectorized=self._scenario is not None,
                )
            if not maps:
                continue
            mses = np.array(
                [mse_of_fault_map(fault_map, scheme) for fault_map in maps]
            )
            groups.append((mses, probability))
            total_samples += len(maps)

        ecdf = WeightedEcdf.from_groups(groups)
        return MseDistribution(
            scheme_name=scheme.name,
            p_cell=self._p_cell,
            ecdf=ecdf,
            zero_fault_probability=self.zero_fault_probability,
            max_failures=self._max_failures,
            samples=total_samples,
        )

    def shared_fault_maps(
        self, samples_per_count: int = 200
    ) -> Dict[int, List]:
        """Generate one set of fault maps reusable across schemes (paired comparison)."""
        sampler = self._sampler()
        vectorized = self._scenario is not None
        return {
            n: sampler.sample_batch(n, samples_per_count, vectorized=vectorized)
            for n in range(1, self._max_failures + 1)
        }

    def compare_schemes(
        self,
        schemes: Sequence[ProtectionScheme],
        samples_per_count: int = 200,
        include_fault_free: bool = True,
        workers: int = 1,
    ) -> Dict[str, MseDistribution]:
        """Evaluate several schemes against the *same* Monte-Carlo dies (Fig. 5).

        The shared die population is drawn serially from this analyzer's
        generator by :func:`repro.sim.runner.legacy_fault_maps` (the same
        maps as :meth:`shared_fault_maps`, the historical stream the pinned
        Fig. 5 realisations rely on), then the per-die evaluation --
        deterministic given the die -- runs on the sharded
        :class:`~repro.sim.engine.SweepEngine`.  ``workers`` fans the dies
        out over that many processes; results are bit-identical for every
        worker count.
        """
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if not schemes:
            return {}
        # Imported here: the sweep engine sits above this module.
        from repro.sim.engine import ExperimentConfig, SweepEngine
        from repro.sim.runner import legacy_fault_maps

        config = ExperimentConfig(
            rows=self._organization.rows,
            word_width=self._organization.word_width,
            p_cell=self._p_cell,
            coverage=self._coverage,
            samples_per_count=samples_per_count,
            scheme_specs=tuple(scheme.name for scheme in schemes),
            discard_multi_fault_words=False,
            scenario=self._scenario_spec,
        )
        return SweepEngine(config, schemes=schemes).run_mse(
            workers=workers,
            fault_maps=legacy_fault_maps(config, self._rng),
            include_fault_free=include_fault_free,
        )
