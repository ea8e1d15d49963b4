"""Stratified Monte-Carlo runner for the application quality study (Fig. 7).

For every failure count ``N = 1..Nmax`` (where ``Nmax`` covers 99 % of all
dies at the operating ``Pcell``) the runner draws random fault maps, stores
each benchmark's training features through the faulty memory behind every
scheme under study, retrains, and records the resulting quality metric.  The
per-count results are weighted by ``Pr(N = n)`` (Eq. 4) -- together with the
fault-free point mass -- to form the quality CDFs plotted in Fig. 7.

This class is the legacy, generator-seeded front end of the sweep: fault maps
are drawn sequentially from the caller's ``np.random.Generator`` (preserving
the exact random stream of the original serial implementation and its golden
regression curves), and evaluation, parallel fan-out, and checkpointing are
delegated to :class:`repro.sim.engine.SweepEngine`.  Because the evaluation
of a drawn die is deterministic, ``run(..., workers=N)`` returns bit-identical
distributions for every ``N``.  New code that wants parallel *sampling* as
well (per-die seed-sequence children, reproducible for any worker count)
should use :class:`~repro.sim.engine.SweepEngine` with a seeded
:class:`~repro.sim.engine.ExperimentConfig` directly.

This front end is fixed-budget by construction: its die population is
pre-drawn from the shared generator before evaluation starts, which is
exactly what an adaptive (confidence-driven) budget cannot do.  Sweeps that
want :class:`~repro.sim.engine.AdaptiveBudget` early stopping go through the
engine's seeded sampling path (``figure5_mse_cdf`` / ``figure7_quality``
``adaptive=...``, or ``McBudgetSpec(mode="adaptive")`` in a DSE spec).

:func:`legacy_fault_maps` is the one place a legacy population is pre-drawn;
the legacy paths of ``figure5_mse_cdf``, ``figure7_quality`` and
``YieldAnalyzer.compare_schemes`` hand its maps to the engine too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import ProtectionScheme
from repro.faultmodel.montecarlo import FaultMapSampler, max_failures_for_coverage
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.quantize.fixedpoint import FixedPointFormat
from repro.sim.engine import (
    ExperimentConfig,
    QualityDistribution,
    SweepEngine,
    evaluated_failure_counts,
)
from repro.sim.experiment import BenchmarkDefinition

__all__ = ["QualityDistribution", "QualityExperimentRunner", "legacy_fault_maps"]


def legacy_fault_maps(
    config: ExperimentConfig,
    rng: np.random.Generator,
    max_attempts: int = 1000,
) -> Dict[Tuple[int, int], FaultMap]:
    """Pre-draw every die of ``config`` from a shared legacy generator stream.

    Dies are drawn one at a time in the canonical count-major order, each with
    the per-map rejection stream of the original serial implementations --
    exactly the sequence the pinned Fig. 5 and Fig. 7 golden curves were
    produced with.  The result plugs into ``SweepEngine.run(...,
    fault_maps=...)``.

    A non-default ``config.scenario`` routes every draw through the same
    fault-scenario pipeline the seeded engine sampling uses (the shared
    generator then feeds the pipeline serially); the default i.i.d. scenario
    keeps the exact historical stream.
    """
    sampler = FaultMapSampler(
        config.organization,
        rng,
        scenario=None if config.scenario is None else config.build_scenario(),
    )
    max_per_word = 1 if config.discard_multi_fault_words else None
    fault_maps: Dict[Tuple[int, int], FaultMap] = {}
    for count_index, count in enumerate(config.evaluated_counts()):
        # One call per stratum.  Without a scenario, vectorized=False draws
        # the dies one after another, each with its own rejection loop: the
        # exact per-map stream the pinned golden curves depend on.  Scenario
        # pipelines have no legacy stream to preserve, so their stratum is
        # drawn as one vectorized batch.
        batch = sampler.sample_batch(
            count,
            config.samples_per_count,
            max_faults_per_word=max_per_word,
            vectorized=config.scenario is not None,
            max_attempts=max_attempts,
        )
        for sample_index, fault_map in enumerate(batch):
            fault_maps[(count_index, sample_index)] = fault_map
    return fault_maps


class QualityExperimentRunner:
    """Runs one benchmark against several schemes over a shared set of faulty dies.

    Parameters
    ----------
    organization:
        Memory geometry (the 16 kB / 32-bit configuration in the paper).
    p_cell:
        Bit-cell failure probability of the operating point (1e-3 in Fig. 7).
    rng:
        Seeded random generator for reproducible fault maps.
    coverage:
        Fraction of the die population covered by the failure-count sweep.
    fixed_point:
        Quantisation format for the stored training features.
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        p_cell: float,
        rng: Optional[np.random.Generator] = None,
        coverage: float = 0.99,
        fixed_point: Optional[FixedPointFormat] = None,
    ) -> None:
        if not 0.0 < p_cell < 1.0:
            raise ValueError("p_cell must be in (0, 1)")
        self._organization = organization
        self._p_cell = p_cell
        self._rng = rng if rng is not None else np.random.default_rng()
        self._coverage = coverage
        self._fixed_point = fixed_point
        self._max_failures = max_failures_for_coverage(
            organization.total_cells, p_cell, coverage
        )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def organization(self) -> MemoryOrganization:
        """Memory geometry under study."""
        return self._organization

    @property
    def p_cell(self) -> float:
        """Operating-point bit-cell failure probability."""
        return self._p_cell

    @property
    def max_failures(self) -> int:
        """Largest failure count in the sweep (coverage-determined Nmax)."""
        return self._max_failures

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def failure_counts(self, n_points: Optional[int] = None) -> List[int]:
        """Failure counts included in the sweep.

        By default every count ``1..Nmax`` is evaluated.  When ``n_points`` is
        given, a geometric subsample of the counts is used so expensive
        benchmarks stay tractable; interpolation between the evaluated counts
        is unnecessary because the per-count probabilities of the skipped
        counts are re-assigned to the nearest evaluated count.
        """
        return evaluated_failure_counts(self._max_failures, n_points)

    def run(
        self,
        benchmark: BenchmarkDefinition,
        schemes: Sequence[ProtectionScheme],
        samples_per_count: int = 20,
        n_count_points: Optional[int] = None,
        discard_multi_fault_words: bool = True,
        workers: int = 1,
        checkpoint: Optional[str] = None,
    ) -> Dict[str, QualityDistribution]:
        """Run the benchmark for every scheme over a shared population of dies.

        ``discard_multi_fault_words`` reproduces the paper's simplification for
        Fig. 7: fault maps containing a row with more than one faulty cell are
        redrawn, so the SECDED reference is exactly error-free and the
        comparison isolates the single-fault-per-word regime.

        ``workers`` fans the (deterministic) per-die evaluation out over that
        many processes; the fault maps are always drawn serially from this
        runner's generator first, so the returned distributions are
        bit-identical for every worker count.  ``checkpoint`` optionally names
        a JSON results cache written after every completed shard (see
        :meth:`repro.sim.engine.SweepEngine.run`).
        """
        if samples_per_count <= 0:
            raise ValueError("samples_per_count must be positive")
        config = ExperimentConfig(
            rows=self._organization.rows,
            word_width=self._organization.word_width,
            p_cell=self._p_cell,
            coverage=self._coverage,
            samples_per_count=samples_per_count,
            n_count_points=n_count_points,
            master_seed=None,
            scheme_specs=tuple(scheme.name for scheme in schemes),
            discard_multi_fault_words=discard_multi_fault_words,
            benchmark=benchmark.name,
        )
        return SweepEngine(config, schemes=schemes).run(
            benchmark,
            workers=workers,
            checkpoint=checkpoint,
            fault_maps=legacy_fault_maps(config, self._rng),
            fixed_point=self._fixed_point,
        )
