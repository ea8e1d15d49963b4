"""Legacy sampling: one die population pre-drawn from a shared generator.

The Fig. 5 and Fig. 7 golden regression curves were produced by serial
implementations that drew every fault map, one after another, from the
caller's ``np.random.Generator``.  :func:`legacy_fault_maps` is the one place
that stream is reproduced: it pre-draws every die of an
:class:`~repro.sim.config.ExperimentConfig` in the canonical count-major
order and returns the maps in the shape
``SweepEngine.run``/``run_mse(fault_maps=...)`` accept.  Evaluation, parallel
fan-out, checkpointing and the result store stay with the engine, so a legacy
sweep is bit-identical for every worker count.

Both figure front ends use it for ``sampling="legacy"``
(:func:`~repro.analysis.figures.figure5_mse_cdf`) and for runs without a
``master_seed`` (:func:`~repro.analysis.figures.figure7_quality`).  A legacy
population is drawn up front, so it supports only the fixed budget; adaptive
sweeps draw each die from its own seed-sequence child instead.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.faultmodel.montecarlo import FaultMapSampler
from repro.memory.faults import FaultMap
from repro.sim.config import ExperimentConfig

__all__ = ["legacy_fault_maps"]


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
    sampler = FaultMapSampler(config.organization, rng, config.build_scenario())
    max_per_word = 1 if config.discard_multi_fault_words else None
    fault_maps: Dict[Tuple[int, int], FaultMap] = {}
    for count_index, count in enumerate(config.evaluated_counts()):
        # One call per stratum.  Under the default scenario, vectorized=False
        # draws the dies one after another, each with its own rejection
        # loop: the exact per-map stream the pinned golden curves depend on.
        # Other scenario pipelines have no legacy stream to preserve, so
        # their stratum is drawn as one vectorized batch.
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
