"""Fault-scenario sampler speed: clustered burst placement and the transient tier.

* **vectorized clustered sampler >= 10x** -- the batch NumPy burst-placement
  sampler behind the ``clustered`` scenario must beat the per-map/per-cluster
  scalar reference (``vectorized=False``, the same rejection rule written as
  plain Python) by at least :data:`CLUSTER_SPEEDUP_GATE` on a Monte-Carlo
  sized batch;
* a timing record of the batched transient-tier sampler against its scalar
  reference.

Scenario and transient sweeps being bit-identical across worker counts, and
repair never lowering the yield, are tier-1 checks in
``tests/test_scenarios.py`` and ``tests/test_transient.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.memory.organization import MemoryOrganization
from repro.scenarios import ClusterTransform, build_scenario

CLUSTER_SPEEDUP_GATE = 10.0

ORG = MemoryOrganization.paper_16kb()
CLUSTER_BATCH = 1000
CLUSTER_FAULTS = 32


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _best_time(fn, repeats: int = 3):
    """Best-of-``repeats`` wall time (robust against scheduler jitter)."""
    result, best = _time(fn)
    for _ in range(repeats - 1):
        result, seconds = _time(fn)
        best = min(best, seconds)
    return result, best


def test_clustered_vectorized_sampler_speedup(json_summary):
    """The vectorized burst sampler must beat the scalar reference >= 10x."""
    transform = ClusterTransform(cluster_size=4, row_fraction=0.5)

    def draw(vectorized: bool, seed: int):
        return transform.sample_cells(
            ORG,
            CLUSTER_FAULTS,
            CLUSTER_BATCH,
            np.random.default_rng(seed),
            vectorized=vectorized,
        )

    # Warm-up outside the timed sections; gate on best-of-3 timings.
    draw(True, 0), draw(False, 0)
    vec_cells, vec_seconds = _best_time(lambda: draw(True, 1))
    ref_cells, ref_seconds = _best_time(lambda: draw(False, 2))

    # Both implementations produce valid layouts of the exact fault count.
    for cells in (vec_cells, ref_cells):
        assert len(cells) == CLUSTER_BATCH
        for rows, cols in cells:
            assert rows.size == CLUSTER_FAULTS
            flat = rows * ORG.word_width + cols
            assert np.unique(flat).size == CLUSTER_FAULTS

    speedup = ref_seconds / vec_seconds
    json_summary(
        "clustered_sampler",
        {
            "maps": CLUSTER_BATCH,
            "faults_per_map": CLUSTER_FAULTS,
            "scalar_seconds": ref_seconds,
            "vectorized_seconds": vec_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= CLUSTER_SPEEDUP_GATE, (
        f"vectorized clustered sampler only {speedup:.1f}x faster than the "
        f"scalar reference (gate: {CLUSTER_SPEEDUP_GATE}x)"
    )


def test_transient_tier_vectorized_vs_scalar_summary(json_summary):
    """Timing of the batched tier sampler against its scalar reference.

    Informational (no speedup gate: the tier is a small fraction of a
    quality sweep); the bit-identity of the two paths is asserted.
    """
    scenario = build_scenario(
        "transient", ser=1e-3, disturb=5e-4, scrub_interval=2
    )
    tier = scenario.transient
    n_values, passes = 4096, 8

    def sample(vectorized: bool):
        rng = np.random.default_rng(np.random.SeedSequence(7))
        effects = tier.sample_read_effects(
            ORG, n_values, passes, rng, vectorized=vectorized
        )
        value_rows = np.arange(n_values, dtype=np.int64) % ORG.rows
        return effects.observed_masks(value_rows)

    sample(True), sample(False)  # warm-up
    vec_masks, vec_seconds = _best_time(lambda: sample(True))
    ref_masks, ref_seconds = _best_time(lambda: sample(False))
    assert np.array_equal(vec_masks, ref_masks)
    json_summary(
        "transient_tier_sampler",
        {
            "n_values": n_values,
            "passes": passes,
            "scalar_seconds": ref_seconds,
            "batched_seconds": vec_seconds,
            "speedup": ref_seconds / vec_seconds,
        },
    )
