"""Design-space sweep: checkpoint-cache replay speed.

Runs a 3-voltage x 3-scheme x 1-benchmark DSE grid (the ``repro dse run``
smoke configuration) cold, then again against the same checkpoint
directory.  The second run replays every grid point from the per-point
SweepEngine caches and must complete at least 10x faster than the cold
sweep.  That the replay needs no evaluation, and that the grid is
bit-identical across worker counts, are tier-1 checks in
``tests/test_dse.py``.
"""

from __future__ import annotations

import time

from repro.dse import (
    BenchmarkGridSpec,
    DesignSpaceExplorer,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    SchemeGridSpec,
)

REPLAY_SPEEDUP_GATE = 10.0

SPEC = ExperimentSpec(
    geometry=GeometrySpec(rows=1024, word_width=32),
    operating_grid=OperatingGridSpec(vdd_values=(0.64, 0.70, 0.78)),
    scheme_grid=SchemeGridSpec(
        specs=("no-protection", "p-ecc", "bit-shuffle-nfm2")
    ),
    budget=McBudgetSpec(
        samples_per_count=4,
        n_count_points=8,
        coverage=0.95,
        master_seed=2015,
        discard_multi_fault_words=False,
    ),
    benchmarks=BenchmarkGridSpec(names=("elasticnet",), scale=0.25, seed=17),
    quality_yield_target=0.9,
)


def test_dse_checkpoint_cache_replays_fast(tmp_path, json_summary):
    directory = str(tmp_path / "grid-cache")

    start = time.perf_counter()
    cold = DesignSpaceExplorer(SPEC, checkpoint_dir=directory).run()
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    replay = DesignSpaceExplorer(SPEC, checkpoint_dir=directory).run()
    replay_seconds = time.perf_counter() - start

    assert replay.rows == cold.rows

    speedup = cold_seconds / replay_seconds
    json_summary(
        "dse_checkpoint_replay",
        {
            "cold_seconds": cold_seconds,
            "replay_seconds": replay_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= REPLAY_SPEEDUP_GATE, (
        f"expected >= {REPLAY_SPEEDUP_GATE}x checkpoint replay speedup, "
        f"measured {speedup:.1f}x"
    )
