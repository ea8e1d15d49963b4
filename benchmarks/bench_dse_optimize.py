"""Budgeted optimizer versus exhaustive sweep: dies and frontier recall.

Runs the reference elasticnet grid (``examples/design_space.py``) with a
production-sized fixed budget (32 dies per failure count) two ways -- the
exhaustive :class:`DesignSpaceExplorer` sweep and the successive-halving
:class:`ParetoOptimizer` -- and gates two properties the optimizer promises:

* **frontier recall** -- every member of the exhaustive exact Pareto
  frontier survives pruning (100% recall), and every surviving row lies
  within ``frontier_slack`` of the exact frontier (no false member is
  dominated by more than the configured slack).  The optimizer's survivor
  set may legitimately exceed the exact frontier by near-ties: rows whose
  exact quality gap is inside the slack band are Monte-Carlo-ambiguous
  (their frontier membership flips with the sample budget), and the
  optimizer's contract is to keep them;
* **die savings** -- the optimizer's total die bill beats the exhaustive
  sweep's by at least :data:`SAVINGS_GATE` (measured: ~16x on this grid --
  probe cost is budget-independent while the exhaustive bill scales with
  ``samples_per_count``).

Both gates are deterministic, but the exhaustive sweep takes seconds, so
they run here rather than in tier-1.  Bit-identity across worker counts and
executors is tier-1's ``tests/test_optimize.py``.
"""

from __future__ import annotations

from repro.dse import (
    BenchmarkGridSpec,
    DesignSpaceExplorer,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    OptimizerSpec,
    ParetoOptimizer,
    SchemeGridSpec,
)

SAVINGS_GATE = 3.0
FRONTIER_SLACK = 0.01

# The examples/design_space.py grid with the exhaustive budget raised to a
# production 32 dies per failure count (the baseline being beaten; the
# optimizer's probe cost does not depend on it).
SPEC = ExperimentSpec(
    geometry=GeometrySpec(rows=1024, word_width=32),
    operating_grid=OperatingGridSpec(vdd_values=(0.64, 0.70, 0.78)),
    scheme_grid=SchemeGridSpec(
        specs=("no-protection", "p-ecc", "bit-shuffle-nfm2")
    ),
    budget=McBudgetSpec(
        samples_per_count=32,
        n_count_points=8,
        coverage=0.95,
        master_seed=2015,
        discard_multi_fault_words=False,
    ),
    benchmarks=BenchmarkGridSpec(names=("elasticnet",), scale=0.25, seed=17),
    quality_yield_target=0.9,
    optimizer=OptimizerSpec(frontier_slack=FRONTIER_SLACK),
)


def _frontier_keys(rows):
    return sorted((r["benchmark"], r["scheme"], r["vdd"]) for r in rows)


def test_optimizer_beats_exhaustive_with_full_recall(json_summary):
    exhaustive_result = DesignSpaceExplorer(SPEC).run()
    result = ParetoOptimizer(SPEC).run()
    exhaustive_keys = _frontier_keys(exhaustive_result.pareto())
    survivor_keys = result.frontier_keys()

    # 100% recall: every exact-frontier member survives pruning.
    missing = sorted(set(exhaustive_keys) - set(survivor_keys))
    assert not missing, f"exact frontier members pruned: {missing}"

    # Zero false members beyond the slack: a survivor outside the exact
    # frontier must not be dominated by more than frontier_slack in exact
    # quality at lower-or-equal energy (near-ties inside the slack band are
    # Monte-Carlo-ambiguous and are kept by contract).
    exact = {
        (r["benchmark"], r["scheme"], r["vdd"]): r
        for r in exhaustive_result.rows
    }
    extras = []
    for key in survivor_keys:
        if key in set(exhaustive_keys):
            continue
        row = exact[key]
        excess = max(
            (
                other["quality_at_yield"] - row["quality_at_yield"]
                for other in exhaustive_result.rows
                if other["benchmark"] == key[0]
                and other["total_read_energy_fj"]
                <= row["total_read_energy_fj"]
            ),
            default=0.0,
        )
        extras.append((key, excess))
        assert excess <= FRONTIER_SLACK + 1e-12, (
            f"false frontier member {key}: dominated by {excess:.6f} "
            f"in exact quality (> slack {FRONTIER_SLACK})"
        )

    # Die savings: the rung schedule must beat the exhaustive bill 3x.
    exhaustive_dies = result.exhaustive_dies
    ratio = result.savings_ratio()
    assert ratio >= SAVINGS_GATE, (
        f"optimizer spent {result.total_dies} dies vs {exhaustive_dies} "
        f"exhaustive ({ratio:.2f}x < {SAVINGS_GATE}x gate)"
    )

    json_summary(
        "dse_optimize",
        {
            "exhaustive_dies": exhaustive_dies,
            "optimizer_dies": result.total_dies,
            "evaluated_dies": result.evaluated_dies,
            "savings_ratio": ratio,
            "frontier_slack": FRONTIER_SLACK,
            "exhaustive_frontier": [list(k) for k in exhaustive_keys],
            "optimizer_frontier": [list(k) for k in survivor_keys],
            "frontier_recall": 1.0,
            "false_members_beyond_slack": 0,
            "near_tie_extras": [
                {"key": list(key), "excess_quality": excess}
                for key, excess in extras
            ],
            "pruned_rows": len(result.prune_log),
        },
    )

