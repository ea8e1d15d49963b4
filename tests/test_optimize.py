"""Tests for the budgeted Pareto optimizer (``repro.dse.optimize``).

Covers the determinism contract (bit-identical frontier, rows, and prune
log across worker counts and executor tiers), exact frontier recovery
against the exhaustive sweep at zero slack, multi-rung successive-halving
progression, warm store replay, kill-and-resume mid-run from the store,
serialisation round-trips (OptimizerSpec, OptimizeResult, DseResult
adaptive reports), and the memoized failure-count PMF the rung probes
lean on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from repro.dse import (
    BenchmarkGridSpec,
    DesignSpaceExplorer,
    DseResult,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    OptimizeResult,
    OptimizerSpec,
    ParetoOptimizer,
    PruneEvent,
    SchemeGridSpec,
)
from repro.dse import optimize
from repro.faultmodel.montecarlo import (
    failure_count_pmf,
    failure_count_pmf_array,
)
from repro.sim import engine as engine_module
from repro.store.store import ResultStore


def _smoke_spec(**overrides):
    """A fast three-cell grid whose quality actually varies across dies."""
    fields = dict(
        geometry=GeometrySpec(rows=128),
        operating_grid=OperatingGridSpec(vdd_values=(0.55, 0.60, 0.65)),
        scheme_grid=SchemeGridSpec(
            specs=("no-protection", "p-ecc", "bit-shuffle-nfm2")
        ),
        budget=McBudgetSpec(
            samples_per_count=8,
            n_count_points=3,
            coverage=0.9,
            master_seed=7,
            discard_multi_fault_words=False,
        ),
        benchmarks=BenchmarkGridSpec(names=("elasticnet",), scale=0.25, seed=17),
        quality_yield_target=0.9,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


_FAST_OPT = OptimizerSpec(
    rungs=3, eta=2.0, target_ci=0.02, round_dies=2, initial_samples_per_count=2
)

# A quality threshold inside the per-die spread of the 0.65 V cell: the
# adaptive probe cannot reach its CI target at the rung-0 cap, so the cell
# climbs the full rung ladder (see test_multirung_progression).
_MULTIRUNG_OPT = dataclasses.replace(_FAST_OPT, threshold=0.999)


def _result_fingerprint(result):
    """The scientific outputs that must be bit-identical across reruns.

    Cell statuses are excluded: their ``evaluated_dies``/``store_hits``
    bookkeeping legitimately differs between a cold run and a store replay
    of the same experiment.
    """
    return (
        result.rows,
        [event.to_dict() for event in result.prune_log],
        result.frontier_keys(),
        result.total_dies,
    )


def _reference_spec():
    """The examples/design_space.py grid (optimizer acceptance reference)."""
    return ExperimentSpec(
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


def test_frontier_matches_exhaustive_exact_at_zero_slack():
    spec = _reference_spec()
    exhaustive = DesignSpaceExplorer(spec, workers=2).run()
    result = ParetoOptimizer(spec, workers=2).run()
    exact_keys = sorted(
        (row["benchmark"], row["scheme"], row["vdd"])
        for row in exhaustive.pareto()
    )
    # At matched budget and zero slack, the optimizer recovers the exact
    # exhaustive frontier -- same members, nothing pruned that belongs.
    assert result.frontier_keys() == exact_keys
    # And it spends strictly fewer dies than the exhaustive grid.
    assert result.total_dies < result.exhaustive_dies
    assert result.savings_ratio() > 1.0


def test_bit_identical_across_worker_counts_and_executors():
    spec = _smoke_spec()
    reference = ParetoOptimizer(spec, optimizer=_FAST_OPT, workers=1).run()
    for workers in (2, 4):
        parallel = ParetoOptimizer(
            spec, optimizer=_FAST_OPT, workers=workers
        ).run()
        assert _result_fingerprint(parallel) == _result_fingerprint(reference)
        assert parallel.cell_statuses == reference.cell_statuses
    inline = ParetoOptimizer(
        spec, optimizer=_FAST_OPT, workers=2, executor="inline"
    ).run()
    assert _result_fingerprint(inline) == _result_fingerprint(reference)
    assert inline.cell_statuses == reference.cell_statuses


def test_multirung_progression():
    spec = _smoke_spec(operating_grid=OperatingGridSpec(vdd_values=(0.60, 0.65)))
    result = ParetoOptimizer(spec, optimizer=_MULTIRUNG_OPT).run()
    by_vdd = {status["vdd"]: status for status in result.cell_statuses}
    # The 0.65 V cell never reaches the CI target: it must climb every rung
    # and exhaust with the full geometric die schedule spent.
    assert by_vdd[0.65]["status"] == "exhausted"
    assert by_vdd[0.65]["last_rung"] == _MULTIRUNG_OPT.rungs - 1
    assert by_vdd[0.65]["dies"] > by_vdd[0.60]["dies"]
    # Multi-rung runs obey the same determinism contract as single-rung ones.
    again = ParetoOptimizer(spec, optimizer=_MULTIRUNG_OPT, workers=2).run()
    assert _result_fingerprint(again) == _result_fingerprint(result)


def test_warm_store_replay_is_free_and_bit_identical(tmp_path):
    spec = _smoke_spec(operating_grid=OperatingGridSpec(vdd_values=(0.60, 0.65)))
    store = ResultStore(str(tmp_path / "store"))
    try:
        cold = ParetoOptimizer(
            spec, optimizer=_MULTIRUNG_OPT, store=store
        ).run()
        assert cold.evaluated_dies > 0
        assert cold.store_hits == 0
        rungs = store.query(kind="dse-rung")
        assert rungs, "cold run recorded no dse-rung records"
        before = len(store.session_events)
        warm = ParetoOptimizer(
            spec, optimizer=_MULTIRUNG_OPT, store=store
        ).run()
        warm_events = store.session_events[before:]
    finally:
        store.close()
    # Every rung replays from the store: no dies are re-evaluated, and the
    # result is bit-identical to the cold run.
    assert warm.evaluated_dies == 0
    assert warm.store_hits == len(rungs)
    # The store logs every read as a hit and the CLI prints one "served"
    # line per hit, so the warm run must read only the records it replays.
    hits = sum(event["type"] == "hit" for event in warm_events)
    assert hits == warm.store_hits
    assert _result_fingerprint(warm) == _result_fingerprint(cold)
    # Rung records carry the audit meta CI greps for.
    for record in rungs:
        assert record["meta"]["evaluation"] == "dse-rung"
        assert "evaluated_dies" in record["meta"]


class _CrashingStore:
    """Store proxy that dies after ``budget`` writes (simulated crash)."""

    def __init__(self, store, budget):
        self._store = store
        self.writes_left = budget

    def put_record(self, key, kind, payload, meta=None):
        if self.writes_left <= 0:
            raise RuntimeError("simulated crash mid-run")
        self.writes_left -= 1
        return self._store.put_record(key, kind, payload, meta)

    def __getattr__(self, name):
        return getattr(self._store, name)


def test_kill_and_resume_from_store(tmp_path):
    spec = _smoke_spec(operating_grid=OperatingGridSpec(vdd_values=(0.60, 0.65)))
    reference = ParetoOptimizer(spec, optimizer=_MULTIRUNG_OPT).run()
    total_rungs = sum(
        status["last_rung"] + 1 for status in reference.cell_statuses
    )
    assert total_rungs >= 3, "spec no longer exercises a multi-rung resume"

    for crash_after in (1, total_rungs - 1):
        store = ResultStore(str(tmp_path / f"store-{crash_after}"))
        try:
            crashing = _CrashingStore(store, crash_after)
            with pytest.raises(RuntimeError, match="simulated crash"):
                ParetoOptimizer(
                    spec, optimizer=_MULTIRUNG_OPT, store=crashing
                ).run()
            # Relaunch against the surviving store (fresh checkpoint dir):
            # completed rungs replay, the rest recompute, and the outcome is
            # bit-identical to the uninterrupted reference run.
            resumed = ParetoOptimizer(
                spec, optimizer=_MULTIRUNG_OPT, store=store
            ).run()
        finally:
            store.close()
        assert resumed.store_hits == crash_after
        assert resumed.evaluated_dies < reference.evaluated_dies
        assert _result_fingerprint(resumed) == _result_fingerprint(reference)


def test_rerun_on_same_checkpoint_dir_reproduces_cold_run(tmp_path):
    # Each rung keeps its own round-state file, so a re-run on the same
    # directory finds every rung finished at its own cap -- never a later
    # rung's larger state -- and replays the cold run without a new die.
    spec = _smoke_spec()
    cold = ParetoOptimizer(spec, optimizer=_MULTIRUNG_OPT).run()
    checkpoint_dir = str(tmp_path / "ckpt")
    runs = [
        ParetoOptimizer(
            spec, optimizer=_MULTIRUNG_OPT, checkpoint_dir=checkpoint_dir
        ).run()
        for _ in range(2)
    ]
    assert runs[0].evaluated_dies == cold.evaluated_dies
    assert runs[1].evaluated_dies == 0
    for result in runs:
        assert _result_fingerprint(result) == _result_fingerprint(cold)


# sha256 over the sorted (file name, sha256 of its bytes) pairs of the rung
# files test_rung_checkpoint_bytes writes.
_RUNG_FILES_SHA256 = (
    "3570f8a85edeaf829c8e3b45edf96428f35e2a6b680bcedc79a16f2604a2e5ef"
)


def test_rung_checkpoint_bytes(tmp_path):
    # The 0.60 V cell stops at rung 0 and the 0.65 V cell climbs all three
    # rungs, so the pin covers each rung's copy of the previous rung's file,
    # its resume and its rewrite -- byte for byte.
    spec = _smoke_spec(operating_grid=OperatingGridSpec(vdd_values=(0.60, 0.65)))
    checkpoint_dir = tmp_path / "ckpt"
    ParetoOptimizer(
        spec, optimizer=_MULTIRUNG_OPT, checkpoint_dir=str(checkpoint_dir)
    ).run()
    names = sorted(os.listdir(checkpoint_dir))
    assert len(names) == 1 + _MULTIRUNG_OPT.rungs
    digest = hashlib.sha256()
    for name in names:
        data = (checkpoint_dir / name).read_bytes()
        digest.update(f"{name}\0{hashlib.sha256(data).hexdigest()}\n".encode())
    assert digest.hexdigest() == _RUNG_FILES_SHA256


# sha256 of the result files test_result_file_bytes writes for _smoke_spec().
_DSE_RESULT_SHA256 = (
    "fb2c7cde6e24b466f16c589cd51e13a345a6273e44c12bc4d5443b01cb292238"
)
_OPTIMIZE_RESULT_SHA256 = (
    "a16194a7f9b0f9278eb7c87426fdc9ca6b00178cf42ae926fa58787e7168110b"
)


def test_result_file_bytes(tmp_path):
    # The exhaustive table and the optimizer's audit table (with pruned rows
    # and a cell that climbs every rung), byte for byte as save() writes them.
    spec = _smoke_spec()
    dse_path = tmp_path / "dse.json"
    DesignSpaceExplorer(spec).run().save(str(dse_path))
    optimize_path = tmp_path / "optimize.json"
    optimized = ParetoOptimizer(spec, optimizer=_MULTIRUNG_OPT).run()
    assert optimized.prune_log
    optimized.save(str(optimize_path))
    assert hashlib.sha256(dse_path.read_bytes()).hexdigest() == _DSE_RESULT_SHA256
    assert (
        hashlib.sha256(optimize_path.read_bytes()).hexdigest()
        == _OPTIMIZE_RESULT_SHA256
    )


def test_killed_mid_rung_resumes_from_checkpoint_dir(tmp_path, monkeypatch):
    spec = _smoke_spec(operating_grid=OperatingGridSpec(vdd_values=(0.60, 0.65)))
    real_summarize = engine_module._summarize_shard
    shard_dies = []

    def counting(entries, context):
        shard_dies.append(len(entries))
        return real_summarize(entries, context)

    monkeypatch.setattr(engine_module, "_summarize_shard", counting)
    cold = ParetoOptimizer(spec, optimizer=_MULTIRUNG_OPT).run()
    total_shards = len(shard_dies)
    assert total_shards >= 4, "spec no longer kills inside a later rung"

    for kill_after in (total_shards // 2, total_shards - 1):
        done = []

        def dies_after_n_shards(entries, context):
            if len(done) >= kill_after:
                raise RuntimeError("simulated kill mid-rung")
            done.append(len(entries))
            return real_summarize(entries, context)

        checkpoint_dir = str(tmp_path / f"ckpt-{kill_after}")
        monkeypatch.setattr(
            engine_module, "_summarize_shard", dies_after_n_shards
        )
        with pytest.raises(RuntimeError, match="simulated kill"):
            ParetoOptimizer(
                spec, optimizer=_MULTIRUNG_OPT, checkpoint_dir=checkpoint_dir
            ).run()
        monkeypatch.setattr(engine_module, "_summarize_shard", real_summarize)
        resumed = ParetoOptimizer(
            spec, optimizer=_MULTIRUNG_OPT, checkpoint_dir=checkpoint_dir
        ).run()
        assert _result_fingerprint(resumed) == _result_fingerprint(cold)
        # Every round here is a single shard, checkpointed once it folds, so
        # the two runs together simulate each die exactly once.
        assert sum(done) + resumed.evaluated_dies == cold.evaluated_dies


def test_optimizer_spec_json_round_trip():
    opt = OptimizerSpec(
        rungs=4,
        eta=3.0,
        rung0_dies=8,
        frontier_slack=0.01,
        target_ci=0.01,
        threshold=0.995,
        round_dies=4,
    )
    spec = _smoke_spec(optimizer=opt)
    rebuilt = ExperimentSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))
    )
    assert rebuilt == spec
    assert rebuilt.optimizer == opt
    # Older files carry a no-op warm_start flag: either value loads as the
    # same spec, and it is not written back.
    assert "warm_start" not in spec.to_dict()["optimizer"]
    for flag in (True, False):
        legacy = spec.to_dict()
        legacy["optimizer"]["warm_start"] = flag
        assert ExperimentSpec.from_dict(legacy) == spec
    # A spec without the optimizer section round-trips to None.
    bare = _smoke_spec()
    assert "optimizer" not in bare.to_dict()
    assert ExperimentSpec.from_dict(bare.to_dict()).optimizer is None


def test_optimizer_spec_validation():
    with pytest.raises(ValueError, match="rungs"):
        OptimizerSpec(rungs=0)
    with pytest.raises(ValueError, match="eta"):
        OptimizerSpec(eta=1.0)
    with pytest.raises(ValueError, match="rung0_dies"):
        OptimizerSpec(rung0_dies=1)
    for slack in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="frontier_slack"):
            OptimizerSpec(frontier_slack=slack)
    # Adaptive knobs are validated by the engine's own budget constructor.
    with pytest.raises(ValueError):
        OptimizerSpec(target_ci=0.0)
    # The optimizer layer requires a fixed exhaustive-equivalent budget.
    with pytest.raises(ValueError, match="fixed"):
        _smoke_spec(
            budget=McBudgetSpec(
                mode="adaptive",
                samples_per_count=8,
                n_count_points=3,
                coverage=0.9,
                master_seed=7,
            ),
            optimizer=OptimizerSpec(),
        )


def test_optimize_result_save_load_round_trip(tmp_path):
    spec = _smoke_spec()
    result = ParetoOptimizer(spec, optimizer=_FAST_OPT).run()
    path = str(tmp_path / "optimize.json")
    result.save(path)
    loaded = OptimizeResult.load(path)
    assert loaded.spec == spec
    assert _result_fingerprint(loaded) == _result_fingerprint(result)
    assert loaded.cell_statuses == result.cell_statuses
    assert loaded.evaluated_dies == result.evaluated_dies
    assert loaded.exhaustive_dies == result.exhaustive_dies
    assert loaded.store_hits == result.store_hits
    # Adaptive probe reports survive the round trip, values and all.
    assert set(loaded.adaptive_reports) == set(result.adaptive_reports)
    for key, report in result.adaptive_reports.items():
        assert loaded.adaptive_reports[key] == report


_LEGACY_RESULT = os.path.join(
    os.path.dirname(__file__), "golden", "optimize_result_legacy.json"
)


def test_optimize_result_loads_file_with_rung0_order_and_warm_start():
    # Written before every rung probed in canonical grid order: the file
    # carries the old rung-0 probe order and the optimizer section's
    # warm_start flag.  Both are ignored, and a fresh run of the same spec
    # reproduces the saved result exactly.
    with open(_LEGACY_RESULT, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    assert "surrogate_order" in data
    assert "warm_start" in data["spec"]["optimizer"]
    loaded = OptimizeResult.load(_LEGACY_RESULT)
    assert "warm_start" not in loaded.spec.to_dict()["optimizer"]
    assert "surrogate_order" not in loaded.to_dict()
    fresh = ParetoOptimizer(loaded.spec).run()
    assert _result_fingerprint(loaded) == _result_fingerprint(fresh)
    assert loaded.cell_statuses == fresh.cell_statuses
    assert loaded.to_dict() == fresh.to_dict()


def test_optimize_result_rejects_unknown_version(tmp_path):
    spec = _smoke_spec()
    result = ParetoOptimizer(spec, optimizer=_FAST_OPT).run()
    path = str(tmp_path / "optimize.json")
    result.save(path)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    data["version"] = 99
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    with pytest.raises(ValueError, match="version"):
        OptimizeResult.load(path)


def test_prune_event_round_trip():
    event = PruneEvent(
        rung=1,
        benchmark="elasticnet",
        scheme="p-ecc-H(22,16)",
        vdd=0.7,
        p_cell=1e-4,
        energy=12.5,
        quality_hi=0.91,
        by_scheme="bit-shuffle-nfm2",
        by_vdd=0.7,
        by_quality_lo=0.97,
        slack=0.01,
    )
    assert PruneEvent.from_dict(event.to_dict()) == event


def test_failed_rung_checkpoint_copy_leaves_no_files(tmp_path, monkeypatch):
    previous = tmp_path / "state.json.rung0"
    previous.write_text('{"version": 1}')
    checkpoint = str(tmp_path / "state.json")

    def fail(source, target):
        target.write(source.read(4))
        raise OSError("disk full")

    monkeypatch.setattr(shutil, "copyfileobj", fail)
    with pytest.raises(OSError, match="disk full"):
        optimize._copy_rung_checkpoint(str(previous), checkpoint)
    assert not os.path.exists(checkpoint + ".tmp")
    assert not os.path.exists(checkpoint)


def test_dse_result_adaptive_reports_round_trip(tmp_path):
    spec = _smoke_spec()
    optimized = ParetoOptimizer(spec, optimizer=_FAST_OPT).run()
    result = DseResult(
        spec,
        [dict(row) for row in optimized.rows if not row["pruned"]],
        adaptive_reports=optimized.adaptive_reports,
    )
    assert result.adaptive_reports
    path = str(tmp_path / "dse.json")
    result.save(path)
    loaded = DseResult.load(path)
    assert loaded.rows == result.rows
    assert set(loaded.adaptive_reports) == set(result.adaptive_reports)
    for key, report in result.adaptive_reports.items():
        assert loaded.adaptive_reports[key] == report
    # Version-1 files (pre-adaptive-reports) still load, reports empty.
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    data["version"] = 1
    del data["adaptive_reports"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    legacy = DseResult.load(path)
    assert legacy.rows == result.rows
    assert legacy.adaptive_reports == {}


def test_failure_count_pmf_array_matches_scalar_and_is_safe():
    total_cells, p_cell = 4096, 3.7e-4
    vector = failure_count_pmf_array(total_cells, p_cell, 12)
    expected = np.array(
        [failure_count_pmf(total_cells, p_cell, n) for n in range(13)]
    )
    assert vector.shape == (13,)
    np.testing.assert_array_equal(vector, expected)
    # Memoized re-reads are bit-identical, and mutating a returned array
    # cannot corrupt the cache (callers get a fresh array each time).
    vector[:] = -1.0
    again = failure_count_pmf_array(total_cells, p_cell, 12)
    np.testing.assert_array_equal(again, expected)
    # Extending a cached table keeps the shared prefix bit-identical and
    # zero-fills impossible counts past total_cells.
    longer = failure_count_pmf_array(8, 0.5, 12)
    scalar = np.array([failure_count_pmf(8, 0.5, n) for n in range(13)])
    np.testing.assert_array_equal(longer, scalar)
    assert np.all(longer[9:] == 0.0)
