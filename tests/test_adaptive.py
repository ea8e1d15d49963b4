"""Tests for the adaptive confidence-driven Monte-Carlo budget.

Covers the controller's contract end to end: bit-identical results for any
worker count, early stopping with fewer dies than the fixed budget, hard die
caps, adaptive-state checkpointing keyed by the adaptive parameters,
O(bins) shard payloads, and the spec/CLI surface.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.figures import figure5_mse_cdf, figure7_quality
from repro.core.no_protection import NoProtection
from repro.core.scheme import BitShuffleScheme
from repro.dse.spec import (
    BenchmarkGridSpec,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    SchemeGridSpec,
)
from repro.memory.organization import MemoryOrganization
from repro.sim import engine as engine_module
from repro.sim import shardeval
from repro.sim.config import AdaptiveBudget, ExperimentConfig
from repro.sim.engine import SweepEngine
from repro.sim.experiment import knn_benchmark
from repro.stats import FixedGridEcdfSketch, StreamingMoments

SCHEMES = ("no-protection", "bit-shuffle-nfm2")


def _config(adaptive=None, **overrides) -> ExperimentConfig:
    kwargs = dict(
        rows=128,
        word_width=32,
        p_cell=4e-3,
        coverage=0.9,
        samples_per_count=40,
        n_count_points=3,
        master_seed=2026,
        scheme_specs=SCHEMES,
        adaptive=adaptive,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _curves(results):
    snapshot = {}
    for name in sorted(results):
        x, y = results[name].cdf_series()
        snapshot[name] = (results[name].samples, x.tolist(), y.tolist())
    return snapshot


@pytest.fixture(scope="module")
def smoke_benchmark():
    return knn_benchmark(n_samples=120, seed=3)


class TestAdaptiveBudgetValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveBudget(target_ci=0.0)
        with pytest.raises(ValueError):
            AdaptiveBudget(confidence=1.0)
        with pytest.raises(ValueError):
            AdaptiveBudget(initial_samples_per_count=1)
        with pytest.raises(ValueError):
            AdaptiveBudget(round_dies=0)
        with pytest.raises(ValueError):
            AdaptiveBudget(max_total_samples=0)
        with pytest.raises(ValueError):
            AdaptiveBudget(sketch_bins=4)

    def test_config_rejects_non_budget(self):
        with pytest.raises(ValueError, match="AdaptiveBudget"):
            _config(adaptive="adaptive")

    def test_threshold_defaults_per_evaluation(self):
        budget = AdaptiveBudget()
        assert budget.resolved_threshold("quality") == pytest.approx(0.9)
        assert budget.resolved_threshold("mse") == pytest.approx(1e2)
        assert AdaptiveBudget(threshold=0.75).resolved_threshold(
            "quality"
        ) == pytest.approx(0.75)

    def test_default_cap_is_the_equivalent_fixed_budget(self):
        config = _config(adaptive=AdaptiveBudget())
        counts = config.evaluated_counts()
        assert config.max_adaptive_samples() == len(counts) * 40
        capped = _config(adaptive=AdaptiveBudget(max_total_samples=17))
        assert capped.max_adaptive_samples() == 17

    def test_fixed_mode_arguments_rejected(self, smoke_benchmark):
        config = _config(adaptive=AdaptiveBudget())
        engine = SweepEngine(config)
        with pytest.raises(ValueError, match="fault_maps"):
            engine.run(smoke_benchmark, fault_maps={})

    def test_master_seed_required(self):
        config = _config(adaptive=AdaptiveBudget(), master_seed=None)
        with pytest.raises(ValueError, match="master_seed"):
            SweepEngine(config).run_mse()

    def test_cap_must_seed_every_stratum(self):
        config = _config(adaptive=AdaptiveBudget(max_total_samples=3))
        with pytest.raises(ValueError, match="cannot seed"):
            SweepEngine(config).run_mse()

    def test_legacy_sampling_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            figure5_mse_cdf(
                adaptive=AdaptiveBudget(),
                sampling="legacy",
                rng=np.random.default_rng(0),
            )


class TestAdaptiveDeterminism:
    @pytest.fixture(scope="class")
    def adaptive_config(self):
        return _config(adaptive=AdaptiveBudget(target_ci=0.04, round_dies=24))

    @pytest.fixture(scope="class")
    def reference(self, adaptive_config):
        engine = SweepEngine(adaptive_config)
        return engine.run_mse(), engine.last_adaptive_report

    @pytest.mark.parametrize("workers", [2, 4])
    def test_mse_bit_identical_for_any_worker_count(
        self, adaptive_config, reference, workers
    ):
        engine = SweepEngine(adaptive_config)
        results = engine.run_mse(workers=workers)
        assert _curves(results) == _curves(reference[0])
        assert engine.last_adaptive_report == reference[1]

    def test_quality_bit_identical_for_worker_counts(self, smoke_benchmark):
        config = _config(
            adaptive=AdaptiveBudget(target_ci=0.05), samples_per_count=20
        )
        serial_engine = SweepEngine(config)
        serial = serial_engine.run(smoke_benchmark, workers=1)
        parallel_engine = SweepEngine(config)
        parallel = parallel_engine.run(smoke_benchmark, workers=2)
        assert _curves(serial) == _curves(parallel)
        assert (
            serial_engine.last_adaptive_report
            == parallel_engine.last_adaptive_report
        )

    def test_report_is_fully_populated(self, adaptive_config, reference):
        report = reference[1]
        assert report.evaluation == "mse"
        assert report.threshold == pytest.approx(1e2)
        assert report.rounds >= 1
        assert report.total_dies == sum(report.samples_per_count.values())
        assert set(report.half_widths) == set(SCHEMES)
        assert set(report.estimates) == set(SCHEMES)
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in report.estimates.values())
        counts = _config().evaluated_counts()
        assert sorted(report.samples_per_count) == counts
        assert sorted(report.stratum_weights) == counts
        assert report.max_shard_payload_scalars > 0


class TestAdaptiveStopping:
    def test_stops_before_the_fixed_budget_when_variance_allows(self):
        config = _config(adaptive=AdaptiveBudget(target_ci=0.04))
        engine = SweepEngine(config)
        results = engine.run_mse()
        report = engine.last_adaptive_report
        fixed_budget = config.max_adaptive_samples()
        assert report.reached
        assert report.achieved_half_width <= 0.04
        assert report.total_dies < fixed_budget
        for dist in results.values():
            assert dist.samples == report.total_dies

    def test_fig5_golden_config_needs_3x_fewer_dies_than_fixed_budget(self):
        # The Fig. 5 golden operating point: Neyman allocation concentrates
        # dies in the high-variance low-count strata, so the +/-0.01 target
        # costs at most a third of the uniform per-count budget that reaches
        # the same half-width.
        org = MemoryOrganization.paper_16kb()
        config = ExperimentConfig(
            rows=org.rows,
            word_width=org.word_width,
            p_cell=5e-6,
            coverage=0.9999999,
            samples_per_count=200,
            master_seed=2015,
            scheme_specs=(
                "no-protection",
                "p-ecc",
                "bit-shuffle-nfm1",
                "bit-shuffle-nfm2",
            ),
            discard_multi_fault_words=False,
            adaptive=AdaptiveBudget(
                target_ci=0.01, round_dies=128, max_total_samples=20_000
            ),
        )
        engine = SweepEngine(config)
        engine.run_mse()
        report = engine.last_adaptive_report
        assert report.reached
        assert report.achieved_half_width <= 0.01
        assert report.fixed_equivalent_dies() >= 3.0 * report.total_dies

    def test_unreachable_target_runs_to_the_cap(self):
        config = _config(
            samples_per_count=4,
            adaptive=AdaptiveBudget(target_ci=1e-9, round_dies=8),
        )
        engine = SweepEngine(config)
        engine.run_mse()
        report = engine.last_adaptive_report
        assert not report.reached
        assert report.total_dies == config.max_adaptive_samples()

    def test_neyman_rounds_skip_settled_strata(self):
        # With a generous-but-unmet target after round one, later rounds must
        # go where the variance is; strata whose indicator never moved keep
        # their initial allocation.
        config = _config(
            adaptive=AdaptiveBudget(
                target_ci=0.02, initial_samples_per_count=6, round_dies=30
            )
        )
        engine = SweepEngine(config)
        engine.run_mse()
        report = engine.last_adaptive_report
        if report.rounds > 1:
            spent = report.samples_per_count
            stds = {
                count: max(
                    report.stratum_stds[name][count]
                    for name in report.stratum_stds
                )
                for count in spent
            }
            settled = [c for c, s in stds.items() if s == 0.0]
            active = [c for c, s in stds.items() if s > 0.0]
            if settled and active:
                assert max(spent[c] for c in settled) <= min(
                    spent[c] for c in active
                )

    def test_estimate_consistent_with_fixed_sweep(self):
        # The adaptive yield estimate must land near the exhaustive fixed
        # estimate of the same population (they share the weighting math).
        fixed = SweepEngine(_config(samples_per_count=60)).run_mse()
        config = _config(adaptive=AdaptiveBudget(target_ci=0.03))
        engine = SweepEngine(config)
        engine.run_mse()
        report = engine.last_adaptive_report
        for name, dist in fixed.items():
            fixed_yield = dist.yield_at_mse(report.threshold)
            # The ecdf renormalises over the covered mass; the tracker
            # estimate is absolute.  Compare with a tolerance spanning both
            # CIs plus the coverage gap.
            assert report.estimates[name] == pytest.approx(
                fixed_yield, abs=0.12
            )

    def test_payload_is_o_bins_not_o_dies(self):
        small = _config(
            samples_per_count=4,
            adaptive=AdaptiveBudget(target_ci=1e-9, round_dies=16),
        )
        big = _config(
            samples_per_count=24,
            adaptive=AdaptiveBudget(target_ci=1e-9, round_dies=96),
        )
        engine_small, engine_big = SweepEngine(small), SweepEngine(big)
        engine_small.run_mse()
        engine_big.run_mse()
        small_payload = engine_small.last_adaptive_report
        big_payload = engine_big.last_adaptive_report
        assert big_payload.total_dies >= 6 * small_payload.total_dies
        # A shard's payload is bounded by schemes x strata x O(bins), never
        # by the dies it evaluated.
        bins = AdaptiveBudget().sketch_bins
        n_counts = len(small.evaluated_counts())
        bound = len(SCHEMES) * n_counts * (2 * (bins + 1) + 16)
        assert small_payload.max_shard_payload_scalars <= bound
        assert big_payload.max_shard_payload_scalars <= bound


def _float_bits(value: float) -> str:
    return "nan" if np.isnan(value) else float.hex(float(value))


def _value_by_value_summary(entries, context):
    """A shard summary folded one die and one scheme at a time, each value
    through its own ``update_batch`` call."""
    adaptive = context["adaptive"]
    threshold = adaptive["threshold"]
    cells = {}
    dies = (((count, sample), failures, None) for count, sample, failures in entries)
    for (count_index, _, _), scores in zip(
        entries, shardeval._scored_dies(context, dies)
    ):
        for scheme_index, score in enumerate(scores):
            moments, sketch = cells.setdefault(
                (scheme_index, count_index),
                (StreamingMoments(), FixedGridEcdfSketch(adaptive["edges"])),
            )
            if adaptive["direction"] == "ge":
                passed = score >= threshold
            else:
                passed = score <= threshold
            moments.update_batch([1.0 if passed else 0.0])
            sketch.update_batch([score])
    return [(key, *cells[key]) for key in sorted(cells)]


class TestShardSummary:
    @pytest.mark.parametrize("evaluation", ["quality", "mse"])
    def test_matches_a_value_by_value_fold(
        self, smoke_benchmark, monkeypatch, evaluation
    ):
        # Every shard of a sweep at a threshold some dies pass and some fail
        # is summarised again and compared with the per-value fold.
        shards = []
        real_summarize = engine_module._summarize_shard

        def recording(entries, context):
            shards.append((entries, context))
            return real_summarize(entries, context)

        monkeypatch.setattr(engine_module, "_summarize_shard", recording)
        config = _config(
            samples_per_count=8,
            adaptive=AdaptiveBudget(
                target_ci=1e-6,
                threshold={"mse": 1e6, "quality": 1.01}[evaluation],
                initial_samples_per_count=4,
                round_dies=12,
            ),
        )
        engine = SweepEngine(config)
        if evaluation == "quality":
            engine.run(smoke_benchmark)
        else:
            engine.run_mse()
        assert engine.last_adaptive_report.rounds >= 2
        indicators = set()
        for entries, context in shards:
            actual = shardeval.summarize_shard(entries, context)
            expected = _value_by_value_summary(entries, context)
            assert [cell[0] for cell in actual] == [cell[0] for cell in expected]
            for (_, moments, sketch), (_, ref_moments, ref_sketch) in zip(
                actual, expected
            ):
                assert [
                    moments.count,
                    *map(_float_bits, (moments.mean, moments.m2)),
                    *map(_float_bits, (moments.minimum, moments.maximum)),
                ] == [
                    ref_moments.count,
                    *map(_float_bits, (ref_moments.mean, ref_moments.m2)),
                    *map(_float_bits, (ref_moments.minimum, ref_moments.maximum)),
                ]
                assert np.array_equal(sketch.counts, ref_sketch.counts)
                assert sketch.count == ref_sketch.count
                assert _float_bits(sketch.minimum) == _float_bits(ref_sketch.minimum)
                assert _float_bits(sketch.maximum) == _float_bits(ref_sketch.maximum)
                indicators.update((moments.minimum, moments.maximum))
        assert indicators == {0.0, 1.0}


class TestAdaptiveCheckpoint:
    def test_hash_differs_from_fixed_and_between_targets(self, smoke_benchmark):
        fixed = SweepEngine(_config()).config_hash(smoke_benchmark)
        tight = SweepEngine(
            _config(adaptive=AdaptiveBudget(target_ci=0.01))
        ).config_hash(smoke_benchmark)
        loose = SweepEngine(
            _config(adaptive=AdaptiveBudget(target_ci=0.05))
        ).config_hash(smoke_benchmark)
        assert len({fixed, tight, loose}) == 3

    def test_round_trip_replays_without_evaluation(self, tmp_path, monkeypatch):
        config = _config(adaptive=AdaptiveBudget(target_ci=0.04))
        path = str(tmp_path / "adaptive.json")
        engine = SweepEngine(config)
        first = engine.run_mse(checkpoint=path)
        first_report = engine.last_adaptive_report

        data = json.loads((tmp_path / "adaptive.json").read_text())
        assert data["mode"] == "adaptive"
        assert data["rounds"] == first_report.rounds

        def _must_not_run(entries, context):
            raise AssertionError("complete adaptive checkpoint must not re-run")

        monkeypatch.setattr(engine_module, "_summarize_shard", _must_not_run)
        replay_engine = SweepEngine(config)
        replay = replay_engine.run_mse(checkpoint=path)
        assert _curves(replay) == _curves(first)
        assert replay_engine.last_adaptive_report == first_report

    def test_interrupted_round_resumes_bit_identically(
        self, tmp_path, monkeypatch
    ):
        config = _config(
            adaptive=AdaptiveBudget(target_ci=0.02, round_dies=24)
        )
        engine = SweepEngine(config)
        uninterrupted = engine.run_mse()
        reference_report = engine.last_adaptive_report
        assert reference_report.rounds >= 2  # the kill must land mid-sweep

        path = str(tmp_path / "interrupted.json")
        real_summarize = engine_module._summarize_shard
        seen = {"shards": 0}

        def _dies_mid_second_round(entries, context):
            if seen["shards"] >= 4:
                raise RuntimeError("simulated kill mid-round")
            seen["shards"] += 1
            return real_summarize(entries, context)

        monkeypatch.setattr(
            engine_module, "_summarize_shard", _dies_mid_second_round
        )
        with pytest.raises(RuntimeError, match="simulated kill"):
            SweepEngine(config).run_mse(checkpoint=path)
        monkeypatch.setattr(engine_module, "_summarize_shard", real_summarize)

        partial = json.loads((tmp_path / "interrupted.json").read_text())
        assert 0 < partial["rounds"] < reference_report.rounds

        resumed_engine = SweepEngine(config)
        resumed = resumed_engine.run_mse(checkpoint=path)
        assert _curves(resumed) == _curves(uninterrupted)
        assert resumed_engine.last_adaptive_report == reference_report

    def test_round_state_over_the_cap_is_rejected(self, tmp_path):
        # A cap-resumable checkpoint is shared by every die cap; state saved
        # under a larger cap must fail loudly, never be returned as the
        # result of a smaller-cap sweep.
        path = str(tmp_path / "cap.json")
        big = SweepEngine(
            _config(adaptive=AdaptiveBudget(target_ci=1e-9, max_total_samples=24))
        )
        big.run_mse(checkpoint=path, adaptive_cap_resumable=True)
        assert big.last_adaptive_report.total_dies == 24
        small = SweepEngine(
            _config(adaptive=AdaptiveBudget(target_ci=1e-9, max_total_samples=12))
        )
        with pytest.raises(ValueError) as excinfo:
            small.run_mse(checkpoint=path, adaptive_cap_resumable=True)
        assert str(excinfo.value) == (
            f"checkpoint {path!r} holds 24 dies, more than this sweep's "
            f"adaptive die cap (12); resume it under a cap of at least 24 or "
            f"point the checkpoint elsewhere"
        )

    def test_fixed_checkpoint_file_is_rejected(self, tmp_path):
        config = _config(adaptive=AdaptiveBudget(target_ci=0.04))
        engine = SweepEngine(config)
        config_hash = engine.config_hash(
            None, None, extra={"evaluation": "mse", "include_fault_free": True}
        )
        path = tmp_path / "wrong-mode.json"
        path.write_text(
            json.dumps(
                {"version": 1, "config_hash": config_hash, "dies": {}}
            )
        )
        with pytest.raises(ValueError, match="fixed"):
            engine.run_mse(checkpoint=str(path))


class TestAdaptiveSpec:
    def _spec(self, budget: McBudgetSpec) -> ExperimentSpec:
        return ExperimentSpec(
            geometry=GeometrySpec(rows=128),
            operating_grid=OperatingGridSpec(p_cell_values=(1e-3,)),
            scheme_grid=SchemeGridSpec(specs=SCHEMES),
            budget=budget,
            benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.2),
        )

    def test_adaptive_budget_round_trips_through_json(self):
        spec = self._spec(
            McBudgetSpec(
                samples_per_count=30,
                n_count_points=3,
                mode="adaptive",
                target_ci=0.05,
                max_samples=90,
            )
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        budget = restored.budget.adaptive_budget()
        assert budget is not None
        assert budget.target_ci == pytest.approx(0.05)
        assert budget.max_total_samples == 90

    def test_fixed_spec_has_no_adaptive_budget(self):
        spec = self._spec(McBudgetSpec(samples_per_count=5))
        assert spec.budget.adaptive_budget() is None
        point = spec.operating_points()[0]
        assert spec.experiment_config(point, "knn").adaptive is None

    def test_experiment_config_carries_the_budget(self):
        spec = self._spec(
            McBudgetSpec(
                samples_per_count=30,
                n_count_points=3,
                mode="adaptive",
                target_ci=0.05,
            )
        )
        point = spec.operating_points()[0]
        config = spec.experiment_config(point, "knn")
        assert config.adaptive == spec.budget.adaptive_budget()

    def test_bad_modes_fail_loudly(self):
        with pytest.raises(ValueError, match="mode"):
            McBudgetSpec(mode="bayesian")
        with pytest.raises(ValueError, match="target_ci"):
            McBudgetSpec(mode="fixed", target_ci=0.05)
        with pytest.raises(ValueError, match="target_ci"):
            McBudgetSpec(mode="adaptive", target_ci=-1.0)

    def test_adaptive_defaults_apply_when_target_unset(self):
        budget = McBudgetSpec(mode="adaptive").adaptive_budget()
        assert budget.target_ci == pytest.approx(0.02)


def _figure7(benchmark, samples_per_count, adaptive, reports):
    """``figure7_quality`` at the geometry and operating point of ``_config``."""
    return figure7_quality(
        benchmark,
        organization=MemoryOrganization(rows=128, word_width=32),
        p_cell=4e-3,
        samples_per_count=samples_per_count,
        n_count_points=3,
        schemes=[NoProtection(32), BitShuffleScheme(32, 2)],
        master_seed=2026,
        adaptive=adaptive,
        report_out=reports,
    )


class TestAdaptiveEvaluators:
    def test_quality_evaluator_reports(self, smoke_benchmark):
        reports = []
        results = _figure7(
            smoke_benchmark, 20, AdaptiveBudget(target_ci=0.05), reports
        )
        assert len(reports) == 1
        assert reports[0].evaluation == "quality"
        assert set(results) == set(SCHEMES)

    def test_fixed_evaluator_leaves_reports_empty(self, smoke_benchmark):
        reports = []
        _figure7(smoke_benchmark, 2, None, reports)
        assert reports == []
