"""Tests for the benchmark definitions (Table 1 rows)."""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import struct

import numpy as np
import pytest

from repro.dse import (
    BenchmarkGridSpec,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    OptimizerSpec,
    ParetoOptimizer,
    SchemeGridSpec,
)
from repro.sim import experiment
from repro.sim.config import ExperimentConfig
from repro.sim.engine import SweepEngine
from repro.sim.experiment import (
    BenchmarkDefinition,
    elasticnet_benchmark,
    knn_benchmark,
    pca_benchmark,
    standard_benchmarks,
)


class TestBenchmarkFactories:
    def test_elasticnet_split_ratio(self):
        bench = elasticnet_benchmark(n_samples=500)
        assert bench.name == "elasticnet"
        assert bench.metric_name == "r2"
        assert len(bench.train_features) == 400
        assert len(bench.test_features) == 100

    def test_pca_configuration(self):
        bench = pca_benchmark(n_samples=200, n_noise=30)
        assert bench.name == "pca"
        assert bench.metric_name == "explained_variance"
        assert bench.train_features.shape[1] == 5 + 15 + 30

    def test_knn_configuration(self):
        bench = knn_benchmark(n_samples=300)
        assert bench.name == "knn"
        assert bench.metric_name == "score"
        assert bench.train_features.shape[1] == 7

    def test_standard_benchmarks_contains_all_three(self):
        benches = standard_benchmarks(scale=0.25)
        assert set(benches) == {"elasticnet", "pca", "knn"}

    def test_scale_reduces_sample_counts(self):
        small = standard_benchmarks(scale=0.25)["elasticnet"]
        large = standard_benchmarks(scale=1.0)["elasticnet"]
        assert len(small.train_features) < len(large.train_features)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            standard_benchmarks(scale=0.0)

    def test_reproducible_with_seed(self):
        a = elasticnet_benchmark(n_samples=200, seed=5)
        b = elasticnet_benchmark(n_samples=200, seed=5)
        assert np.array_equal(a.train_features, b.train_features)


class TestCleanQuality:
    def test_elasticnet_clean_quality_reasonable(self):
        bench = elasticnet_benchmark(n_samples=600)
        quality = bench.clean_quality()
        assert 0.3 < quality <= 1.0

    def test_pca_clean_quality_reasonable(self):
        bench = pca_benchmark(n_samples=300)
        quality = bench.clean_quality()
        assert 0.3 < quality <= 1.0

    def test_knn_clean_quality_reasonable(self):
        bench = knn_benchmark(n_samples=400)
        quality = bench.clean_quality()
        assert 0.7 < quality <= 1.0


class TestCorruptedEvaluation:
    def test_identical_features_give_identical_quality(self):
        bench = knn_benchmark(n_samples=300)
        assert bench.quality_with_corrupted_features(
            bench.train_features.copy()
        ) == pytest.approx(bench.clean_quality())

    def test_heavy_corruption_degrades_quality(self, rng):
        bench = elasticnet_benchmark(n_samples=500)
        corrupted = bench.train_features + rng.normal(
            scale=1e4, size=bench.train_features.shape
        )
        assert bench.quality_with_corrupted_features(corrupted) < bench.clean_quality()

    def test_shape_mismatch_rejected(self):
        bench = knn_benchmark(n_samples=200)
        with pytest.raises(ValueError):
            bench.quality_with_corrupted_features(np.zeros((3, 3)))


class _CountingEvaluate:
    """Picklable stand-in for a fit: counts calls, scores by a plain sum."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, train_features, train_targets, test_features, test_targets):
        self.calls += 1
        return float(np.nansum(train_features)) + float(np.sum(test_targets))


def _counting_benchmark() -> BenchmarkDefinition:
    rng = np.random.default_rng(3)
    return BenchmarkDefinition(
        name="counting",
        metric_name="sum",
        train_features=rng.normal(size=(6, 3)),
        train_targets=rng.normal(size=6),
        test_features=rng.normal(size=(4, 3)),
        test_targets=rng.normal(size=4),
        evaluate=_CountingEvaluate(),
    )


def _digest(array) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64)).digest()


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestRetrainMemo:
    def test_hits_are_bitwise_equal_to_fresh_fits(self):
        bench = elasticnet_benchmark(n_samples=200)
        fresh = elasticnet_benchmark(n_samples=200)
        rng = np.random.default_rng(21)
        tensors = [bench.train_features.copy()]
        for _ in range(59):
            tensor = bench.train_features.copy()
            rows = rng.integers(tensor.shape[0], size=3)
            cols = rng.integers(tensor.shape[1], size=3)
            tensor[rows, cols] += rng.choice([-8.0, -0.5, 0.25, 16.0], size=3)
            tensors.append(tensor)
        first = [bench.quality_with_corrupted_features(t) for t in tensors]
        hits = [bench.quality_with_corrupted_features(t.copy()) for t in tensors]
        refits = [fresh.quality_with_corrupted_features(t) for t in tensors]
        assert [_bits(q) for q in hits] == [_bits(q) for q in first]
        assert [_bits(q) for q in hits] == [_bits(q) for q in refits]

    def test_hits_skip_the_fit(self):
        bench = _counting_benchmark()
        tensor = bench.train_features + 1.0
        for _ in range(3):
            bench.quality_with_corrupted_features(tensor)
            bench.clean_quality()
        assert bench.evaluate.calls == 2

    def test_signed_zero_and_nan_payloads_are_distinct(self):
        bench = _counting_benchmark()
        quiet_nan, payload_nan = np.array(
            [0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64
        ).view(np.float64)
        variants = []
        for value in (0.0, -0.0, quiet_nan, payload_nan):
            tensor = bench.train_features.copy()
            tensor[0, 0] = value
            variants.append(tensor)
        for tensor in variants + variants:
            bench.quality_with_corrupted_features(tensor)
        assert bench.evaluate.calls == 4

    def test_data_arrays_refuse_writes(self):
        bench = _counting_benchmark()
        for name in ("train_features", "train_targets", "test_features", "test_targets"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(bench, name)[0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(bench, name, np.zeros(3))

    def test_memo_stays_out_of_pickle_eq_repr_and_hash(self):
        bench = _counting_benchmark()
        twin = dataclasses.replace(bench)
        engine = SweepEngine(
            ExperimentConfig(rows=16, word_width=8, frac_bits=4, p_cell=1e-3)
        )
        tensor = bench.train_features * 2.0
        bench.quality_with_corrupted_features(tensor)
        bench.clean_quality()
        assert bench == twin
        assert repr(bench) == repr(twin)
        assert pickle.dumps(bench) == pickle.dumps(twin)
        assert engine.config_hash(bench) == engine.config_hash(twin)
        copy = pickle.loads(pickle.dumps(bench))
        assert not copy.train_features.flags.writeable
        copy.quality_with_corrupted_features(tensor)
        copy.clean_quality()
        assert copy.evaluate.calls == 2 + 2

    def test_fifo_eviction_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(experiment, "_RETRAIN_MEMO_MAX_ENTRIES", 3)
        bench = _counting_benchmark()
        tensors = [bench.train_features + k for k in range(4)]
        for tensor in tensors:
            bench.quality_with_corrupted_features(tensor)
        for tensor in tensors[1:]:
            bench.quality_with_corrupted_features(tensor)
        assert bench.evaluate.calls == 4
        bench.quality_with_corrupted_features(tensors[0])
        assert bench.evaluate.calls == 5

    def test_optimizer_fits_each_distinct_tensor_once(self, monkeypatch, tmp_path):
        """The optimizer's probes share one benchmark, so neither the clean
        fit nor a tensor one probe fitted is fitted again by the next."""
        fitted = []
        retrained = []

        def recording_evaluate(train_features, *rest):
            fitted.append(_digest(train_features))
            return experiment._evaluate_elasticnet(train_features, *rest)

        def build(name, scale, seed):
            bench = experiment.benchmark_by_name(name, scale=scale, seed=seed)
            return dataclasses.replace(bench, evaluate=recording_evaluate)

        public = BenchmarkDefinition.quality_with_corrupted_features

        def recording_retrain(self, features):
            retrained.append(_digest(features))
            return public(self, features)

        monkeypatch.setattr("repro.dse.explore.benchmark_by_name", build)
        monkeypatch.setattr(
            BenchmarkDefinition, "quality_with_corrupted_features", recording_retrain
        )
        spec = ExperimentSpec(
            geometry=GeometrySpec(rows=128),
            operating_grid=OperatingGridSpec(vdd_values=(0.60, 0.65)),
            scheme_grid=SchemeGridSpec(specs=("no-protection", "p-ecc")),
            budget=McBudgetSpec(
                samples_per_count=4,
                n_count_points=3,
                coverage=0.9,
                master_seed=7,
                discard_multi_fault_words=False,
            ),
            benchmarks=BenchmarkGridSpec(names=("elasticnet",), scale=0.25, seed=17),
            quality_yield_target=0.9,
        )
        optimizer = OptimizerSpec(
            rungs=1, eta=2.0, target_ci=0.02, round_dies=2, initial_samples_per_count=2
        )
        result = ParetoOptimizer(
            spec, optimizer=optimizer, checkpoint_dir=str(tmp_path)
        ).run()
        assert len(result.rows) == 4
        assert len(fitted) == len(set(fitted))
        assert len(fitted) == len(set(retrained)) + 1  # plus the clean fit
        assert len(retrained) > len(fitted)  # repeats were served by the memo
