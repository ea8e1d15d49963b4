"""Tests for the parallel sharded Monte-Carlo sweep engine.

The engine's contract is *bit-identical reproducibility*: for a fixed master
seed the assembled quality distributions must not depend on the worker count,
the shard size, the shard execution order, or whether the sweep was
interrupted and resumed from a checkpoint.  These tests enforce each clause,
plus the golden equivalence of legacy shared-generator sampling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import stat

import numpy as np
import pytest

from repro.analysis.figures import figure5_mse_cdf
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.dse import optimize
from repro.faultmodel.montecarlo import failure_count_pmf
from repro.memory.organization import MemoryOrganization
from repro.sim import engine as engine_module
from repro.sim.config import (
    DEFAULT_SCHEME_SPECS,
    AdaptiveBudget,
    ExperimentConfig,
    build_scheme,
    evaluated_failure_counts,
    reassign_count_probabilities,
)
from repro.sim.engine import SweepEngine
from repro.sim.experiment import BenchmarkDefinition, knn_benchmark
from repro.sim.runner import legacy_fault_maps
from repro.store import ResultStore
from repro.store.index import StoreIndex

import statharness
from test_runner import (
    GOLDEN_CLEAN_QUALITY,
    GOLDEN_CURVES,
    GOLDEN_SAMPLES,
    golden_sweep,
)


@pytest.fixture(scope="module")
def smoke_benchmark():
    return knn_benchmark(n_samples=120, seed=3)


@pytest.fixture(scope="module")
def smoke_config():
    return ExperimentConfig(
        rows=128,
        word_width=32,
        p_cell=4e-3,
        coverage=0.9,
        samples_per_count=2,
        n_count_points=3,
        master_seed=2026,
        scheme_specs=("no-protection", "bit-shuffle-nfm2"),
        benchmark="knn",
    )


def _legacy_run(benchmark, organization, checkpoint, frac_bits=16):
    """A legacy-sampling quality sweep (dies from ``default_rng(11)``)."""
    config = ExperimentConfig(
        rows=organization.rows,
        word_width=organization.word_width,
        p_cell=4e-3,
        coverage=0.9,
        samples_per_count=2,
        n_count_points=2,
        scheme_specs=("no-protection",),
        frac_bits=frac_bits,
        benchmark=benchmark.name,
    )
    return SweepEngine(config).run(
        benchmark,
        checkpoint=checkpoint,
        fault_maps=legacy_fault_maps(config, np.random.default_rng(11)),
    )


def _curves(results):
    """Comparable snapshot of a result set (exact floats, stable order)."""
    snapshot = {}
    for name in sorted(results):
        dist = results[name]
        x, y = dist.cdf_series()
        snapshot[name] = (
            dist.clean_quality,
            dist.samples,
            x.tolist(),
            y.tolist(),
        )
    return snapshot


@pytest.fixture(scope="module")
def reference_results(smoke_config, smoke_benchmark):
    """The serial (workers=1) result every other run must reproduce exactly."""
    return SweepEngine(smoke_config).run(smoke_benchmark)


# --------------------------------------------------------------------------- #
# Scheme registry
# --------------------------------------------------------------------------- #
class TestBuildScheme:
    @pytest.mark.parametrize("spec", DEFAULT_SCHEME_SPECS + ("secded",))
    def test_registry_names_round_trip(self, spec):
        scheme = build_scheme(spec, 32)
        assert build_scheme(scheme.name, 32).name == scheme.name

    def test_known_types(self):
        assert isinstance(build_scheme("no-protection", 32), NoProtection)
        assert isinstance(build_scheme("none", 32), NoProtection)
        assert isinstance(build_scheme("secded", 32), SecdedScheme)
        assert isinstance(build_scheme("p-ecc", 32), PriorityEccScheme)
        shuffle = build_scheme("bit-shuffle-nfm3", 32)
        assert isinstance(shuffle, BitShuffleScheme)
        assert shuffle.name == "bit-shuffle-nfm3"

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            build_scheme("hamming-weight", 32)

    @pytest.mark.parametrize(
        "spec", ["secded-h(72,64)", "p-ecc-strong", "p-ecc-h(22,17)"]
    )
    def test_unknown_variant_rejected_not_silently_defaulted(self, spec):
        with pytest.raises(ValueError, match="variant"):
            build_scheme(spec, 32)

    def test_word_width_mismatch_rejected(self, smoke_config):
        with pytest.raises(ValueError):
            SweepEngine(smoke_config, schemes=[NoProtection(16)])


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #
class TestExperimentConfig:
    def test_rejects_bad_pcell(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rows=64, p_cell=0.0)

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rows=64, samples_per_count=0)

    def test_rejects_empty_schemes(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rows=64, scheme_specs=())

    def test_count_probabilities_match_direct_reassignment(self, smoke_config):
        counts = smoke_config.evaluated_counts()
        probabilities = smoke_config.count_probabilities()
        cells = smoke_config.rows * smoke_config.word_width
        expected = {c: 0.0 for c in counts}
        for n in range(1, smoke_config.max_failures + 1):
            nearest = min(counts, key=lambda c: (abs(c - n), c))
            expected[nearest] += failure_count_pmf(cells, smoke_config.p_cell, n)
        for count in counts:
            assert probabilities[count] == expected[count]

    def test_plan_is_count_major(self, smoke_config):
        plan = SweepEngine(smoke_config).plan()
        counts = smoke_config.evaluated_counts()
        samples = smoke_config.samples_per_count
        assert [die_index for die_index, *_ in plan] == list(range(len(plan)))
        assert len(plan) == len(counts) * samples
        for die_index, count_index, sample_index, count in plan:
            assert die_index == count_index * samples + sample_index
            assert count == counts[count_index]

    def test_seeded_run_requires_master_seed(self, smoke_config, smoke_benchmark):
        config = ExperimentConfig(
            rows=smoke_config.rows,
            p_cell=smoke_config.p_cell,
            samples_per_count=1,
            master_seed=None,
        )
        with pytest.raises(ValueError):
            SweepEngine(config).run(smoke_benchmark)


# --------------------------------------------------------------------------- #
# Seed determinism: the tentpole contract
# --------------------------------------------------------------------------- #
class TestSeedDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_for_any_worker_count(
        self, smoke_config, smoke_benchmark, reference_results, workers
    ):
        results = SweepEngine(smoke_config).run(smoke_benchmark, workers=workers)
        assert _curves(results) == _curves(reference_results)

    def test_bit_identical_for_any_shard_size(
        self, smoke_config, smoke_benchmark, reference_results, monkeypatch
    ):
        for size in (1, 3):
            statharness.split_shards(monkeypatch, size=size)
            results = SweepEngine(smoke_config).run(smoke_benchmark, workers=2)
            assert _curves(results) == _curves(reference_results)

    def test_bit_identical_for_shuffled_shard_order(
        self, smoke_config, smoke_benchmark, reference_results, monkeypatch
    ):
        statharness.split_shards(monkeypatch, size=1, seed=9)
        results = SweepEngine(smoke_config).run(smoke_benchmark)
        assert _curves(results) == _curves(reference_results)

    def test_different_master_seed_changes_results(
        self, smoke_config, smoke_benchmark, reference_results
    ):
        other = ExperimentConfig(
            rows=smoke_config.rows,
            word_width=smoke_config.word_width,
            p_cell=smoke_config.p_cell,
            coverage=smoke_config.coverage,
            samples_per_count=smoke_config.samples_per_count,
            n_count_points=smoke_config.n_count_points,
            master_seed=smoke_config.master_seed + 1,
            scheme_specs=smoke_config.scheme_specs,
        )
        results = SweepEngine(other).run(smoke_benchmark)
        assert _curves(results) != _curves(reference_results)

    def test_die_maps_reconstructable_from_spawn_key(self, smoke_config):
        # The documented seeding contract: die i's stream is
        # SeedSequence(master_seed, spawn_key=(i,)), which must agree with the
        # root's i-th spawned child.
        root = np.random.SeedSequence(smoke_config.master_seed)
        children = root.spawn(3)
        for i, child in enumerate(children):
            direct = np.random.SeedSequence(
                smoke_config.master_seed, spawn_key=(i,)
            )
            assert np.random.default_rng(child).integers(2**63) == \
                np.random.default_rng(direct).integers(2**63)

    def test_rejects_non_positive_workers(self, smoke_config, smoke_benchmark):
        with pytest.raises(ValueError):
            SweepEngine(smoke_config).run(smoke_benchmark, workers=0)


# --------------------------------------------------------------------------- #
# Golden equivalence with the legacy serial implementation
# --------------------------------------------------------------------------- #
class TestLegacyGoldenEquivalence:
    """The Fig. 7 smoke config of test_runner's golden regression, executed
    through the engine's parallel path, must reproduce the seed
    implementation's curves bit-for-bit."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_runner_reproduces_golden_curves(self, workers):
        results = golden_sweep(workers)
        assert set(results) == set(GOLDEN_CURVES)
        for name, golden in GOLDEN_CURVES.items():
            dist = results[name]
            assert dist.samples == GOLDEN_SAMPLES
            assert dist.clean_quality == pytest.approx(
                GOLDEN_CLEAN_QUALITY, rel=1e-12, abs=0
            )
            x, y = dist.cdf_series()
            np.testing.assert_allclose(x, golden["x"], rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(y, golden["y"], rtol=1e-10, atol=1e-10)

    def test_parallel_equals_serial_exactly(self):
        serial = golden_sweep(1)
        parallel = golden_sweep(2)
        assert _curves(serial) == _curves(parallel)


# --------------------------------------------------------------------------- #
# Checkpoint / resume
# --------------------------------------------------------------------------- #
class TestCheckpoint:
    def test_round_trip_replays_without_evaluation(
        self, smoke_config, smoke_benchmark, reference_results, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "sweep.json")
        first = SweepEngine(smoke_config).run(smoke_benchmark, checkpoint=path)
        assert _curves(first) == _curves(reference_results)
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert len(data["dies"]) == len(SweepEngine(smoke_config).plan())

        def _must_not_run(entries, context):
            raise AssertionError("complete checkpoint must not re-evaluate dies")

        monkeypatch.setattr(engine_module, "_evaluate_shard", _must_not_run)
        replay = SweepEngine(smoke_config).run(smoke_benchmark, checkpoint=path)
        assert _curves(replay) == _curves(reference_results)

    def test_interrupted_sweep_resumes_bit_identically(
        self, smoke_config, smoke_benchmark, reference_results, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "interrupted.json")
        real_evaluate = engine_module._evaluate_shard
        completed = {"count": 0}

        def _dies_after_two_shards(entries, context):
            if completed["count"] >= 2:
                raise RuntimeError("simulated kill after shard 2")
            completed["count"] += 1
            return real_evaluate(entries, context)

        monkeypatch.setattr(
            engine_module, "_evaluate_shard", _dies_after_two_shards
        )
        with pytest.raises(RuntimeError, match="simulated kill"):
            SweepEngine(smoke_config).run(smoke_benchmark, checkpoint=path)
        monkeypatch.setattr(engine_module, "_evaluate_shard", real_evaluate)

        partial = json.loads((tmp_path / "interrupted.json").read_text())
        total_dies = len(SweepEngine(smoke_config).plan())
        assert 0 < len(partial["dies"]) < total_dies

        resumed = SweepEngine(smoke_config).run(smoke_benchmark, checkpoint=path)
        assert _curves(resumed) == _curves(reference_results)
        final = json.loads((tmp_path / "interrupted.json").read_text())
        assert len(final["dies"]) == total_dies

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: engine_module._write_checkpoint_payload(
                path, {"version": 1, "config_hash": "abc", "dies": {"0": [0.5]}}
            ),
            lambda path: StoreIndex(segments={"seg.jsonl": 12}).save(path),
            ResultStore._write_marker,
            lambda path: optimize._copy_rung_checkpoint(path + ".rung0", path),
        ],
        ids=["engine-checkpoint", "store-index", "store-marker", "optimizer-rung"],
    )
    def test_durable_write_fsyncs_file_and_directory(
        self, write, tmp_path, monkeypatch
    ):
        # Atomic-rename alone is not durable: the temp file must be fsynced
        # before the rename and the directory after it, or a crash can leave
        # the file's name pointing at truncated data.
        path = tmp_path / "state.json"
        (tmp_path / "state.json.rung0").write_text('{"rounds": 1}')
        real_fsync = os.fsync
        synced = []

        def counting_fsync(fd):
            synced.append(os.fstat(fd).st_mode)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        write(str(path))
        assert sum(stat.S_ISREG(mode) for mode in synced) >= 1
        assert sum(stat.S_ISDIR(mode) for mode in synced) >= 1
        assert isinstance(json.loads(path.read_text()), dict)

    def test_mismatched_config_hash_rejected(
        self, smoke_config, smoke_benchmark, tmp_path
    ):
        path = str(tmp_path / "sweep.json")
        SweepEngine(smoke_config).run(smoke_benchmark, checkpoint=path)
        other = ExperimentConfig(
            rows=smoke_config.rows,
            word_width=smoke_config.word_width,
            p_cell=smoke_config.p_cell,
            coverage=smoke_config.coverage,
            samples_per_count=smoke_config.samples_per_count,
            n_count_points=smoke_config.n_count_points,
            master_seed=smoke_config.master_seed + 1,
            scheme_specs=smoke_config.scheme_specs,
        )
        with pytest.raises(ValueError, match="different experiment"):
            SweepEngine(other).run(smoke_benchmark, checkpoint=path)

    def test_unsupported_checkpoint_version_rejected(
        self, smoke_config, smoke_benchmark, tmp_path
    ):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"version": 999, "dies": {}}))
        with pytest.raises(ValueError, match="version"):
            SweepEngine(smoke_config).run(
                smoke_benchmark, checkpoint=str(path)
            )

    def test_fixed_point_override_enters_checkpoint_hash(
        self, smoke_benchmark, tmp_path
    ):
        # Regression: the storage format must key the cache -- a resume
        # under a different format would silently replay wrong curves
        # otherwise.
        org = MemoryOrganization(rows=128, word_width=32)
        path = str(tmp_path / "fp.json")

        def run(frac_bits):
            return _legacy_run(smoke_benchmark, org, path, frac_bits=frac_bits)

        run(4)
        with pytest.raises(ValueError, match="different experiment"):
            run(24)

    def test_legacy_runner_checkpoint_round_trip(
        self, smoke_benchmark, tmp_path, monkeypatch
    ):
        org = MemoryOrganization(rows=128, word_width=32)
        path = str(tmp_path / "legacy.json")

        def run():
            return _legacy_run(smoke_benchmark, org, path)

        first = run()

        def _must_not_run(entries, context):
            raise AssertionError("complete checkpoint must not re-evaluate dies")

        monkeypatch.setattr(engine_module, "_evaluate_shard", _must_not_run)
        # Legacy sampling re-draws the same dies from the same generator
        # seed, so the checkpoint hash matches and the cached results replay.
        assert _curves(run()) == _curves(first)


# --------------------------------------------------------------------------- #
# Pinned store keys and checkpoint hashes
# --------------------------------------------------------------------------- #
# Literal hashes of small sweeps.  Every existing result store and checkpoint
# is keyed by these digests, so a change here orphans them all: a refactor of
# the sweep core must reproduce each literal exactly.
_QUALITY_HASH = "fb32556f99bf6b8ca7a890d07084733fcf7b82e9fa994e05c01b7205153b1e93"
_MSE_HASHES = {
    True: "3b381069cce1b6fbc29a165972c7346904680a55b3cd0b7f66bb95cc5d2b523d",
    False: "e775e8f756b280793fd12bc1fec630bba8880859852e76ad1dbc3f48cd061c1c",
}
_CAP_RESUMABLE_HASH = (
    "5263192df04f2e54bcc6548657e8d656e24892200ae1e31df9ab4260137a6f78"
)
_ADAPTIVE_QUALITY_STORE_KEY = (
    "3754ce0f8aecf238ee5827fc184caf7b478bae457476a8e337f7db5669f6f576"
)
# figure5_mse_cdf's default scheme set, legacy sampling (see
# test_fig5_front_end_store_key_and_checkpoint_hash).
_FIG5_FRONT_END_HASH = (
    "373563405139c8f5a3cade578c3923807f74e32fe680506a3d3e991de8e1cf19"
)
# sha256 of the whole adaptive checkpoint file after a multi-round sweep (see
# test_adaptive_checkpoint_bytes).  Optimizer store records embed this body
# verbatim and the writer keeps key insertion order, so the round state must
# serialise to the same bytes, key order included.
_ADAPTIVE_CHECKPOINT_SHA256 = {
    "mse": "00867cb96dab93b4fa9c0d1c60cd96fe169ea64b49f6b7fd9c502cac97a457be",
    "quality": "550917d62148eb2cf1b67fa30a1f456292a81d86058b6194a9dfb9fb44be1997",
}


def _checkpoint_hash(path):
    return json.loads(path.read_text())["config_hash"]


class TestPinnedHashes:
    def test_quality_store_key_and_checkpoint_hash(
        self, smoke_config, smoke_benchmark, tmp_path
    ):
        engine = SweepEngine(smoke_config)
        checkpoint = tmp_path / "quality.json"
        with ResultStore(str(tmp_path / "store")) as store:
            engine.run(smoke_benchmark, store=store, checkpoint=str(checkpoint))
        assert engine.last_run_stats.store_key == _QUALITY_HASH
        assert _checkpoint_hash(checkpoint) == _QUALITY_HASH

    @pytest.mark.parametrize("include_fault_free", [True, False])
    def test_mse_store_key_and_checkpoint_hash(
        self, smoke_config, tmp_path, include_fault_free
    ):
        engine = SweepEngine(smoke_config)
        checkpoint = tmp_path / "mse.json"
        with ResultStore(str(tmp_path / "store")) as store:
            engine.run_mse(
                store=store,
                checkpoint=str(checkpoint),
                include_fault_free=include_fault_free,
            )
        expected = _MSE_HASHES[include_fault_free]
        assert engine.last_run_stats.store_key == expected
        assert _checkpoint_hash(checkpoint) == expected

    def test_cap_resumable_adaptive_hash(
        self, smoke_config, smoke_benchmark, tmp_path
    ):
        config = dataclasses.replace(smoke_config, adaptive=AdaptiveBudget())
        engine = SweepEngine(config)
        assert (
            engine.config_hash(smoke_benchmark, adaptive_cap_resumable=True)
            == _CAP_RESUMABLE_HASH
        )
        # A cap-resumable sweep keys its checkpoint by that hash, while its
        # store record keeps the cap-exact key.
        checkpoint = tmp_path / "adaptive.json"
        with ResultStore(str(tmp_path / "store")) as store:
            engine.run(
                smoke_benchmark,
                store=store,
                checkpoint=str(checkpoint),
                adaptive_cap_resumable=True,
            )
        assert _checkpoint_hash(checkpoint) == _CAP_RESUMABLE_HASH
        assert engine.last_run_stats.store_key == _ADAPTIVE_QUALITY_STORE_KEY

    @pytest.mark.parametrize("evaluation", ["mse", "quality"])
    def test_adaptive_checkpoint_bytes(
        self, smoke_config, smoke_benchmark, tmp_path, evaluation
    ):
        # A CI target no sweep this small meets, at a threshold some dies
        # pass and some fail: the run seeds every stratum, adds
        # Neyman-allocated rounds and stops at the die cap.
        config = dataclasses.replace(
            smoke_config,
            adaptive=AdaptiveBudget(
                target_ci=1e-6,
                threshold={"mse": 1e6, "quality": 1.01}[evaluation],
                initial_samples_per_count=3,
                round_dies=5,
                max_total_samples=20,
                sketch_bins=16,
            ),
        )
        engine = SweepEngine(config)
        checkpoint = tmp_path / "adaptive.json"
        if evaluation == "quality":
            engine.run(smoke_benchmark, checkpoint=str(checkpoint))
        else:
            engine.run_mse(checkpoint=str(checkpoint))
        assert engine.last_adaptive_report.rounds >= 2
        digest = hashlib.sha256(checkpoint.read_bytes()).hexdigest()
        assert digest == _ADAPTIVE_CHECKPOINT_SHA256[evaluation]

    def test_fig5_front_end_store_key_and_checkpoint_hash(self, tmp_path):
        # The Fig. 5 front end builds its default scheme set by spec string;
        # the key it computes must not move with how that set is spelled.
        checkpoint = tmp_path / "fig5.json"
        with ResultStore(str(tmp_path / "store")) as store:
            figure5_mse_cdf(
                organization=MemoryOrganization(rows=128, word_width=32),
                p_cell=5e-4,
                samples_per_count=2,
                coverage=0.95,
                rng=np.random.default_rng(3),
                store=store,
                checkpoint=str(checkpoint),
            )
            assert store.keys() == [_FIG5_FRONT_END_HASH]
        assert _checkpoint_hash(checkpoint) == _FIG5_FRONT_END_HASH


class TestSchemeNames:
    """Results, store keys and checkpoints are keyed by scheme name."""

    @pytest.fixture
    def dense_config(self):
        # A small, fault-dense memory: multi-fault rows are common, so the
        # two FM-LUT policies score the same dies differently.
        return ExperimentConfig(
            rows=256,
            p_cell=3e-3,
            samples_per_count=4,
            master_seed=99,
            scheme_specs=("bit-shuffle-nfm5",),
            discard_multi_fault_words=False,
        )

    def test_multi_fault_policy_keys_the_store(self, dense_config, tmp_path):
        minimax = BitShuffleScheme(32, 5, multi_fault_policy="minimax")
        cold = SweepEngine(dense_config, schemes=[minimax]).run_mse()
        with ResultStore(str(tmp_path / "store")) as store:
            greedy = SweepEngine(dense_config).run_mse(store=store)
            engine = SweepEngine(dense_config, schemes=[minimax])
            warm = engine.run_mse(store=store)
        assert not engine.last_run_stats.store_hit
        assert list(warm) == ["bit-shuffle-nfm5-minimax"]
        cold_x, cold_y = cold["bit-shuffle-nfm5-minimax"].ecdf.curve()
        warm_x, warm_y = warm["bit-shuffle-nfm5-minimax"].ecdf.curve()
        np.testing.assert_array_equal(warm_x, cold_x)
        np.testing.assert_array_equal(warm_y, cold_y)
        greedy_x, _ = greedy["bit-shuffle-nfm5"].ecdf.curve()
        assert not np.array_equal(greedy_x, cold_x)

    def test_duplicate_scheme_names_rejected(self, dense_config):
        with pytest.raises(ValueError, match="duplicate scheme name 'bit-shu"):
            SweepEngine(
                dense_config,
                schemes=[BitShuffleScheme(32, 2), BitShuffleScheme(32, 2)],
            )
        specs = dataclasses.replace(
            dense_config, scheme_specs=("p-ecc", "p-ecc-H(22,16)")
        )
        with pytest.raises(ValueError, match="duplicate scheme name 'p-ecc-H"):
            SweepEngine(specs)


class TestCapResumableValidation:
    @pytest.mark.parametrize("evaluation", ["quality", "mse"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_rejected_on_fixed_budget_before_store_or_training(
        self, smoke_config, smoke_benchmark, tmp_path, monkeypatch, evaluation, warm
    ):
        engine = SweepEngine(smoke_config)

        def sweep(**kwargs):
            if evaluation == "quality":
                return engine.run(smoke_benchmark, **kwargs)
            return engine.run_mse(**kwargs)

        def _must_not_run(*args, **kwargs):
            raise AssertionError("the flag must be rejected first")

        with ResultStore(str(tmp_path / "store")) as store:
            if warm:
                sweep(store=store)
            monkeypatch.setattr(store, "get_record", _must_not_run)
            monkeypatch.setattr(
                BenchmarkDefinition, "clean_quality", _must_not_run
            )
            with pytest.raises(ValueError, match="adaptive_cap_resumable"):
                sweep(store=store, adaptive_cap_resumable=True)


# --------------------------------------------------------------------------- #
# Grid helpers
# --------------------------------------------------------------------------- #
class TestGridHelpers:
    def test_full_grid(self):
        assert evaluated_failure_counts(4) == [1, 2, 3, 4]

    def test_subsample_bounds(self):
        counts = evaluated_failure_counts(100, 5)
        assert counts[0] >= 1
        assert counts[-1] <= 100
        assert len(counts) <= 5

    def test_subsample_rejects_non_positive(self):
        with pytest.raises(ValueError):
            evaluated_failure_counts(10, 0)

    def test_reassignment_conserves_mass(self):
        cells, p_cell, max_failures = 2048, 5e-3, 20
        probabilities = reassign_count_probabilities(
            cells, p_cell, max_failures, [1, 5, 20]
        )
        total = sum(
            failure_count_pmf(cells, p_cell, n)
            for n in range(1, max_failures + 1)
        )
        assert sum(probabilities.values()) == pytest.approx(total, abs=1e-15)
