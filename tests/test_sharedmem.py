"""Shared-memory lifecycle tests: no block may outlive its sweep.

A POSIX shared-memory block is kernel state -- leaking one consumes
``/dev/shm`` until reboot.  These tests pin the release paths: the
module-level owner registry, partial-failure cleanup in ``share_context``,
the executor's context-manager exit, and a parallel sweep whose shard
evaluation fails mid-flight.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import executor as executor_module
from repro.sim.engine import ExperimentConfig, SweepEngine
from repro.sim.executor import make_executor
from repro.sim.shardeval import share_context
from repro.sim.experiment import BenchmarkDefinition
from repro.sim.sharedmem import SharedNdarray, live_owned_blocks


@pytest.fixture(autouse=True)
def _no_preexisting_leaks():
    assert live_owned_blocks() == ()
    yield
    assert live_owned_blocks() == (), "test leaked a shared-memory block"


def _failing_evaluate(train_features, train_targets, test_features, test_targets):
    raise RuntimeError("injected benchmark failure")


# Call counter for _fail_in_shard: the parent's clean-quality call succeeds,
# and every later call -- the per-die shard evaluations, which forked workers
# inherit the counter state for -- fails.
_EVALUATE_CALLS = {"n": 0}


def _fail_in_shard(train_features, train_targets, test_features, test_targets):
    _EVALUATE_CALLS["n"] += 1
    if _EVALUATE_CALLS["n"] > 1:
        raise RuntimeError("injected shard failure")
    return 0.5


def _tiny_benchmark(evaluate) -> BenchmarkDefinition:
    rng = np.random.default_rng(3)
    return BenchmarkDefinition(
        name="tiny",
        metric_name="score",
        train_features=rng.normal(size=(8, 4)),
        train_targets=rng.normal(size=8),
        test_features=rng.normal(size=(4, 4)),
        test_targets=rng.normal(size=4),
        evaluate=evaluate,
    )


class TestOwnerRegistry:
    def test_create_registers_and_unlink_releases(self):
        handle = SharedNdarray.create(np.arange(6.0))
        assert live_owned_blocks() == (handle.name,)
        handle.unlink()
        assert live_owned_blocks() == ()
        handle.unlink()  # idempotent

    def test_attached_view_is_read_only(self):
        handle = SharedNdarray.create(np.arange(6.0))
        try:
            view = handle.asarray()
            np.testing.assert_array_equal(view, np.arange(6.0))
        finally:
            handle.unlink()


class TestShareContextCleanup:
    def test_partial_failure_unlinks_earlier_blocks(self, monkeypatch):
        real_create = SharedNdarray.create.__func__
        calls = {"n": 0}

        def flaky_create(cls, array):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise OSError("injected /dev/shm exhaustion")
            return real_create(cls, array)

        monkeypatch.setattr(
            SharedNdarray, "create", classmethod(flaky_create)
        )
        context = {
            "raw_features": np.zeros((4, 4)),
            "benchmark": _tiny_benchmark(_failing_evaluate),
        }
        with pytest.raises(OSError, match="injected"):
            share_context(context)
        assert calls["n"] == 3  # two blocks were created, then released
        assert live_owned_blocks() == ()


class TestDispatcherLifecycle:
    def test_context_manager_releases_on_exception(self):
        context = {"raw_features": np.zeros((16, 8))}
        with pytest.raises(RuntimeError, match="mid-sweep"):
            with make_executor(context, workers=2):
                assert live_owned_blocks() != ()
                raise RuntimeError("mid-sweep failure")
        assert live_owned_blocks() == ()

    def test_constructor_failure_releases_blocks(self, monkeypatch):
        def exploding_pool(*args, **kwargs):
            raise OSError("injected pool spawn failure")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", exploding_pool
        )
        context = {"raw_features": np.zeros((16, 8))}
        with pytest.raises(OSError, match="injected"):
            make_executor(context, workers=2)
        assert live_owned_blocks() == ()

    def test_serial_dispatcher_shares_nothing(self):
        context = {"raw_features": np.zeros((16, 8))}
        with make_executor(context, workers=1):
            assert live_owned_blocks() == ()


class TestFailingShardSweep:
    def test_failing_parallel_sweep_leaves_no_blocks(self):
        config = ExperimentConfig(
            rows=64,
            word_width=32,
            p_cell=1e-4,
            samples_per_count=2,
            master_seed=5,
            scheme_specs=("no-protection",),
        )
        engine = SweepEngine(config)
        _EVALUATE_CALLS["n"] = 0
        benchmark = _tiny_benchmark(_fail_in_shard)
        with pytest.raises(RuntimeError, match="injected shard failure"):
            engine.run(benchmark, workers=2)
        assert live_owned_blocks() == ()

    def test_failing_benchmark_training_leaves_no_blocks(self):
        config = ExperimentConfig(
            rows=64,
            word_width=32,
            p_cell=1e-4,
            samples_per_count=2,
            master_seed=5,
            scheme_specs=("no-protection",),
        )
        engine = SweepEngine(config)
        benchmark = _tiny_benchmark(_failing_evaluate)
        with pytest.raises(RuntimeError, match="injected benchmark failure"):
            engine.run(benchmark, workers=2)
        assert live_owned_blocks() == ()
