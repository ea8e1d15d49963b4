"""Distributed executor tier: spec/wire units, the work-stealing scheduler,
cross-executor bit-identity, worker-death fault tolerance, and the forked
local workers' lifecycle.

The determinism contract under test: a shard's result is a pure function of
its entry list and the sweep context, results are folded canonically
(die-keyed for fixed sweeps, shard-index order for adaptive summaries), so
inline, forked local, and TCP execution -- including runs where a worker is
killed mid-sweep and its shards are re-dispatched -- produce bit-identical
distributions.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.sim import shardeval
from repro.sim import wire
from repro.sim.config import ExperimentConfig
from repro.sim.engine import SweepEngine
from repro.sim.executor import (
    ExecutorSpec,
    InlineExecutor,
    LocalExecutor,
    TcpExecutor,
    WorkStealingScheduler,
    make_executor,
)
from repro.sim.worker import main as worker_main
from repro.sim.worker import spawn_local_workers


def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _stop_workers(workers) -> None:
    """Terminate workers whose linger a test does not check, then reap them
    (a worker started with ``retry=3`` would otherwise redial for ~3 s)."""
    for proc in workers:
        proc.terminate()
    for proc in workers:
        proc.wait(timeout=60)


def _flatten(obj, prefix=""):
    """Walk an object graph down to scalar/array leaves for exact compare."""
    if isinstance(obj, np.ndarray):
        yield prefix, obj
    elif hasattr(obj, "__dict__"):
        for key, value in vars(obj).items():
            yield from _flatten(value, f"{prefix}.{key}")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}[{key}]")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def assert_results_identical(a, b):
    """Bitwise comparison of two sweep result dicts (scheme -> distribution)."""
    assert set(a) == set(b)
    for name in a:
        fa = dict(_flatten(a[name]))
        fb = dict(_flatten(b[name]))
        assert set(fa) == set(fb), name
        for key in fa:
            va, vb = fa[key], fb[key]
            if isinstance(va, np.ndarray):
                assert va.dtype == vb.dtype, (name, key)
                assert va.shape == vb.shape, (name, key)
                assert (va == vb).all(), (name, key)
            else:
                assert va == vb, (name, key, va, vb)


def _mse_config(**overrides) -> ExperimentConfig:
    kwargs = dict(
        rows=64,
        word_width=32,
        p_cell=1e-4,
        samples_per_count=4,
        master_seed=9,
        scheme_specs=("no-protection", "p-ecc"),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# --------------------------------------------------------------------------- #
# Wire protocol and spec units
# --------------------------------------------------------------------------- #
class TestParseAddress:
    def test_host_port(self):
        assert wire.parse_address("example.org:7077") == ("example.org", 7077)

    def test_rejects_missing_port(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            wire.parse_address("example.org")

    def test_rejects_missing_host(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            wire.parse_address(":7077")

    def test_rejects_non_integer_port(self):
        with pytest.raises(ValueError, match="non-integer port"):
            wire.parse_address("host:http")

    def test_rejects_out_of_range_port(self):
        with pytest.raises(ValueError, match="outside"):
            wire.parse_address("host:70000")

    def test_rejects_port_zero(self):
        with pytest.raises(ValueError, match="port 0, which no worker can dial"):
            wire.parse_address("127.0.0.1:0")


class TestCommandLineAddresses:
    """Both CLIs refuse a rendezvous that cannot work, before any dialing."""

    PORT_ZERO = (
        "executor address '127.0.0.1:0' has port 0, which no worker can dial; "
        "pass a fixed port (e.g. 127.0.0.1:7077)"
    )

    def test_worker_rejects_port_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            worker_main(["--connect", "127.0.0.1:0", "--retry", "30"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(": " + self.PORT_ZERO)

    @pytest.mark.parametrize("retry", ["nan", "-1"])
    def test_worker_rejects_unusable_retry_window(self, capsys, retry):
        with pytest.raises(SystemExit) as excinfo:
            worker_main(["--connect", "127.0.0.1:1", "--retry", retry])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f": --retry must be a non-negative number of seconds, got {float(retry):g}"
        )

    def test_sweep_cli_rejects_port_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["fig5", "--executor", "tcp", "--connect", "127.0.0.1:0"])
        assert str(excinfo.value) == "--connect: " + self.PORT_ZERO


class TestConnectionPeer:
    def test_socketpair_peer_is_labelled(self):
        left, right = socket.socketpair()
        try:
            assert wire.Connection(left).peer == "socketpair"
        finally:
            left.close()
            right.close()


class TestExecutorSpec:
    def test_coerce_none_is_local(self):
        assert ExecutorSpec.coerce(None).kind == "local"

    def test_coerce_string(self):
        assert ExecutorSpec.coerce("inline").kind == "inline"

    def test_coerce_passthrough(self):
        spec = ExecutorSpec(kind="tcp", port=7077)
        assert ExecutorSpec.coerce(spec) is spec

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError, match="ExecutorSpec"):
            ExecutorSpec.coerce(3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown executor kind"):
            ExecutorSpec(kind="mpi")

    def test_tcp_requires_port(self):
        with pytest.raises(ValueError, match="rendezvous port"):
            ExecutorSpec(kind="tcp")

    def test_make_executor_tiers(self):
        context = {"anything": 1}
        with make_executor(context, workers=1) as ex:
            assert isinstance(ex, InlineExecutor)
        with make_executor(context, workers=4, spec="inline") as ex:
            assert isinstance(ex, InlineExecutor)
        with make_executor(context, workers=2) as ex:
            assert isinstance(ex, LocalExecutor)


class TestShardCost:
    def test_weights_by_failure_count(self):
        # evaluate entries: (die, count_index, sample_index, count, explicit)
        light = [(0, 0, 0, 1, None), (1, 0, 1, 1, None)]
        heavy = [(2, 3, 0, 40, None)]
        assert shardeval.shard_cost("evaluate", heavy) > shardeval.shard_cost(
            "evaluate", light
        )

    def test_summarize_position(self):
        # summarize entries: (count_index, sample_index, count)
        assert shardeval.shard_cost("summarize", [(0, 0, 7)]) == 8


# --------------------------------------------------------------------------- #
# Work-stealing scheduler
# --------------------------------------------------------------------------- #
def _summarize_shards(counts):
    """One single-die summarize shard per failure count."""
    return [[(i, 0, count)] for i, count in enumerate(counts)]


class TestWorkStealingScheduler:
    def test_costliest_shard_dispatched_first(self):
        scheduler = WorkStealingScheduler(
            "summarize", _summarize_shards([1, 50, 5])
        )
        order = [scheduler.acquire("w", timeout=0)[0] for _ in range(3)]
        assert order == [1, 2, 0]  # counts 50, 5, 1

    def test_complete_is_first_write_wins(self):
        scheduler = WorkStealingScheduler("summarize", _summarize_shards([1]))
        index, _kind, _entries = scheduler.acquire("a", timeout=0)
        assert scheduler.complete(index, "first", "a") is True
        assert scheduler.complete(index, "second", "b") is False
        assert scheduler.drain(0) == [(index, "first")]
        assert scheduler.finished()
        assert scheduler.stats.completed == 1

    def test_fail_owner_requeues_unacknowledged_shards(self):
        scheduler = WorkStealingScheduler(
            "summarize", _summarize_shards([1, 2])
        )
        first = scheduler.acquire("dead", timeout=0)
        second = scheduler.acquire("alive", timeout=0)
        assert scheduler.fail_owner("dead") == 1
        assert scheduler.stats.redispatched == 1
        # The dead worker's shard is back; the live worker's is not.
        stolen = scheduler.acquire("alive", timeout=0)
        assert stolen[0] == first[0]
        scheduler.complete(second[0], "x", "alive")
        scheduler.complete(stolen[0], "y", "alive")
        assert scheduler.finished()

    def test_fail_owner_ignores_completed_shards(self):
        scheduler = WorkStealingScheduler("summarize", _summarize_shards([1]))
        index, _k, _e = scheduler.acquire("w", timeout=0)
        scheduler.complete(index, "done", "w")
        assert scheduler.fail_owner("w") == 0
        assert scheduler.stats.redispatched == 0

    def test_record_error_aborts_acquire_and_raises(self):
        scheduler = WorkStealingScheduler(
            "summarize", _summarize_shards([1, 2])
        )
        scheduler.acquire("w", timeout=0)
        scheduler.record_error(RuntimeError("deterministic shard failure"))
        assert scheduler.acquire("w", timeout=0) is None
        with pytest.raises(RuntimeError, match="deterministic"):
            scheduler.raise_if_error()

    def test_acquire_blocks_until_requeue(self):
        scheduler = WorkStealingScheduler("summarize", _summarize_shards([1]))
        item = scheduler.acquire("a", timeout=0)
        assert scheduler.acquire("b", timeout=0.05) is None
        got = []

        def steal():
            got.append(scheduler.acquire("b", timeout=5.0))

        thief = threading.Thread(target=steal)
        thief.start()
        scheduler.fail_owner("a")
        thief.join(timeout=5.0)
        assert got and got[0][0] == item[0]


# --------------------------------------------------------------------------- #
# Cross-executor bit-identity
# --------------------------------------------------------------------------- #
class TestExecutorBitIdentity:
    def test_pool_matches_inline(self):
        config = _mse_config()
        inline_engine = SweepEngine(config)
        inline = inline_engine.run_mse(executor="inline")
        assert inline_engine.last_run_stats.executor == "inline"
        pool_engine = SweepEngine(config)
        pooled = pool_engine.run_mse(workers=2)
        assert pool_engine.last_run_stats.executor == "local"
        assert pool_engine.last_run_stats.redispatched_shards == 0
        assert_results_identical(inline, pooled)

    def test_single_worker_downgrades_to_inline(self):
        engine = SweepEngine(_mse_config())
        engine.run_mse(workers=1)
        assert engine.last_run_stats.executor == "inline"

    def test_tcp_matches_inline_and_workers_linger_between_sweeps(self):
        config = _mse_config()
        inline = SweepEngine(config).run_mse(executor="inline")
        port = _free_port()
        spec = ExecutorSpec(
            kind="tcp", host="127.0.0.1", port=port, min_workers=2
        )
        workers = spawn_local_workers(
            ("127.0.0.1", port), 2, retry=3, stderr=subprocess.DEVNULL
        )
        try:
            engine = SweepEngine(config)
            first = engine.run_mse(workers=2, executor=spec)
            stats = engine.last_run_stats
            assert stats.executor == "tcp"
            assert stats.redispatched_shards == 0
            # A second sweep on the same port: the workers linger after the
            # first coordinator shuts down and re-dial for the next one.
            second = SweepEngine(config).run_mse(workers=2, executor=spec)
        finally:
            for proc in workers:
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    raise
        assert_results_identical(inline, first)
        assert_results_identical(inline, second)
        # Lingering workers exit 0 once no coordinator reappears.
        assert [proc.returncode for proc in workers] == [0, 0]

    def test_tcp_quality_sweep_matches_inline(self):
        # The quality path ships a real benchmark (module-level evaluate
        # callables, picklable by reference) through the wire.
        from repro.sim.experiment import standard_benchmarks

        benchmark = standard_benchmarks(scale=0.25, seed=11)["pca"]
        config = ExperimentConfig(
            rows=64,
            word_width=32,
            p_cell=1e-4,
            samples_per_count=2,
            master_seed=13,
            scheme_specs=("no-protection", "p-ecc"),
        )
        inline = SweepEngine(config).run(benchmark, executor="inline")
        port = _free_port()
        spec = ExecutorSpec(
            kind="tcp", host="127.0.0.1", port=port, min_workers=1
        )
        workers = spawn_local_workers(
            ("127.0.0.1", port), 1, retry=3, stderr=subprocess.DEVNULL
        )
        try:
            engine = SweepEngine(config)
            distributed = engine.run(benchmark, workers=2, executor=spec)
            assert engine.last_run_stats.executor == "tcp"
        finally:
            _stop_workers(workers)
        assert_results_identical(inline, distributed)

    def test_adaptive_tcp_matches_inline(self):
        from repro.sim.config import AdaptiveBudget

        config = _mse_config(
            samples_per_count=12,
            adaptive=AdaptiveBudget(target_ci=0.05),
        )
        inline = SweepEngine(config).run_mse(executor="inline")
        port = _free_port()
        spec = ExecutorSpec(
            kind="tcp", host="127.0.0.1", port=port, min_workers=1
        )
        workers = spawn_local_workers(
            ("127.0.0.1", port), 2, retry=3, stderr=subprocess.DEVNULL
        )
        try:
            distributed = SweepEngine(config).run_mse(
                workers=2, executor=spec
            )
        finally:
            _stop_workers(workers)
        assert_results_identical(inline, distributed)


# --------------------------------------------------------------------------- #
# Fault tolerance: kill a worker mid-sweep, demand identical results
# --------------------------------------------------------------------------- #
class TestWorkerDeathRecovery:
    def test_pool_worker_death_recovers_bit_identically(
        self, tmp_path, monkeypatch
    ):
        config = _mse_config(samples_per_count=8)
        inline = SweepEngine(config).run_mse(executor="inline")
        marker = tmp_path / "kill-one-pool-worker"
        monkeypatch.setenv(shardeval.KILL_SWITCH_ENV, str(marker))
        engine = SweepEngine(config)
        survived = engine.run_mse(workers=2)
        assert marker.exists(), "the kill barrier never fired"
        stats = engine.last_run_stats
        assert stats.executor == "local"
        assert stats.redispatched_shards >= 1
        assert_results_identical(inline, survived)

    def test_tcp_worker_death_recovers_bit_identically(self, tmp_path):
        config = _mse_config(samples_per_count=8)
        inline = SweepEngine(config).run_mse(executor="inline")
        marker = tmp_path / "kill-one-tcp-worker"
        port = _free_port()
        spec = ExecutorSpec(
            kind="tcp", host="127.0.0.1", port=port, min_workers=2
        )
        workers = spawn_local_workers(
            ("127.0.0.1", port),
            2,
            retry=3,
            env={shardeval.KILL_SWITCH_ENV: str(marker)},
            stderr=subprocess.DEVNULL,
        )
        try:
            engine = SweepEngine(config)
            survived = engine.run_mse(workers=2, executor=spec)
        finally:
            for proc in workers:
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    raise
        assert marker.exists(), "the kill barrier never fired"
        stats = engine.last_run_stats
        assert stats.executor == "tcp"
        assert stats.redispatched_shards >= 1
        # Exactly one worker died (the O_EXCL marker arbitrates); it exits 1,
        # the survivor lingers and exits 0.
        assert sorted(proc.returncode for proc in workers) == [0, 1]
        assert_results_identical(inline, survived)

    def test_tcp_worker_error_propagates(self):
        # A shard that fails deterministically must abort the sweep (not
        # re-dispatch forever) with the worker's traceback in the message.
        context = {"evaluation": "nonsense"}
        port = _free_port()
        spec = ExecutorSpec(
            kind="tcp", host="127.0.0.1", port=port, min_workers=1
        )
        workers = spawn_local_workers(
            ("127.0.0.1", port), 1, retry=3, stderr=subprocess.DEVNULL
        )
        executor = TcpExecutor(context, spec)
        try:
            with pytest.raises(RuntimeError, match="failed on worker-"):
                executor.run("summarize", [[(0, 0, 1)]], lambda *_: None)
        finally:
            executor.close()
            _stop_workers(workers)

    def test_tcp_aborts_when_no_worker_ever_connects(self):
        port = _free_port()
        spec = ExecutorSpec(
            kind="tcp",
            host="127.0.0.1",
            port=port,
            min_workers=1,
            connect_timeout=1.5,
        )
        executor = TcpExecutor({"evaluation": "mse"}, spec)
        try:
            with pytest.raises(RuntimeError, match="no TCP workers"):
                executor.run("summarize", [[(0, 0, 1)]], lambda *_: None)
        finally:
            executor.close()


# --------------------------------------------------------------------------- #
# Forked local workers: no child may outlive its executor
# --------------------------------------------------------------------------- #
def _failing_evaluate(train_features, train_targets, test_features, test_targets):
    raise RuntimeError("injected benchmark failure")


def _bounded(call, timeout):
    """Run ``call`` on a daemon thread: a stalled sweep fails the test
    instead of hanging it."""
    outcome = []

    def target():
        try:
            outcome.append((True, call()))
        except BaseException as error:
            outcome.append((False, error))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert outcome, f"still running after {timeout:g}s"
    finished, value = outcome[0]
    if not finished:
        raise value
    return value


class TestLocalExecutorLifecycle:
    def test_successful_sweep_leaves_no_child(self):
        engine = SweepEngine(_mse_config())
        engine.run_mse(workers=2)
        assert engine.last_run_stats.executor == "local"
        assert multiprocessing.active_children() == []

    def test_failing_parallel_sweep_leaves_no_child(self, monkeypatch):
        def _raise(entries, context):
            raise ValueError("injected shard failure")

        # Forked workers inherit the patched module.
        monkeypatch.setattr(shardeval, "evaluate_shard", _raise)
        with pytest.raises(RuntimeError, match="injected shard failure") as info:
            SweepEngine(_mse_config()).run_mse(workers=2)
        # The worker's traceback travels with the error.
        assert "ValueError" in str(info.value)
        assert multiprocessing.active_children() == []

    def test_all_workers_dying_aborts_promptly(self, monkeypatch):
        monkeypatch.setattr(
            shardeval, "evaluate_shard", lambda entries, context: os._exit(3)
        )
        with pytest.raises(RuntimeError, match="all 2 local workers died"):
            _bounded(lambda: SweepEngine(_mse_config()).run_mse(workers=2), 5.0)
        assert multiprocessing.active_children() == []

    def test_child_lost_before_joining_lowers_the_start_barrier(
        self, tmp_path, monkeypatch
    ):
        from repro.sim import executor as executor_module

        config = _mse_config(samples_per_count=8)
        inline = SweepEngine(config).run_mse(executor="inline")
        marker = str(tmp_path / "one-child-dies-before-the-handshake")
        real_serve = executor_module.serve_connection

        def serve_unless_first(conn, token):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return real_serve(conn, token)
            os._exit(1)

        monkeypatch.setattr(executor_module, "serve_connection", serve_unless_first)
        survived = _bounded(lambda: SweepEngine(config).run_mse(workers=2), 30.0)
        assert_results_identical(inline, survived)
        assert multiprocessing.active_children() == []

    def test_fork_failure_closes_ends_and_leaves_no_child(self, monkeypatch):
        pairs = []
        real_socketpair = socket.socketpair
        real_fork = os.fork
        forks = {"n": 0}

        def recording_socketpair(*args):
            pair = real_socketpair(*args)
            pairs.append(pair)
            return pair

        def flaky_fork():
            forks["n"] += 1
            if forks["n"] >= 2:
                raise OSError("injected fork failure")
            return real_fork()

        monkeypatch.setattr(socket, "socketpair", recording_socketpair)
        monkeypatch.setattr(os, "fork", flaky_fork)
        with pytest.raises(OSError, match="injected fork failure"):
            make_executor({"evaluation": "mse"}, workers=3)
        assert forks["n"] == 2  # one child was forked, then released
        assert len(pairs) == 2
        assert all(sock.fileno() == -1 for pair in pairs for sock in pair)
        assert multiprocessing.active_children() == []

    def test_context_manager_reaps_children_on_exception(self):
        with pytest.raises(RuntimeError, match="mid-sweep"):
            with make_executor({"evaluation": "mse"}, workers=2):
                assert len(multiprocessing.active_children()) == 2
                raise RuntimeError("mid-sweep failure")
        assert multiprocessing.active_children() == []

    def test_inline_executor_forks_nothing(self):
        with make_executor({"evaluation": "mse"}, workers=1):
            assert multiprocessing.active_children() == []

    def test_failing_benchmark_training_leaves_no_child(self):
        from repro.sim.experiment import BenchmarkDefinition

        rng = np.random.default_rng(3)
        benchmark = BenchmarkDefinition(
            name="tiny",
            metric_name="score",
            train_features=rng.normal(size=(8, 4)),
            train_targets=rng.normal(size=8),
            test_features=rng.normal(size=(4, 4)),
            test_targets=rng.normal(size=4),
            evaluate=_failing_evaluate,
        )
        with pytest.raises(RuntimeError, match="injected benchmark failure"):
            SweepEngine(_mse_config()).run(benchmark, workers=2)
        assert multiprocessing.active_children() == []


class TestTcpClose:
    def test_close_without_workers_is_prompt(self):
        spec = ExecutorSpec(
            kind="tcp", host="127.0.0.1", port=_free_port(), min_workers=1
        )
        executor = TcpExecutor({"evaluation": "mse"}, spec)
        time.sleep(0.2)  # let the accept thread block in accept()
        start = time.monotonic()
        executor.close()
        assert time.monotonic() - start < 1.0
        assert not executor._accept_thread.is_alive()

    def test_every_registered_worker_receives_the_shutdown_frame(self):
        from repro.sim.worker import serve_connection

        for _attempt in range(10):
            spec = ExecutorSpec(
                kind="tcp", host="127.0.0.1", port=_free_port(), min_workers=2
            )
            executor = TcpExecutor({"evaluation": "mse"}, spec)
            outcomes = []

            def _serve():
                conn = wire.Connection(
                    socket.create_connection(executor.address, timeout=5.0)
                )
                try:
                    outcomes.append(serve_connection(conn, None))
                except Exception as error:
                    outcomes.append(error)
                finally:
                    conn.close()

            threads = [threading.Thread(target=_serve) for _ in range(2)]
            try:
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 10.0
                while executor.stats.workers_joined < 2:
                    assert time.monotonic() < deadline, "workers never joined"
                    time.sleep(0.01)
            finally:
                executor.close()
                for thread in threads:
                    thread.join(timeout=10.0)
            # serve_connection returns (0 shards) only on a shutdown frame.
            assert outcomes == [0, 0]


class TestWorkerHandshake:
    def test_token_mismatch_makes_worker_exit_nonzero(self):
        port = _free_port()
        spec = ExecutorSpec(
            kind="tcp",
            host="127.0.0.1",
            port=port,
            min_workers=1,
            token="right",
        )
        executor = TcpExecutor({"evaluation": "mse"}, spec)
        try:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.sim.worker",
                    "--connect",
                    f"127.0.0.1:{port}",
                    "--token",
                    "wrong",
                    "--retry",
                    "30",
                ],
                env=_worker_env(),
                stderr=subprocess.DEVNULL,
            )
            assert proc.wait(timeout=60) == 1
        finally:
            executor.close()

    def test_worker_exits_nonzero_when_coordinator_never_appears(self):
        port = _free_port()
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.sim.worker",
                "--connect",
                f"127.0.0.1:{port}",
                "--retry",
                "0.5",
            ],
            env=_worker_env(),
            stderr=subprocess.DEVNULL,
        )
        assert proc.wait(timeout=60) == 1

    def test_worker_module_starts_without_runtime_warning(self):
        # runpy warns when the package import has already imported the
        # module ``-m`` is about to run; the executor must not import it.
        completed = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "repro.sim.worker",
                "--help",
            ],
            env=_worker_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr


def _worker_env():
    import os

    import repro

    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    return env
