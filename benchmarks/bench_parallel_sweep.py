"""Parallel sweep engine: bit-identity and speedup on the Fig. 7 smoke config.

Runs the same seeded :class:`~repro.sim.engine.SweepEngine` sweep (KNN
benchmark, 16 kB memory, Pcell = 1e-3, 48 dies x 4 schemes) serially and with
4 worker processes, then

* asserts the two result sets are **bit-identical** -- the engine's
  deterministic per-die seeding contract, and
* gates a **>= 2x speedup** at 4 workers whenever the machine actually has
  four CPUs to offer.  On a host with fewer CPUs than workers, forked
  workers cannot beat the serial path, so the JSON record says
  ``"skipped"`` (with the reason) instead of recording a misleading speedup.

``test_executor_scaling`` extends the same sweep across the executor tiers
(inline, forked local workers, tcp coordinator + localhost workers) and
gates the tcp tier against the inline baseline: localhost sockets plus
pickle framing must still deliver >= 1.5x at 4 workers on a 4-CPU machine,
or the distributed tier's overhead has regressed past the point of
usefulness.
"""

from __future__ import annotations

import os
import socket
import subprocess
import time

import numpy as np
import pytest

from repro.sim.config import ExperimentConfig
from repro.sim.engine import SweepEngine
from repro.sim.executor import ExecutorSpec
from repro.sim.experiment import standard_benchmarks
from repro.sim.worker import spawn_local_workers

WORKERS = 4
SPEEDUP_GATE = 2.0
MASTER_SEED = 2015

CONFIG = ExperimentConfig(
    rows=4096,
    word_width=32,
    p_cell=1e-3,
    coverage=0.99,
    samples_per_count=6,
    n_count_points=8,
    master_seed=MASTER_SEED,
    benchmark="knn",
)


@pytest.fixture(scope="module")
def knn():
    return standard_benchmarks(scale=1.0, seed=17)["knn"]


def _snapshot(results):
    return {
        name: (dist.cdf_series()[0].tolist(), dist.cdf_series()[1].tolist())
        for name, dist in results.items()
    }


def test_parallel_sweep_bit_identity_and_speedup(json_summary, knn):
    engine = SweepEngine(CONFIG)
    n_dies = len(engine.plan())

    start = time.perf_counter()
    serial = engine.run(knn, workers=1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = engine.run(knn, workers=WORKERS)
    parallel_seconds = time.perf_counter() - start

    # Hard gate in every environment: the parallel path must be bit-identical
    # to the serial one.
    assert set(parallel) == set(serial)
    for name in serial:
        x_serial, y_serial = serial[name].cdf_series()
        x_parallel, y_parallel = parallel[name].cdf_series()
        assert np.array_equal(x_serial, x_parallel), name
        assert np.array_equal(y_serial, y_parallel), name
        assert parallel[name].samples == serial[name].samples == n_dies

    speedup = serial_seconds / parallel_seconds
    cpus = os.cpu_count() or 1
    record = {
        "n_dies": n_dies,
        "n_schemes": len(engine.schemes),
        "cpus": cpus,
        "workers": WORKERS,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "bit_identical": True,
    }
    # With fewer CPUs than workers the ratio measures oversubscription, not
    # the engine: record why there is no speedup instead of a number.
    if cpus < WORKERS:
        record["skipped"] = f"{cpus} CPU(s) for {WORKERS} workers"
    else:
        record["speedup"] = speedup
    json_summary("parallel_sweep", record)

    # The speedup gate only binds where the hardware can deliver it: 4
    # workers on a 1-2 core runner measure scheduling overhead, not the engine.
    if cpus >= WORKERS:
        assert speedup >= SPEEDUP_GATE, (
            f"expected >= {SPEEDUP_GATE}x speedup with {WORKERS} workers on "
            f"{cpus} CPUs, measured {speedup:.2f}x"
        )


TCP_SPEEDUP_GATE = 1.5


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_executor_scaling(json_summary, knn):
    """Inline vs local vs tcp-localhost wall clock on the Fig. 7 smoke config.

    Every tier must reproduce the inline run bit-identically; the tcp tier
    must additionally stay within striking distance of the local tier --
    >= 1.5x over inline at 4 workers (4-CPU machines), i.e. the TCP hop and
    per-worker context transfer may cost at most a modest slice of the
    local tier's >= 2x.
    """
    engine = SweepEngine(CONFIG)
    counts = [2, WORKERS]
    cpus = os.cpu_count() or 1
    results = {}

    def timed(label, **kwargs):
        start = time.perf_counter()
        results[label] = engine.run(knn, **kwargs)
        return time.perf_counter() - start

    inline_seconds = timed("inline", workers=1)
    record = {"cpus": cpus, "inline_seconds": inline_seconds}

    for n in counts:
        record[f"local_{n}_seconds"] = timed(f"local-{n}", workers=n)

    for n in counts:
        port = _free_port()
        workers = spawn_local_workers(
            ("127.0.0.1", port), n, retry=8, stderr=subprocess.DEVNULL
        )
        try:
            record[f"tcp_{n}_seconds"] = timed(
                f"tcp-{n}",
                workers=n,
                executor=ExecutorSpec(kind="tcp", host="127.0.0.1", port=port),
            )
        finally:
            for proc in workers:
                proc.terminate()
            for proc in workers:
                proc.wait(timeout=30)

    # Hard gate everywhere: every tier reproduces the inline run exactly.
    inline = results.pop("inline")
    for label, run in results.items():
        assert set(run) == set(inline), label
        for name in inline:
            x_inline, y_inline = inline[name].cdf_series()
            x_run, y_run = run[name].cdf_series()
            assert np.array_equal(x_inline, x_run), (label, name)
            assert np.array_equal(y_inline, y_run), (label, name)

    stats = engine.last_run_stats
    assert stats is not None and stats.executor == "tcp"

    record["bit_identical"] = True
    # Same reason field as the parallel-sweep record: with fewer CPUs than
    # workers the tcp ratio measures oversubscription and is not gated.
    if cpus < WORKERS:
        record["skipped"] = f"{cpus} CPU(s) for {WORKERS} workers"
    json_summary("executor_scaling", record)

    # The distributed gate binds only where the hardware can deliver it.
    if cpus >= WORKERS:
        speedup = inline_seconds / record[f"tcp_{WORKERS}_seconds"]
        assert speedup >= TCP_SPEEDUP_GATE, (
            f"expected >= {TCP_SPEEDUP_GATE}x speedup from the tcp executor "
            f"with 4 localhost workers on {cpus} CPUs, measured {speedup:.2f}x"
        )


def test_checkpoint_replay_is_instant(tmp_path, knn, json_summary):
    """A completed checkpoint replays the whole sweep without re-evaluation."""
    engine = SweepEngine(CONFIG)
    path = str(tmp_path / "sweep.json")

    start = time.perf_counter()
    first = engine.run(knn, checkpoint=path)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    replay = engine.run(knn, checkpoint=path)
    replay_seconds = time.perf_counter() - start

    assert _snapshot(replay) == _snapshot(first)
    json_summary(
        "checkpoint_replay",
        {"cold_seconds": cold_seconds, "replay_seconds": replay_seconds},
    )
    # The replay does no die evaluation; it must be far faster than the sweep.
    assert replay_seconds < cold_seconds / 2
