"""End-to-end benchmark of the quality-aware yield sweeps.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig5-mse --seed 0 --seconds 36 --trace 0

Workloads (see ``workloads.py``): ``fig5-mse``, ``fig7-elasticnet``,
``dse-optimize``.  Every run is a fresh single-core interpreter
(``child.py``): inline executor, BLAS threads pinned to 1, ``TMPDIR`` a
per-run directory under ``.perfbench/tmp`` that is removed afterwards, and
the C kernel cache under ``.perfbench/kernels``.  Runs go one at a time on
one pinned CPU, so the benchmark keeps one CPU busy.

One untimed warm-up run fills the bytecode and kernel caches.  Then runs
repeat until ``--seconds`` have passed (at least :data:`MIN_RUNS`):

* ``--trace 0`` reports the medians of the end-to-end metrics ``setup_s``,
  ``wall_s`` and ``peak_rss_mb`` over the runs, and ``ok_frac``;
* ``--trace 1`` alternates untraced and traced runs and reports the medians
  of the per-layer metrics of the traced runs, ``sim.dies_per_s`` (dies per
  second of untraced ``wall_s``), the set-up split, and
  ``trace.overhead_frac``.

Every metric with unit ``s`` or ``1/s`` is scaled to a reference host speed.  On a shared
2-vCPU x86-64 VM each vCPU was measured flipping between two speeds about 40 %
apart, in phases from under a second to over thirty seconds, which moved
whole runs by 20-40 %.  So the benchmark times a fixed pure-Python probe
on the same CPU just before and just after each run, and multiplies the
run's times by :data:`PROBE_REFERENCE_S` over the mean probe time.  The
probe does not touch the program, so the scaling removes host speed but
cannot hide a change in the program.  Each run record keeps the raw times
and the probe time.

A run succeeds only if it exits cleanly, reports the ``c`` kernel backend,
passes the workload's sanity check (and, when traced, the layer-map
self-check), and its result digest matches the digest pinned in
``digests.json`` for the default seed -- or, for any other seed, the
warm-up run's digest.  The warm-up is judged too and counts as an attempted
run; when it fails no timed run follows, and the result object reports
``correct`` false with the warm-up's timings.  Each run's record (timings,
digest, run environment) is printed as one JSON line; the last line is the
result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, pinned_digest  # noqa: E402

EXPECTED_BACKEND = "c"
#: Probe time in the fast state of a shared 2-vCPU x86-64 VM (Python 3.11).
PROBE_REFERENCE_S = 0.0115
MIN_RUNS = 3
#: A run process is killed after this long; it is then a failed run.
RUN_TIMEOUT_S = 60.0
#: No run starts later than this after the benchmark started.
LAST_START_S = 110.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
LAYER_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def run_env(tmpdir: Path) -> Dict[str, str]:
    """The pinned environment of one run process."""
    env = dict(os.environ)
    env.pop("REPRO_KERNEL_BACKEND", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        REPRO_KERNEL_CACHE=str(STATE / "kernels"),
        TMPDIR=str(tmpdir),
    )
    return env


def probe_host_speed() -> float:
    """Median time of five fixed pure-Python loops: the host's current speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(100_000):
            total += i * i
            table[i & 1023] = total
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Starts run processes one at a time and judges each one."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.expected_digest: Optional[str] = pinned_digest(workload, seed)
        self._count = 0

    def launch(self, trace: bool) -> dict:
        """Run one process; return its record with ``ok`` and ``error`` judged."""
        self._count += 1
        tmpdir = STATE / "tmp" / f"{os.getpid()}-{self._count}"
        tmpdir.mkdir(parents=True)
        command = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--trace", "1" if trace else "0",
        ]
        probe_before = probe_host_speed()
        try:
            launched = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.run(
                command + ["--launched", repr(launched)],
                cwd=ROOT,
                env=run_env(tmpdir),
                capture_output=True,
                text=True,
                timeout=RUN_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"ok": False, "traced": trace, "error": f"timed out after {RUN_TIMEOUT_S} s"}
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        probe_s = (probe_before + probe_host_speed()) / 2
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            record = {"ok": False, "traced": trace, "error": proc.stderr.strip()[-2000:] or "no record"}
        record.update(probe_s=probe_s, scale=PROBE_REFERENCE_S / probe_s)
        if proc.returncode != 0 and record.get("ok"):
            record.update(ok=False, error=f"exit code {proc.returncode}")
        if record.get("ok"):
            backend = record["env"]["kernel_backend"]
            if backend != EXPECTED_BACKEND:
                record.update(ok=False, error=f"kernel backend {backend!r}, expected {EXPECTED_BACKEND!r}")
            elif self.expected_digest is not None and record["digest"] != self.expected_digest:
                record.update(
                    ok=False,
                    error=f"result digest {record['digest']} != expected {self.expected_digest}",
                )
        return record


def median_of(records: List[dict], key: str, unit: str, layer: bool = False) -> float:
    """Median of ``key`` over ``records``; ``s`` and ``1/s`` scaled to reference speed."""
    values = []
    for record in records:
        value = (record["layers"] if layer else record)[key]
        if unit == "s":
            value *= record["scale"]
        elif unit == "1/s":
            value /= record["scale"]
        values.append(value)
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(records: List[dict], attempted: int, failed: int) -> Dict[str, float]:
    ok = [r for r in records if r.get("ok")] or [r for r in records if "wall_s" in r]
    metrics = {
        name: median_of(ok, name, END_TO_END_UNITS[name])
        for name in ("setup_s", "wall_s", "peak_rss_mb")
    }
    metrics["ok_frac"] = (attempted - failed) / attempted
    return metrics


def layer_metrics(records: List[dict]) -> Dict[str, float]:
    untraced = [r for r in records if r.get("ok") and not r["traced"]]
    traced = [r for r in records if r.get("ok") and r["traced"]]
    metrics = {
        key: median_of(traced, key, unit, layer=True)
        for key, unit in LAYER_UNITS.items()
        if traced and key in traced[0]["layers"]
    }
    wall = median_of(untraced, "wall_s", END_TO_END_UNITS["wall_s"])
    traced_wall = median_of(traced, "wall_s", END_TO_END_UNITS["wall_s"])
    metrics["sim.dies_per_s"] = metrics.get("sim.dies", 0.0) / wall if wall else 0.0
    setup = untraced + traced
    metrics["setup.import_s"] = median_of(setup, "import_s", LAYER_UNITS["setup.import_s"])
    metrics["setup.inputs_s"] = median_of(setup, "inputs_s", LAYER_UNITS["setup.inputs_s"])
    metrics["trace.overhead_frac"] = (traced_wall - wall) / wall if wall else 0.0
    return {key: metrics.get(key, 0.0) for key in LAYER_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # One CPU for the runs and the speed probe, so the probe sees the run's CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = time.monotonic()
    runner = Runner(args.workload, args.seed)
    records: List[dict] = []
    try:
        # The warm-up is judged like every other run and counts as attempted;
        # a failed warm-up (wrong digest, NumPy fallback, crash) ends the
        # benchmark with ``correct`` false and its timings as the metrics.
        warm = runner.launch(trace=False)
        print(json.dumps({"warm_up": warm}))
        if warm.get("ok"):
            if runner.expected_digest is None:
                runner.expected_digest = warm["digest"]

            # A traced run alternates untraced and traced runs: two of each at least.
            min_runs = 2 * 2 if args.trace else MIN_RUNS
            timed_start = time.monotonic()
            while True:
                elapsed = time.monotonic() - timed_start
                if len(records) >= min_runs and elapsed >= args.seconds:
                    break
                if len(records) >= min_runs and time.monotonic() - started > LAST_START_S:
                    break
                records.append(runner.launch(trace=bool(args.trace) and len(records) % 2 == 1))
                print(json.dumps({"run": records[-1]}))
    finally:
        try:
            (STATE / "tmp").rmdir()
        except OSError:
            pass  # another benchmark process still has runs there

    judged = [warm] + records
    attempted = len(judged)
    failed = sum(1 for r in judged if not r.get("ok"))
    for record in judged:
        if not record.get("ok"):
            print(f"failed run: {record.get('error')}", file=sys.stderr)
    if args.trace:
        values, units = layer_metrics(records), LAYER_UNITS
    else:
        values, units = end_to_end_metrics(records or [warm], attempted, failed), END_TO_END_UNITS
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
