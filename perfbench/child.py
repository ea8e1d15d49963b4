"""One benchmark run: a fresh single-core interpreter running one sweep.

Started by ``run.py`` with the environment it pins (BLAS threads, per-run
``TMPDIR``, ``PYTHONPATH`` at the checkout's ``src``).  It imports the
program, builds the workload's inputs, optionally installs the layer
tracer, runs the sweep once, and prints one JSON record as its last line:
timings, peak RSS, result digest, run environment and -- when traced -- the
per-layer metrics and the layer-map self-check.

``setup_s`` runs from ``--launched`` (the parent's ``CLOCK_MONOTONIC``
reading just before it started this process) to the moment the sweep call
begins; it is split into ``import_s`` (interpreter start, ``import repro``,
kernel-backend selection) and ``inputs_s`` (building the workload inputs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback


def monotonic() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def filesystem_of(path: str) -> str:
    """``fstype on device (mountpoint)`` of the mount holding ``path``."""
    path = os.path.realpath(path)
    best = None
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                device, mountpoint, fstype = line.split()[:3]
                inside = path == mountpoint or path.startswith(mountpoint.rstrip("/") + "/")
                if inside and (best is None or len(mountpoint) > len(best[1])):
                    best = (device, mountpoint, fstype)
    except OSError:
        return "unknown"
    if best is None:
        return "unknown"
    return f"{best[2]} on {best[0]} ({best[1]})"


def run_environment(backend: str) -> dict:
    import numpy as np

    tmpdir = tempfile.gettempdir()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "kernel_backend": backend,
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tmpdir": tmpdir,
        "tmp_fs": filesystem_of(tmpdir),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args()

    record: dict = {"ok": False, "workload": args.workload, "seed": args.seed, "traced": bool(args.trace)}
    try:
        from workloads import WORKLOADS, import_program

        workload = WORKLOADS[args.workload]
        backend = import_program()
        imported = monotonic()
        inputs = workload.build(args.seed)
        built = monotonic()
        tracer = None
        if args.trace:
            from layertrace import LayerTracer

            tracer = LayerTracer().install()
        sweep_start = monotonic()
        start = time.perf_counter()
        result = workload.sweep(inputs)
        wall_s = time.perf_counter() - start
        record.update(
            setup_s=sweep_start - args.launched,
            import_s=imported - args.launched,
            inputs_s=built - imported,
            wall_s=wall_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            digest=workload.digest(result),
            env=run_environment(backend),
        )
        error = workload.sanity(result)
        if tracer is not None:
            record["layers"] = tracer.metrics()
            trace_error = tracer.check(workload.active, workload.zero)
            if trace_error:
                error = f"{error}; {trace_error}" if error else trace_error
        record["error"] = error
        record["ok"] = error is None
    except Exception:  # report any failure as a failed run, with its traceback
        record["error"] = traceback.format_exc(limit=8)
    print(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
