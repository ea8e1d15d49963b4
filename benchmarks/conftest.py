"""Shared helpers for the speed gates.

Tier-1 (``tests/``) holds every deterministic check, the paper's claims
included.  The modules here hold what tier-1 must not run: wall-clock gates,
whose verdict depends on the host, and the speed records they write.

When the ``REPRO_BENCH_JSON`` environment variable names a file, the gates
append machine-readable records there (one JSON object per line) via the
``json_summary`` fixture; CI uploads that file as a build artifact so speed
trends can be tracked across runs.
"""

from __future__ import annotations

import json
import os
from typing import Mapping

import pytest


def emit_json_summary(record_name: str, record: Mapping[str, object]) -> None:
    """Append one benchmark record to the ``REPRO_BENCH_JSON`` file.

    No-op when the variable is unset, so local runs leave no files behind.
    Records are JSON lines (append-only): several tests -- or several
    benchmark modules, or parallel CI jobs, pointed at the same file -- can
    contribute to one artifact without coordination.  Each line is written
    with a single ``os.write`` on an ``O_APPEND`` descriptor: POSIX appends
    are atomic per write call, so concurrent writers can interleave *lines*
    but never fragments of a line.  (Write-temp-then-rename cannot do this --
    a rename replaces the file, clobbering whatever other writers appended.)

    Every record carries the active kernel backend, so perf artifacts from
    jobs pinned to different ``REPRO_KERNEL_BACKEND`` values stay tellable
    apart after they are merged.
    """
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return
    from repro.kernels import active_backend

    payload = {
        "record": record_name,
        "kernel_backend": active_backend().name,
        **record,
    }
    line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


@pytest.fixture
def json_summary():
    """Fixture exposing :func:`emit_json_summary` to benchmark modules."""
    return emit_json_summary
