"""Worker-side shard evaluation, shared by every executor backend.

A *shard* is a list of die entries; evaluating one is a pure function of
``(entries, context)`` where the context carries the sweep's organization,
schemes, benchmark data, and seeding parameters.  This module holds that
function -- in both its fixed-budget (:func:`evaluate_shard`) and adaptive
(:func:`summarize_shard`) forms.  Every worker, forked locally or remote,
receives the context once per session in the wire protocol's context frame
(:mod:`repro.sim.wire`) and calls :func:`run_shard` for each shard; its
side of that protocol is :func:`serve_connection`.

Every function here consumes randomness only from per-die
``SeedSequence`` children (the engine's seeding contract), so a shard's
result depends on nothing but its entry list -- not on which process, host,
or re-dispatch attempt evaluated it.  That is the property that makes
work-stealing and fault-tolerant re-dispatch bit-identical by construction.
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.memory.faults import FaultMap
from repro.quality.mse import mse_of_fault_map
from repro.scenarios.base import FaultScenario
from repro.sim import wire
from repro.sim.faulty_storage import FaultyTensorStore
from repro.stats import FixedGridEcdfSketch, StreamingMoments

__all__ = [
    "DieEntry",
    "AdaptiveEntry",
    "ShardSummary",
    "REJECTION_MAX_ATTEMPTS",
    "HandshakeError",
    "evaluate_shard",
    "run_shard",
    "serve_connection",
    "summarize_shard",
]

# Each fixed-budget die travels as (die_index, count_index, sample_index,
# failure_count, fault_map | None); a None map means "draw from the die's
# seed child".
DieEntry = Tuple[int, int, int, int, Optional[FaultMap]]

# Adaptive dies travel as (count_index, sample_index, failure_count); the
# sample index is the die's position within its stratum across all rounds.
AdaptiveEntry = Tuple[int, int, int]

# One (scheme, stratum) cell of an adaptive shard summary.
ShardSummary = List[Tuple[Tuple[int, int], StreamingMoments, FixedGridEcdfSketch]]

REJECTION_MAX_ATTEMPTS = 1000

#: Test-only fault injection: when this environment variable names a path,
#: the first shard evaluation to atomically create that file kills its own
#: process with ``os._exit`` *before* evaluating.  Exactly one worker dies
#: (``O_EXCL`` arbitrates racing workers), every later evaluation proceeds
#: normally -- a deterministic "worker crashed after shard k" barrier the
#: recovery tests are built on.  Never set outside tests.
KILL_SWITCH_ENV = "REPRO_TEST_WORKER_KILL"


def _maybe_die_for_test() -> None:
    marker = os.environ.get(KILL_SWITCH_ENV)
    if not marker:
        return
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(1)


def run_shard(kind: str, entries: List[object], context: Mapping[str, object]) -> object:
    """Evaluate one shard of ``kind`` (``"evaluate"`` or ``"summarize"``)."""
    _maybe_die_for_test()
    if kind == "evaluate":
        return evaluate_shard(entries, context)
    if kind == "summarize":
        return summarize_shard(entries, context)
    raise ValueError(f"unknown shard kind {kind!r}")


# --------------------------------------------------------------------------- #
# Die evaluation
# --------------------------------------------------------------------------- #
def _sample_die_map(
    context: Mapping[str, object],
    rng: np.random.Generator,
    failure_count: int,
) -> FaultMap:
    """Draw one die's fault map through the sweep's scenario pipeline.

    The default ``iid-pcell`` scenario issues exactly the historical
    generator calls, so seeded results are bit-identical to the pre-scenario
    engine.
    """
    max_per_word = 1 if context["discard_multi_fault_words"] else None
    scenario: FaultScenario = context["scenario"]
    return scenario.sample_die(
        context["organization"],
        failure_count,
        rng,
        max_faults_per_word=max_per_word,
        max_rounds=REJECTION_MAX_ATTEMPTS,
    )


def _die_transient_seed(
    context: Mapping[str, object], rng: np.random.Generator
) -> Optional[int]:
    """The die's transient replay seed, drawn after its fault map.

    Only transient sweeps take this extra draw from the die's child stream,
    so every non-transient scenario's sampling stream -- and with it every
    existing seeded result -- stays bit-identical.  Transient events are
    scheme-independent (they corrupt stored data columns, whatever guards
    them), so one seed per die serves every scheme's store identically.
    """
    if context.get("transient") is None:
        return None
    return int(rng.integers(np.iinfo(np.int64).max, dtype=np.int64))


def _evaluate_die(
    context: Mapping[str, object],
    fault_map: FaultMap,
    transient_seed: Optional[int] = None,
) -> List[float]:
    """Per-scheme score of one die: normalised quality, or local MSE."""
    if context.get("evaluation", "quality") == "mse":
        return [
            float(mse_of_fault_map(fault_map, scheme))
            for scheme in context["schemes"]
        ]
    qualities = []
    for scheme in context["schemes"]:
        store = FaultyTensorStore(
            context["organization"],
            scheme,
            fault_map,
            context["fixed_point"],
            transient=context.get("transient"),
            transient_seed=transient_seed,
            access_trace=int(context.get("access_trace", 1)),
        )
        corrupted = store.load_quantized(context["raw_features"])
        quality = context["benchmark"].quality_with_corrupted_features(corrupted)
        qualities.append(quality / context["clean_quality"])
    return qualities


def evaluate_shard(
    entries: List[DieEntry], context: Mapping[str, object]
) -> List[Tuple[int, List[float]]]:
    """Evaluate one shard of dies; returns ``(die_index, qualities)`` pairs."""
    results = []
    for die_index, _count_index, _sample_index, failure_count, fault_map in entries:
        transient_seed = None
        if fault_map is None:
            child = np.random.SeedSequence(
                context["master_seed"], spawn_key=(die_index,)
            )
            rng = np.random.default_rng(child)
            fault_map = _sample_die_map(context, rng, failure_count)
            transient_seed = _die_transient_seed(context, rng)
        results.append(
            (die_index, _evaluate_die(context, fault_map, transient_seed))
        )
    return results


def summarize_shard(
    entries: List[AdaptiveEntry], context: Mapping[str, object]
) -> ShardSummary:
    """Evaluate one adaptive shard and reduce it to streaming summaries.

    The returned payload is O(bins): one indicator-moments accumulator and
    one fixed-grid ECDF sketch per (scheme, stratum) touched by the shard,
    regardless of how many dies the shard evaluated.  Dies are evaluated in
    entry order and folded value-by-value, so the summary is a deterministic
    function of the entry list alone.
    """
    adaptive: Mapping[str, object] = context["adaptive"]
    threshold = float(adaptive["threshold"])
    larger_is_better = adaptive["direction"] == "ge"
    edges = adaptive["edges"]
    cells: Dict[Tuple[int, int], Tuple[StreamingMoments, FixedGridEcdfSketch]] = {}
    for count_index, sample_index, failure_count in entries:
        child = np.random.SeedSequence(
            context["master_seed"], spawn_key=(count_index, sample_index)
        )
        rng = np.random.default_rng(child)
        fault_map = _sample_die_map(context, rng, failure_count)
        transient_seed = _die_transient_seed(context, rng)
        scores = _evaluate_die(context, fault_map, transient_seed)
        for scheme_index, score in enumerate(scores):
            key = (scheme_index, count_index)
            cell = cells.get(key)
            if cell is None:
                cell = (StreamingMoments(), FixedGridEcdfSketch(edges))
                cells[key] = cell
            moments, sketch = cell
            passed = score >= threshold if larger_is_better else score <= threshold
            moments.update_batch([1.0 if passed else 0.0])
            sketch.update_batch([score])
    return [
        (key, cells[key][0], cells[key][1]) for key in sorted(cells)
    ]


def shard_cost(kind: str, entries: List[object]) -> int:
    """Cost-model estimate of one shard: dies weighted by failure count.

    A die's evaluation cost grows with its failure count (rejection sampling
    redraws more, corruption masks touch more rows), so the scheduler hands
    heavy shards out first -- classic longest-processing-time ordering keeps
    the tail short when shard sizes are uneven.
    """
    position = 2 if kind == "summarize" else 3
    return sum(1 + int(entry[position]) for entry in entries)


# --------------------------------------------------------------------------- #
# Worker side of the wire protocol (here, not in repro.sim.worker, so the
# executor never imports the module ``python -m`` runs)
# --------------------------------------------------------------------------- #
class HandshakeError(ConnectionError):
    """The coordinator *explicitly* rejected the handshake (a ``reject``
    frame: version/token mismatch): retrying would fail identically, so the
    worker exits nonzero.  A connection that merely drops before the context
    arrives is transient -- a coordinator shutting down races the re-dial of
    a lingering worker -- and is retried like any lost connection."""


def serve_connection(conn: wire.Connection, token: Optional[str]) -> int:
    """Serve one coordinator session; returns the number of shards evaluated.

    Raises :class:`HandshakeError` on an explicit ``reject`` frame (or a
    malformed handshake); connection errors -- before or after the context
    -- propagate as-is and the caller treats them as transient.
    """
    conn.send(("hello", wire.WIRE_VERSION, token))
    message = conn.recv(timeout=60.0)
    if (
        isinstance(message, tuple)
        and len(message) == 2
        and message[0] == "reject"
    ):
        raise HandshakeError(
            f"coordinator {conn.peer} rejected the handshake: {message[1]}"
        )
    if not (
        isinstance(message, tuple) and len(message) == 3 and message[0] == "context"
    ):
        raise HandshakeError(
            f"expected a context message from {conn.peer}, got {message!r}"
        )
    _tag, context, settings = message
    interval = float(settings.get("heartbeat_interval", 2.0))
    stop = threading.Event()

    def _heartbeat() -> None:
        # The send lock in Connection serialises these frames against the
        # main thread's result frames.
        while not stop.wait(interval):
            try:
                conn.send(("heartbeat",))
            except OSError:
                return

    beat = threading.Thread(target=_heartbeat, name="worker-heartbeat", daemon=True)
    beat.start()
    shards_done = 0
    try:
        while True:
            message = conn.recv(timeout=None)
            tag = message[0]
            if tag == "shutdown":
                return shards_done
            if tag != "shard":
                raise wire.FrameError(
                    f"unexpected message {tag!r} from coordinator"
                )
            _t, batch, index, kind, entries = message
            try:
                payload = run_shard(kind, entries, context)
            except Exception:
                conn.send(
                    ("error", batch, index, traceback.format_exc(limit=20))
                )
                continue
            conn.send(("result", batch, index, payload))
            shards_done += 1
    finally:
        stop.set()
