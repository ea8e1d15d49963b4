"""Per-layer spans for the traced run, recorded from the benchmark's side.

:class:`LayerTracer` replaces the public entry point of each program layer
with a wrapper that times the call, counts it, and charges its duration to
the enclosing span, so every layer reports *self* time (its span minus the
spans of the layers it called).  Wrappers sit at the binding each caller
actually uses: ``mse_of_fault_map`` is wrapped where ``repro.sim.shardeval``
looks it up, the shard evaluators at the engine's bindings that its inline
executor calls, and the checkpoint writer at both ``repro.sim.engine`` and
``repro.dse.optimize``.  Only in-process calls are seen, which is one reason
every run uses the inline executor.

Book-keeping that the tracer itself adds (hashing retrain inputs, sizing
checkpoint files) is charged to nobody: it is excluded from the enclosing
span's self time and shows only in ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional


class LayerTracer:
    """Span stack plus per-layer self time, call counts and extra counters."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._retrain_keys: set = set()

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _untimed(self, hook: Callable[..., None], *args) -> None:
        """Run tracer book-keeping outside every span's self time."""
        start = time.perf_counter()
        hook(*args)
        if self._stack:
            self._stack[-1][0] += time.perf_counter() - start

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper for ``layer``.

        ``before(args)`` and ``after(args, result)`` run untimed around the
        call and feed the layer's extra counters.
        """
        original = getattr(owner, attr)
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                self._untimed(before, args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                self._untimed(after, args, result)
            return result

        setattr(owner, attr, traced)

    # ------------------------------------------------------------------ #
    # Counter hooks
    # ------------------------------------------------------------------ #
    def _count_maps(self, args, result) -> None:
        self.counts["faultmodel.maps"] += len(result)

    def _count_dies(self, args) -> None:
        self.counts["sim.dies"] += len(args[0])

    def _note_retrain(self, args) -> None:
        import numpy as np

        benchmark, features = args[0], args[1]
        content = hashlib.blake2b(
            np.ascontiguousarray(features, dtype=np.float64).tobytes(), digest_size=16
        ).digest()
        key = (benchmark.name, content)
        if key in self._retrain_keys:
            self.counts["apps.dups"] += 1
        else:
            self._retrain_keys.add(key)

    def _count_checkpoint(self, args, result) -> None:
        self.counts["sim.checkpoint_bytes"] += os.path.getsize(args[0])

    def _optimize_start(self, args) -> None:
        self.counts["dse.engine_runs_before"] = self.calls["sim.engine"]

    def _optimize_end(self, args, result) -> None:
        self.counts["dse.probes"] += (
            self.calls["sim.engine"] - self.counts.pop("dse.engine_runs_before")
        )
        self.counts["dse.dies"] += result.evaluated_dies
        self.counts["dse.pruned_rows"] += len(result.prune_log)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> "LayerTracer":
        """Wrap every layer boundary of the imported program."""
        from repro import kernels
        from repro.analysis import figures
        from repro.dse import optimize
        from repro.faultmodel.montecarlo import FaultMapSampler
        from repro.scenarios.base import FaultScenario
        from repro.sim import engine, shardeval
        from repro.sim.experiment import BenchmarkDefinition
        from repro.sim.faulty_storage import FaultyTensorStore
        from repro.stats import FixedGridEcdfSketch, StreamingMoments

        self.wrap(FaultMapSampler, "sample_batch", "faultmodel", after=self._count_maps)
        self.wrap(FaultScenario, "sample_die", "scenarios")
        self.wrap(FaultyTensorStore, "__init__", "sim.store_build")
        self.wrap(FaultyTensorStore, "load_quantized", "sim.load")
        backend = kernels.active_backend()
        for name in sorted(kernels.KernelBackend.__abstractmethods__):
            if callable(getattr(backend, name)):
                self.wrap(backend, name, "kernels")
        self.wrap(
            BenchmarkDefinition,
            "quality_with_corrupted_features",
            "apps",
            before=self._note_retrain,
        )
        self.wrap(shardeval, "mse_of_fault_map", "quality")
        for attr in ("_evaluate_shard", "_summarize_shard"):
            self.wrap(engine, attr, "sim.shard", before=self._count_dies)
        self.wrap(engine.SweepEngine, "run", "sim.engine")
        self.wrap(engine.SweepEngine, "run_mse", "sim.engine")
        for owner in (engine, optimize):
            self.wrap(
                owner,
                "_write_checkpoint_payload",
                "sim.checkpoint_write",
                after=self._count_checkpoint,
            )
        self.wrap(FixedGridEcdfSketch, "merge", "stats")
        self.wrap(StreamingMoments, "merge", "stats")
        self.wrap(
            optimize.ParetoOptimizer,
            "run",
            "dse.optimize",
            before=self._optimize_start,
            after=self._optimize_end,
        )
        self.wrap(figures, "figure5_mse_cdf", "analysis.figure")
        self.wrap(figures, "figure7_quality", "analysis.figure")
        return self

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def check(self, active, zero) -> Optional[str]:
        """Error text if an active layer saw no call or a zero layer saw one."""
        silent = [layer for layer in active if self.calls[layer] == 0]
        unexpected = [
            f"{layer} ({self.calls[layer]} calls)"
            for layer in zero
            if self.calls[layer] != 0
        ]
        problems = []
        if silent:
            problems.append("no calls into active layers: " + ", ".join(silent))
        if unexpected:
            problems.append("calls into predicted-zero layers: " + ", ".join(unexpected))
        return "; ".join(problems) or None

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of this process (see ``BENCHMARK.json``)."""
        s, calls, counts = self.self_s, self.calls, self.counts
        retrains = calls["apps"]
        mse_s = s["quality"]
        return {
            "faultmodel.sample_s": s["faultmodel"],
            "faultmodel.maps": counts["faultmodel.maps"],
            "scenarios.sample_s": s["scenarios"],
            "scenarios.dies": calls["scenarios"],
            "sim.store_build_s": s["sim.store_build"],
            "sim.load_s": s["sim.load"],
            "sim.loads": calls["sim.load"],
            "kernels.s": s["kernels"],
            "kernels.calls": calls["kernels"],
            "apps.retrain_s": s["apps"],
            "apps.retrains": retrains,
            "apps.dup_frac": counts["apps.dups"] / retrains if retrains else 0.0,
            "quality.mse_s": mse_s,
            "quality.mse_calls": calls["quality"],
            "quality.maps_per_s": calls["quality"] / mse_s if mse_s else 0.0,
            "sim.shard_s": s["sim.shard"],
            "sim.shards": calls["sim.shard"],
            "sim.dies": counts["sim.dies"],
            "sim.engine_self_s": s["sim.engine"],
            "sim.engine_runs": calls["sim.engine"],
            "sim.checkpoint_write_s": s["sim.checkpoint_write"],
            "sim.checkpoint_writes": calls["sim.checkpoint_write"],
            "sim.checkpoint_bytes": counts["sim.checkpoint_bytes"],
            "stats.merge_s": s["stats"],
            "stats.merges": calls["stats"],
            "dse.optimize_self_s": s["dse.optimize"],
            "dse.probes": counts["dse.probes"],
            "dse.dies": counts["dse.dies"],
            "dse.pruned_rows": counts["dse.pruned_rows"],
            "analysis.figure_self_s": s["analysis.figure"],
        }
