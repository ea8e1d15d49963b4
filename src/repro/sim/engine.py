"""Parallel sharded Monte-Carlo sweep engine for the Fig. 5 / Fig. 7 studies.

The paper's application study evaluates thousands of faulty dies: for every
failure count ``n`` of a stratified grid, ``samples_per_count`` random fault
maps are drawn, each die's corrupted training data is pushed through every
protection scheme, and the per-die qualities are re-weighted by ``Pr(N = n)``
(Eq. 4) into the quality CDFs.  Every die is independent of every other die,
which makes the sweep embarrassingly parallel -- *if* the random sampling is
arranged so that results do not depend on how the work is distributed.

This module provides that arrangement for a sweep described by an
:class:`~repro.sim.config.ExperimentConfig` (whose results are the types of
:mod:`repro.sim.results`):

* :class:`SweepEngine` -- shards the ``(failure_count x sample)`` grid into
  independent work units, evaluates them inline (``workers=1``) or across
  forked local worker processes (:mod:`repro.sim.executor`), and merges the
  per-shard results into one distribution per scheme.
* one execution core for both Monte-Carlo budgets (``SweepEngine._execute``):
  it reads the checkpoint, opens the executor once and builds every CDF from
  per-(scheme, stratum) ``(support, mass)`` cells.
* checkpointing -- a durable JSON cache keyed by a hash of the full
  configuration, so interrupted sweeps resume without re-evaluating finished
  dies.  A fixed budget rewrites its exact per-die scores after every shard,
  an adaptive budget its O(bins) round state once per round.

The engine supports two die evaluations over the same sharded grid:
:meth:`SweepEngine.run` trains a benchmark on the corrupted features of every
die (the Fig. 7 application study), while :meth:`SweepEngine.run_mse` scores
each die by its local MSE (Eq. 6, the Fig. 5 study).  They are two entry
points into one private core, ``SweepEngine._sweep``.  Each entry point
supplies only its worker context, its config-hash arguments, the score of
the fault-free point mass and its result codec (distribution constructor
plus store payload encode/decode); the core owns validation, the result
store, checkpoint keying, fixed or adaptive execution, the per-scheme ECDF
merge and :class:`~repro.sim.results.SweepRunStats`.  The two entry points
are the grid-point evaluators behind the :mod:`repro.dse` design-space
exploration layer.  The sweep's configuration lives in :mod:`repro.sim.config`
and its result types in :mod:`repro.sim.results`.

Deterministic seeding scheme
----------------------------

Reproducibility is guaranteed by deriving one independent random stream per
die from the master seed, never from shared generator state:

1. the master seed defines the root ``np.random.SeedSequence(master_seed)``;
2. die ``i`` (in the canonical enumeration below) uses the root's ``i``-th
   spawned child, which by the ``SeedSequence`` spawning algebra equals
   ``np.random.SeedSequence(master_seed, spawn_key=(i,))`` -- so a worker can
   reconstruct its streams from ``(master_seed, die_index)`` alone;
3. the die's fault map (including the rejection of maps with multi-fault
   words) is drawn from ``np.random.default_rng`` of that child and nothing
   else; the evaluation of a drawn die is fully deterministic.

The canonical die enumeration is count-major: with evaluated failure counts
``c_0 < c_1 < ...`` and ``S = samples_per_count`` samples each, die index
``i = count_index * S + sample_index``.  Because every die's result depends
only on ``(master_seed, i)``, the assembled distributions are bit-identical
for any worker count, shard size, or shard execution order.  Future schemes
and samplers must follow the same rule -- consume randomness only from the
die's own child sequence -- to stay reproducible.

The engine also accepts pre-drawn fault maps (``fault_maps=``), which is how
legacy sampling (:func:`~repro.sim.runner.legacy_fault_maps`, the historical
shared-generator stream of the golden regression curves) reaches the same
evaluation, parallelism, and checkpointing.

Budget modes and the streaming reduction
----------------------------------------

Two Monte-Carlo budgets are supported over the same sharded machinery:

* **Fixed** (the default): every failure count receives exactly
  ``samples_per_count`` dies, shards return exact per-die scores, and the
  merge path (via the exact mergeable buffer of :mod:`repro.stats`) is
  bit-identical to the historical serial implementations -- this is the mode
  the pinned golden curves and the per-die checkpoint cache live in.
* **Adaptive** (``config.adaptive = AdaptiveBudget(...)``): the sweep runs in
  rounds.  Workers return O(bins) *streaming summaries* per shard -- one
  :class:`~repro.stats.StreamingMoments` of the yield indicator and one
  :class:`~repro.stats.FixedGridEcdfSketch` of the raw scores per (scheme,
  stratum) -- which the parent folds in canonical shard order into one
  :class:`~repro.stats.StratifiedYield`, the round state.  After each round
  the controller asks it for every scheme's confidence half-width of the
  yield-at-threshold estimate and either stops (target met, or the die cap
  reached) or has it split the next round's dies across strata by Neyman
  allocation (proportional to ``Pr(N = n)`` times the observed stratum std,
  summed over schemes).  Adaptive dies are seeded by
  ``SeedSequence(master_seed, spawn_key=(count_index, sample_index))``, so a
  die's stream is independent of the allocation path that scheduled it; with
  a fixed shard width the whole run is bit-identical for any worker count.
  The round state (``StratifiedYield.to_dict()``) checkpoints under a hash
  that includes the adaptive parameters, so fixed and adaptive caches can
  never alias.

When several workers are used, each worker receives the evaluation context
-- the benchmark's feature matrices and the pre-quantized training codes --
once per sweep, in the wire protocol's context frame (:mod:`repro.sim.wire`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import jsonio
from repro.core.base import ProtectionScheme
from repro.faultmodel.yieldmodel import MseDistribution
from repro.memory.faults import FaultMap
from repro.quality.cdf import WeightedEcdf
from repro.quantize.fixedpoint import FixedPointFormat
from repro.scenarios.base import FaultScenario
from repro.sim import shardeval as _shardeval
from repro.sim.config import ExperimentConfig
from repro.sim.executor import ExecutorSpec, ShardExecutor, make_executor
from repro.sim.experiment import BenchmarkDefinition
from repro.sim.faulty_storage import QuantizedTensor
from repro.sim.results import AdaptiveBudgetReport, QualityDistribution, SweepRunStats
from repro.stats import FixedGridEcdfSketch, StratifiedYield, WeightedSampleBuffer
from repro.store.schema import (
    adaptive_report_from_payload,
    mse_results_from_payload,
    mse_results_to_payload,
    quality_results_from_payload,
    quality_results_to_payload,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports sim)
    from repro.store.store import ResultStore

__all__ = ["SweepEngine"]

_ENGINE_VERSION = 1
_CHECKPOINT_VERSION = 1

# --------------------------------------------------------------------------- #
# Adaptive Monte-Carlo budgets
# --------------------------------------------------------------------------- #
# Dies per adaptive work unit.  Deliberately *not* derived from the worker
# count: the Welford merge order follows the shard partition, so a fixed
# width is what makes adaptive results bit-identical for any worker count.
_ADAPTIVE_SHARD_DIES = 32

#: Per-(scheme index, count index) ``(support, mass)`` of one stratum: what
#: both budgets hand the one CDF builder, :meth:`SweepEngine._scheme_ecdf`.
_Cells = Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]


def _adaptive_sketch_edges(evaluation: str, bins: int) -> np.ndarray:
    """The shared score grid of one adaptive sweep's ECDF sketches.

    Quality scores are normalised around 1.0, so a linear grid over
    ``[0, 2]`` covers them (out-of-range dies land in the exact-extremum
    under/overflow bins).  MSE magnitudes span many decades, so they get a
    log grid; MSE = 0 (fully corrected dies) falls in the underflow bin,
    whose support is the exact observed minimum, i.e. 0.0.
    """
    if evaluation == "mse":
        return FixedGridEcdfSketch.log10(1e-12, 1e18, bins).edges
    return FixedGridEcdfSketch.linear(0.0, 2.0, bins).edges




# --------------------------------------------------------------------------- #
# Worker-side evaluation (lives in repro.sim.shardeval; re-exported here)
# --------------------------------------------------------------------------- #
# The evaluation functions are shared by every executor backend -- forked
# local and remote TCP workers import them from repro.sim.shardeval
# directly.  The engine re-exports them under their historical private names
# because tests monkeypatch ``engine._evaluate_shard``/``_summarize_shard``
# to steer the inline path, and ``_inline_run_shard`` dispatches through
# *this module's* globals so those patches keep working.
_evaluate_shard = _shardeval.evaluate_shard
_summarize_shard = _shardeval.summarize_shard


def _inline_run_shard(
    kind: str, entries: List[object], context: Mapping[str, object]
) -> object:
    """In-process shard runner handed to the inline executor."""
    if kind == "evaluate":
        return _evaluate_shard(entries, context)
    if kind == "summarize":
        return _summarize_shard(entries, context)
    raise ValueError(f"unknown shard kind {kind!r}")


# --------------------------------------------------------------------------- #
# Checkpointing
# --------------------------------------------------------------------------- #
def _read_checkpoint_payload(
    path: str, config_hash: str, mode: str
) -> Optional[Dict[str, object]]:
    """Read and validate a checkpoint file (``None`` if absent).

    ``mode`` distinguishes fixed per-die caches from adaptive round-state
    caches.  The hash check already separates the two (adaptive parameters
    key the hash), so the mode check only fires on hand-edited files -- but
    it fires loudly rather than mis-parsing them.
    """
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("version") != _CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path!r} has unsupported version {data.get('version')!r}"
        )
    if data.get("config_hash") != config_hash:
        raise ValueError(
            f"checkpoint {path!r} belongs to a different experiment "
            f"configuration (hash {data.get('config_hash')!r}, expected "
            f"{config_hash!r}); delete it or point --checkpoint elsewhere"
        )
    if data.get("mode", "fixed") != mode:
        raise ValueError(
            f"checkpoint {path!r} holds {data.get('mode', 'fixed')!r}-budget "
            f"state, expected {mode!r}"
        )
    return data


#: The durable, atomic checkpoint writer.  A module binding rather than a
#: direct :func:`repro.jsonio.write_atomic` call because the optimizer
#: imports it and ``perfbench/layertrace.py`` wraps it by name.
_write_checkpoint_payload = jsonio.write_atomic


@dataclass(frozen=True)
class _ResultCodec:
    """What one evaluation contributes to :meth:`SweepEngine._sweep`: its
    store record kind (also :attr:`SweepRunStats.evaluation`), the benchmark
    named in store record metadata (``None`` for MSE sweeps), its
    distribution constructor ``wrap(context, scheme_name=, p_cell=, ecdf=,
    samples=)``, and the store payload ``encode(results, report)`` /
    ``decode(payload)`` pair."""

    kind: str
    benchmark: Optional[str]
    wrap: Callable[..., object]
    encode: Callable[..., Dict[str, object]]
    decode: Callable[[Mapping[str, object]], Dict[str, object]]


# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #
class SweepEngine:
    """Sharded, optionally multi-process executor for quality sweeps.

    Parameters
    ----------
    config:
        The sweep description.  ``config.scheme_specs`` defines the schemes
        unless explicit instances are supplied.
    schemes:
        Optional pre-built scheme objects (overrides ``config.scheme_specs``),
        for schemes no spec names (other P-ECC widths, the minimax FM-LUT
        policy).  Results, store keys and checkpoints are keyed by
        ``scheme.name``, so names must be distinct.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        schemes: Optional[Sequence[ProtectionScheme]] = None,
    ) -> None:
        self._config = config
        self._last_adaptive_report: Optional[AdaptiveBudgetReport] = None
        self._last_run_stats: Optional[SweepRunStats] = None
        # Built once: the same (picklable) pipeline object ships to every
        # worker, and building validates the scenario spec eagerly.
        self._scenario = config.build_scenario()
        if schemes is None:
            self._schemes = config.build_schemes()
        else:
            self._schemes = list(schemes)
            if not self._schemes:
                raise ValueError("at least one scheme is required")
        names = set()
        for scheme in self._schemes:
            if scheme.word_width != config.word_width:
                raise ValueError(
                    f"scheme {scheme.name!r} word width {scheme.word_width} "
                    f"does not match the memory ({config.word_width})"
                )
            if scheme.name in names:
                raise ValueError(f"duplicate scheme name {scheme.name!r}")
            names.add(scheme.name)

    @property
    def config(self) -> ExperimentConfig:
        """The sweep configuration."""
        return self._config

    @property
    def schemes(self) -> List[ProtectionScheme]:
        """The protection schemes under study."""
        return list(self._schemes)

    @property
    def scenario(self) -> FaultScenario:
        """The fault-scenario pipeline every seeded die is drawn through."""
        return self._scenario

    @property
    def last_adaptive_report(self) -> Optional[AdaptiveBudgetReport]:
        """Outcome of the most recent adaptive sweep run on this engine
        (``None`` before any adaptive run)."""
        return self._last_adaptive_report

    @property
    def last_run_stats(self) -> Optional[SweepRunStats]:
        """Evaluation bookkeeping of the most recent :meth:`run`/:meth:`run_mse`
        call (``None`` before any run), set by their shared sweep core on both
        the store-hit and the computed path.  ``evaluated_dies == 0`` with
        ``store_hit=True`` is the store's zero-re-simulation guarantee."""
        return self._last_run_stats

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan(self) -> List[Tuple[int, int, int, int]]:
        """Canonical die enumeration: ``(die_index, count_index, sample_index,
        failure_count)`` in count-major order (the seeding contract)."""
        counts = self._config.evaluated_counts()
        samples = self._config.samples_per_count
        return [
            (count_index * samples + sample_index, count_index, sample_index, count)
            for count_index, count in enumerate(counts)
            for sample_index in range(samples)
        ]

    def config_hash(
        self,
        benchmark: Optional[BenchmarkDefinition] = None,
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]] = None,
        extra: Optional[Mapping[str, object]] = None,
        adaptive_cap_resumable: bool = False,
    ) -> str:
        """Hash identifying this sweep's results (keys the checkpoint cache).

        The storage format ``Q(word_width - frac_bits).frac_bits`` enters the
        hash, so a resume never replays results quantised under another
        format.  ``benchmark`` is ``None`` for evaluations that need no
        training data (the MSE mode), and ``extra`` carries any additional
        mode parameters that must key the cache; hashes of benchmark-quality
        sweeps are unchanged by both.

        ``adaptive_cap_resumable`` drops the adaptive budget's
        ``max_total_samples`` from the digest and stamps a ``cap_resumable``
        marker in its place: the round-state checkpoint of an adaptive sweep
        is then shared by every die cap, so a partial run resumes under a
        *larger* cap without re-simulating completed rounds.  The marker
        keeps these hashes disjoint from ordinary (cap-exact) adaptive
        hashes -- a cache written one way can never be misread the other.
        Requires an adaptive budget.
        """
        if adaptive_cap_resumable and self._config.adaptive is None:
            raise ValueError(
                "adaptive_cap_resumable requires an adaptive budget (a fixed "
                "budget has no round state to resume across caps)"
            )
        config_dict = self._config.to_dict()
        if adaptive_cap_resumable:
            adaptive_dict = dict(config_dict["adaptive"])
            del adaptive_dict["max_total_samples"]
            adaptive_dict["cap_resumable"] = True
            config_dict["adaptive"] = adaptive_dict
        payload: Dict[str, object] = {
            "engine_version": _ENGINE_VERSION,
            "config": config_dict,
            "fixed_point": [self._config.word_width, self._config.frac_bits],
            "schemes": [scheme.name for scheme in self._schemes],
            "benchmark": (
                {
                    "name": benchmark.name,
                    "metric": benchmark.metric_name,
                }
                if benchmark is not None
                else None
            ),
        }
        if extra:
            payload["extra"] = dict(extra)
        digest = hashlib.sha256()
        digest.update(json.dumps(payload, sort_keys=True).encode())
        if benchmark is not None:
            for array in (
                benchmark.train_features,
                benchmark.train_targets,
                benchmark.test_features,
                benchmark.test_targets,
            ):
                digest.update(np.ascontiguousarray(array).tobytes())
        if fault_maps is not None:
            for key in sorted(fault_maps):
                digest.update(json.dumps(key).encode())
                digest.update(fault_maps[key].to_json().encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        benchmark: BenchmarkDefinition,
        *,
        workers: int = 1,
        checkpoint: Optional[str] = None,
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]] = None,
        store: Optional["ResultStore"] = None,
        executor: Optional[object] = None,
        adaptive_cap_resumable: bool = False,
    ) -> Dict[str, QualityDistribution]:
        """Run the sweep and return one :class:`QualityDistribution` per scheme.

        Parameters
        ----------
        benchmark:
            The application benchmark whose training features live in the
            faulty memory.
        workers:
            Process count.  ``workers=1`` evaluates inline in this process
            (fully debuggable); higher counts fan shards out over that many
            forked worker processes.  Results are bit-identical for any
            value.
        checkpoint:
            Optional path of a JSON results cache, read once before the
            sweep and rewritten durably as it runs; a finished sweep leaves
            a cache that replays instantly.  A fixed budget stores every
            die's exact scores and rewrites the file after every finished
            shard (the shard sizing, a few shards per worker, keeps that
            negligible); an adaptive budget stores its round state -- the
            per-stratum die counts, trackers and sketches -- and rewrites
            the file once per round.
        fault_maps:
            Pre-drawn dies keyed by ``(count_index, sample_index)``; replaces
            the seeded per-die sampling (legacy sampling, see
            :func:`~repro.sim.runner.legacy_fault_maps`).
        store:
            Optional :class:`~repro.store.ResultStore`.  An exact
            configuration-hash hit is served from the store -- bit-identical,
            with zero new die evaluations and no benchmark training -- and a
            computed sweep is recorded into it.  Results are unchanged either
            way; :attr:`last_run_stats` says which path ran.
        executor:
            Shard execution backend: ``None`` (default -- forked workers when
            ``workers > 1``, inline otherwise), a kind string (``"inline"``,
            ``"local"``, ``"tcp"``), or a full
            :class:`~repro.sim.executor.ExecutorSpec`.  The ``tcp`` kind
            starts a coordinator on the spec's ``host:port`` and serves
            shards to workers started with ``python -m repro.sim.worker
            --connect HOST:PORT``.  Results are bit-identical for every
            backend, worker count, and re-dispatch history.
        adaptive_cap_resumable:
            Key the *checkpoint* by the cap-free adaptive hash (see
            :meth:`config_hash`), so a finished run at one die cap seeds a
            later run at a larger cap -- the successive-halving pattern of
            the budgeted optimizer.  Store records are unaffected: a
            complete result depends on the cap, so store keys always carry
            it.  Requires an adaptive budget.
        """
        config = self._config
        if self._scenario.transient is not None:
            if config.master_seed is None or fault_maps is not None:
                raise ValueError(
                    "transient scenarios require seeded per-die sampling "
                    "(a master_seed, no pre-drawn fault_maps): per-read "
                    "corruption replays from each die's seed-sequence "
                    "child, which pre-drawn maps do not carry"
                )
        fixed_point = FixedPointFormat(
            total_bits=config.word_width, frac_bits=config.frac_bits
        )

        def build_context() -> Dict[str, object]:
            clean_quality = benchmark.clean_quality()
            if clean_quality == 0.0:
                raise ValueError(
                    "the benchmark's fault-free quality is zero; cannot normalise"
                )
            features = np.asarray(benchmark.train_features, dtype=np.float64)
            return {
                "fixed_point": fixed_point,
                "raw_features": QuantizedTensor(
                    fixed_point, fixed_point.quantize_array(features)
                ),
                "benchmark": benchmark,
                "clean_quality": clean_quality,
                "transient": self._scenario.transient,
                "access_trace": config.access_trace,
            }

        def wrap(context, **common) -> QualityDistribution:
            return QualityDistribution(
                benchmark=benchmark.name,
                metric_name=benchmark.metric_name,
                clean_quality=context["clean_quality"],
                **common,
            )

        return self._sweep(
            _ResultCodec(
                "quality",
                benchmark.name,
                wrap,
                quality_results_to_payload,
                quality_results_from_payload,
            ),
            build_context,
            {"benchmark": benchmark},
            zero_mass=1.0,
            workers=workers,
            checkpoint=checkpoint,
            fault_maps=fault_maps,
            store=store,
            executor=executor,
            adaptive_cap_resumable=adaptive_cap_resumable,
        )

    def run_mse(
        self,
        *,
        workers: int = 1,
        checkpoint: Optional[str] = None,
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]] = None,
        include_fault_free: bool = True,
        store: Optional["ResultStore"] = None,
        executor: Optional[object] = None,
        adaptive_cap_resumable: bool = False,
    ) -> Dict[str, "MseDistribution"]:
        """Run the sweep scoring each die by its local MSE (the Fig. 5 study).

        Same sharded grid, per-die seeding, parallel fan-out, and checkpoint
        cache as :meth:`run`, but dies are scored analytically instead of
        by retraining a benchmark: each shard is one
        :func:`~repro.quality.mse.mse_of_fault_map` call over all its dies
        and every scheme, and the merged result is one
        :class:`~repro.faultmodel.yieldmodel.MseDistribution` per scheme.
        ``include_fault_free`` adds the ``Pr(N = 0)`` point mass at MSE = 0
        (pass ``False`` for the paper's Eq. 5 conditional view).
        ``store`` behaves as in :meth:`run` (serve exact hash hits, record
        computed sweeps), and so do ``executor`` (``None``/``"local"``,
        ``"inline"``, or an :class:`~repro.sim.executor.ExecutorSpec`) and
        ``adaptive_cap_resumable`` (checkpoint round-state shared across
        adaptive die caps).
        """
        if self._scenario.transient is not None:
            raise ValueError(
                "the analytical MSE evaluation cannot model per-read "
                "transient faults; run transient scenarios through the "
                "quality sweep (SweepEngine.run / fig7) instead"
            )
        config = self._config

        def wrap(context, **common) -> MseDistribution:
            return MseDistribution(
                zero_fault_probability=config.zero_fault_probability,
                max_failures=config.max_failures,
                **common,
            )

        return self._sweep(
            _ResultCodec(
                "mse", None, wrap, mse_results_to_payload, mse_results_from_payload
            ),
            dict,
            {
                "extra": {
                    "evaluation": "mse",
                    "include_fault_free": include_fault_free,
                }
            },
            zero_mass=0.0 if include_fault_free else None,
            workers=workers,
            checkpoint=checkpoint,
            fault_maps=fault_maps,
            store=store,
            executor=executor,
            adaptive_cap_resumable=adaptive_cap_resumable,
        )

    def _sweep(
        self,
        codec: "_ResultCodec",
        build_context: Callable[[], Dict[str, object]],
        hash_args: Mapping[str, object],
        *,
        zero_mass: Optional[float],
        workers: int,
        checkpoint: Optional[str],
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]],
        store: Optional["ResultStore"],
        executor: Optional[object],
        adaptive_cap_resumable: bool,
    ) -> Dict[str, object]:
        """The one sweep core behind :meth:`run` and :meth:`run_mse`.

        ``build_context`` returns the evaluation's own worker-context entries
        and runs only on a store miss (a quality context trains the
        benchmark).  ``hash_args`` are the :meth:`config_hash` arguments
        besides ``fault_maps``; ``zero_mass`` scores the ``Pr(N = 0)`` point
        mass (``None`` leaves it out).
        """
        config = self._config
        adaptive = config.adaptive is not None
        if adaptive_cap_resumable and not adaptive:
            raise ValueError(
                "adaptive_cap_resumable requires an adaptive budget"
            )
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if adaptive and fault_maps is not None:
            raise ValueError(
                "adaptive budgets draw each die from its own seed-sequence "
                "child; pre-drawn fault_maps require the fixed budget"
            )
        if fault_maps is None and config.master_seed is None:
            raise ValueError(
                "a master_seed is required unless pre-drawn fault_maps are "
                "supplied"
            )
        executor_spec = ExecutorSpec.coerce(executor)
        store_key: Optional[str] = None
        if store is not None:
            store_key = self.config_hash(fault_maps=fault_maps, **hash_args)
            record = store.get_record(store_key, kind=codec.kind)
            if record is not None:
                # The zero-evaluation hit path: decode, no training.
                payload = record["payload"]
                results = codec.decode(payload)
                report = adaptive_report_from_payload(
                    payload.get("adaptive_report")
                )
                if report is not None:
                    self._last_adaptive_report = report
                self._last_run_stats = SweepRunStats(
                    evaluation=codec.kind,
                    store_key=store_key,
                    store_hit=True,
                    evaluated_dies=0,
                    total_dies=int(record.get("meta", {}).get("total_dies", 0)),
                    executor="store",
                )
                return results
        context: Dict[str, object] = {
            "evaluation": codec.kind,
            "organization": config.organization,
            "schemes": self._schemes,
            "discard_multi_fault_words": config.discard_multi_fault_words,
            "master_seed": config.master_seed,
            "scenario": self._scenario,
            **build_context(),
        }
        config_hash = ""
        if checkpoint is not None:
            config_hash = self.config_hash(
                fault_maps=fault_maps,
                adaptive_cap_resumable=adaptive_cap_resumable,
                **hash_args,
            )
        ecdfs, report, total_dies, run_info = self._execute(
            context,
            zero_mass=zero_mass,
            workers=workers,
            checkpoint=checkpoint,
            config_hash=config_hash,
            fault_maps=fault_maps,
            executor=executor_spec,
        )
        results = {
            scheme.name: codec.wrap(
                context,
                scheme_name=scheme.name,
                p_cell=config.p_cell,
                ecdf=ecdf,
                samples=total_dies,
            )
            for scheme, ecdf in zip(self._schemes, ecdfs)
        }
        self._last_run_stats = SweepRunStats(
            evaluation=codec.kind,
            store_key=store_key,
            store_hit=False,
            total_dies=total_dies,
            **run_info,
        )
        if store_key is not None:
            store.put_record(
                store_key,
                codec.kind,
                codec.encode(results, report),
                meta={
                    "benchmark": codec.benchmark,
                    "evaluation": codec.kind,
                    "schemes": [scheme.name for scheme in self._schemes],
                    "p_cell": config.p_cell,
                    "evaluated_dies": run_info["evaluated_dies"],
                    "total_dies": total_dies,
                },
            )
        return results

    def _execute(
        self,
        context: Dict[str, object],
        *,
        zero_mass: Optional[float],
        workers: int,
        checkpoint: Optional[str],
        config_hash: str,
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]],
        executor: ExecutorSpec,
    ) -> Tuple[List[WeightedEcdf], Optional[AdaptiveBudgetReport], int, dict]:
        """The one execution core of both Monte-Carlo budgets.

        It reads the checkpoint, opens the executor at the first dispatched
        round and closes it once, and turns the per-(scheme, stratum)
        ``(support, mass)`` cells of the budget body into one CDF per scheme
        (:meth:`_scheme_ecdf`).  The bodies, :meth:`_fixed_cells` and
        :meth:`_adaptive_cells`, keep only their seeding, their fold and
        checkpoint cadence, and their worker-count rule.  Returns the CDFs in
        scheme order, the adaptive report (``None`` for a fixed budget), the
        sweep's total dies and the :class:`SweepRunStats` execution fields.
        """
        adaptive = self._config.adaptive is not None
        saved = None
        save = None
        if checkpoint is not None:
            saved = _read_checkpoint_payload(
                checkpoint, config_hash, "adaptive" if adaptive else "fixed"
            )

            def save(**state: object) -> None:
                envelope = {"version": _CHECKPOINT_VERSION, "config_hash": config_hash}
                _write_checkpoint_payload(checkpoint, {**envelope, **state})

        dispatcher: Optional[ShardExecutor] = None

        def dispatch(kind: str, shards: list, on_complete, fan_out: int) -> None:
            nonlocal dispatcher
            if dispatcher is None:
                dispatcher = make_executor(
                    context, fan_out, spec=executor, runner=_inline_run_shard
                )
            dispatcher.run(kind, shards, on_complete)

        report = None
        try:
            if adaptive:
                cells, report, evaluated = self._adaptive_cells(
                    context, saved, dispatch, save, zero_mass, workers, checkpoint
                )
                total_dies = report.total_dies
            else:
                cells, evaluated = self._fixed_cells(
                    saved, dispatch, save, workers, fault_maps, executor
                )
                total_dies = (
                    len(self._config.evaluated_counts())
                    * self._config.samples_per_count
                )
        finally:
            if dispatcher is not None:
                dispatcher.close()
        ecdfs = [
            self._scheme_ecdf(cells, si, zero_mass) for si in range(len(self._schemes))
        ]
        run_info: Dict[str, object] = {"evaluated_dies": evaluated}
        if dispatcher is not None:
            run_info["executor"] = dispatcher.kind
            run_info["redispatched_shards"] = dispatcher.stats.redispatched
        return ecdfs, report, total_dies, run_info

    def _scheme_ecdf(
        self, cells: _Cells, scheme_index: int, zero_mass: Optional[float]
    ) -> WeightedEcdf:
        """One scheme's CDF from its per-stratum ``(support, mass)`` cells.

        The optional zero-fault point mass comes first, then the strata in
        count order, each stratum's masses scaled to its ``Pr(N = n)``
        weight.  Fixed-budget cells carry unit masses, so each die weighs
        ``p * 1 / n``: bit for bit the ``p / n`` of the historical serial
        merge.
        """
        config = self._config
        probabilities = config.count_probabilities()
        buffer = WeightedSampleBuffer()
        if zero_mass is not None:
            buffer.update_batch([zero_mass], [config.zero_fault_probability])
        for ci, count in enumerate(config.evaluated_counts()):
            support, mass = cells[(scheme_index, ci)]
            if support.size:
                buffer.update_batch(support, probabilities[count] * mass / mass.sum())
        return WeightedEcdf(*buffer.finalize())

    def _fixed_cells(
        self,
        saved: Optional[Mapping[str, object]],
        dispatch: Callable[..., None],
        save: Optional[Callable[..., None]],
        workers: int,
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]],
        executor: ExecutorSpec,
    ) -> Tuple[_Cells, int]:
        """The fixed budget: ``samples_per_count`` dies per failure count,
        each seeded by ``(die_index,)`` unless pre-drawn.

        Shards return exact per-die scores, and the checkpoint (one entry per
        die) is rewritten after every shard.  Returns each (scheme, stratum)
        cell -- the stratum's scores in sample order, with unit mass -- and
        the number of dies this call evaluated.
        """
        config = self._config
        entries: List[_shardeval.DieEntry] = []
        for die_index, count_index, sample_index, count in self.plan():
            explicit = None
            if fault_maps is not None:
                try:
                    explicit = fault_maps[(count_index, sample_index)]
                except KeyError:
                    raise ValueError(
                        f"fault_maps is missing die (count_index="
                        f"{count_index}, sample_index={sample_index})"
                    ) from None
            entries.append((die_index, count_index, sample_index, count, explicit))

        die_results: Dict[int, List[float]] = {}
        if saved is not None:
            for k, vs in saved["dies"].items():
                die_results[int(k)] = [float(v) for v in vs]
        pending = [e for e in entries if e[0] not in die_results]
        shards = self._make_shards(pending, workers)

        def absorb(_index: int, shard_results: List[Tuple[int, List[float]]]) -> None:
            die_results.update(shard_results)
            if save is not None:
                save(dies={str(k): list(v) for k, v in sorted(die_results.items())})

        # TCP executors keep their configured fan-out: remote workers decide
        # their own parallelism, and a single-shard sweep still has to bind
        # the rendezvous port the workers dial.
        if executor.kind == "tcp":
            fan_out = workers
        else:
            fan_out = 1 if len(shards) <= 1 else min(workers, len(shards))
        dispatch("evaluate", shards, absorb, fan_out)

        missing = [i for i in range(len(entries)) if i not in die_results]
        if missing:
            raise RuntimeError(
                f"sweep finished with {len(missing)} unevaluated dies "
                f"(first: {missing[:5]}); this indicates a sharding bug"
            )
        # Rows are dies in plan (count-major) order, columns are schemes.
        scores = np.array([die_results[i] for i in range(len(entries))])
        samples = config.samples_per_count
        unit = np.ones(samples)
        cells = {
            (si, ci): (scores[ci * samples:(ci + 1) * samples, si], unit)
            for si in range(len(self._schemes))
            for ci in range(len(config.evaluated_counts()))
        }
        return cells, len(pending)

    def _adaptive_cells(
        self,
        context: Dict[str, object],
        saved: Optional[Mapping[str, object]],
        dispatch: Callable[..., None],
        save: Optional[Callable[..., None]],
        zero_mass: Optional[float],
        workers: int,
        checkpoint: Optional[str],
    ) -> Tuple[_Cells, AdaptiveBudgetReport, int]:
        """The adaptive budget: confidence-driven rounds of dies seeded by
        ``(count_index, sample_index)``.

        Each round fans a batch of dies out as fixed-width shards whose
        workers return O(bins) streaming summaries; the body folds them in
        shard order, re-estimates every scheme's yield-at-threshold CI, and
        either stops or Neyman-allocates the next round by the observed
        per-stratum standard deviations.  The checkpoint (the round state) is
        rewritten once per round.  Returns each (scheme, stratum) cell -- its
        merged sketch's ``finalize()`` -- the run's report and the number of
        dies this call evaluated.
        """
        config = self._config
        adaptive = config.adaptive
        evaluation = str(context["evaluation"])
        threshold = adaptive.resolved_threshold(evaluation)
        direction = "ge" if evaluation == "quality" else "le"
        edges = _adaptive_sketch_edges(evaluation, adaptive.sketch_bins)
        counts = config.evaluated_counts()
        probabilities = config.count_probabilities()
        weights = {ci: probabilities[count] for ci, count in enumerate(counts)}
        max_total = config.max_adaptive_samples()
        if max_total < 2 * len(counts):
            raise ValueError(
                f"the adaptive die cap ({max_total}) cannot seed all "
                f"{len(counts)} failure counts with the minimum 2 dies each; "
                f"raise max_total_samples or samples_per_count"
            )
        initial = min(
            adaptive.initial_samples_per_count, max_total // len(counts)
        )
        if zero_mass is not None:
            zero_ok = (
                zero_mass >= threshold
                if direction == "ge"
                else zero_mass <= threshold
            )
            baseline = config.zero_fault_probability if zero_ok else 0.0
        else:
            baseline = 0.0

        state = StratifiedYield(weights, len(self._schemes), edges)
        evaluated = 0
        if saved is not None:
            state.restore(saved)
            if state.total_dies > max_total:
                raise ValueError(
                    f"checkpoint {checkpoint!r} holds {state.total_dies} dies, "
                    f"more than this sweep's adaptive die cap ({max_total}); "
                    f"resume it under a cap of at least {state.total_dies} or "
                    f"point the checkpoint elsewhere"
                )

        # Workers read the yield criterion and the sketch grid from here.
        context["adaptive"] = {
            "threshold": threshold,
            "direction": direction,
            "edges": edges,
        }

        schemes = range(len(self._schemes))
        reached = False
        while True:
            total_done = state.total_dies
            if total_done:
                half_width = max(
                    state.half_width(si, adaptive.confidence) for si in schemes
                )
                if half_width <= adaptive.target_ci:
                    reached = True
                    break
                if total_done >= max_total:
                    break
                allocation = state.allocate(
                    min(adaptive.round_dies, max_total - total_done)
                )
            else:
                allocation = {ci: initial for ci in weights}
            entries: List[_shardeval.AdaptiveEntry] = [
                (ci, state.samples[ci] + j, counts[ci])
                for ci in sorted(allocation)
                for j in range(allocation[ci])
            ]
            if not entries:
                break
            shards = [
                entries[start:start + _ADAPTIVE_SHARD_DIES]
                for start in range(0, len(entries), _ADAPTIVE_SHARD_DIES)
            ]
            evaluated += len(entries)
            summaries: Dict[int, _shardeval.ShardSummary] = {}
            dispatch("summarize", shards, summaries.__setitem__, workers)
            # Canonical fold: shard-index order, never completion order.
            for index in range(len(shards)):
                state.fold(summaries[index])
            state.end_round(allocation)
            if save is not None:
                save(mode="adaptive", **state.to_dict())

        report = AdaptiveBudgetReport(
            evaluation=evaluation,
            threshold=threshold,
            target_ci=adaptive.target_ci,
            confidence=adaptive.confidence,
            reached=reached,
            rounds=state.rounds,
            total_dies=state.total_dies,
            max_total_dies=max_total,
            half_widths={
                scheme.name: state.half_width(si, adaptive.confidence)
                for si, scheme in enumerate(self._schemes)
            },
            estimates={
                scheme.name: state.estimate(si, baseline)
                for si, scheme in enumerate(self._schemes)
            },
            samples_per_count={
                counts[ci]: state.samples[ci] for ci in sorted(state.samples)
            },
            stratum_weights={counts[ci]: weights[ci] for ci in sorted(weights)},
            stratum_stds={
                scheme.name: {
                    counts[ci]: state.std(si, ci) for ci in sorted(weights)
                }
                for si, scheme in enumerate(self._schemes)
            },
            max_shard_payload_scalars=state.max_payload,
        )
        self._last_adaptive_report = report
        return state.cells(), report, evaluated

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make_shards(
        entries: List[_shardeval.DieEntry], workers: int
    ) -> List[List[_shardeval.DieEntry]]:
        """Chunk the pending dies into contiguous work units."""
        if not entries:
            return []
        # A few shards per worker balances load without flooding the queue;
        # inline runs keep several shards so checkpoints land regularly.
        shard_size = max(1, math.ceil(len(entries) / max(4 * workers, 4)))
        return [
            entries[start:start + shard_size]
            for start in range(0, len(entries), shard_size)
        ]
