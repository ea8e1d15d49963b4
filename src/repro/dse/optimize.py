"""Budgeted Pareto optimizer: successive halving over the DSE grid.

The exhaustive explorer (:class:`~repro.dse.explore.DesignSpaceExplorer`)
spends the same fixed Monte-Carlo budget on every grid cell, including the
cells whose rows are obviously dominated after a handful of dies.  The
:class:`ParetoOptimizer` recovers the same energy-versus-quality-at-yield
Pareto frontier for a fraction of that die bill by racing the cells through
*successive halving*:

* every ``(benchmark, operating point)`` cell gets an adaptive-budget probe
  (:class:`~repro.sim.config.AdaptiveBudget`, PR 5's confidence-driven inner
  loop) capped at ``rung0_dies`` dies in rung 0;
* after each rung a pruning pass drops every row another row *provably*
  dominates -- lower-or-equal energy and a strictly separated quality
  confidence band (``q_lo_B > q_hi_A + frontier_slack``).  Band overlap --
  including the exact ties the quality sketch's quantisation produces for
  near-saturated rows -- never prunes, which is what preserves frontier
  recall: a pruned row is dominated under *every* distribution consistent
  with the bands, not merely under the point estimates;
* cells whose unpruned rows all reached the probe's ``target_ci`` stop
  (resolved); cells whose rows are all pruned stop (retired); the rest carry
  their engine round state into the next rung, whose die cap grows by
  ``eta`` (the engine's cap-resumable checkpoints make the larger-cap run a
  pure continuation -- no die is ever simulated twice).

Determinism contract: for a fixed master seed the rung results, the pruning
decisions, and the final frontier are bit-identical for every worker count
and executor backend.  Probes fold in canonical shard order inside the
engine, every rung probes and folds its cells in canonical grid order
(benchmark-major, then operating point, then scheme), and each pruning pass
tests rows against a snapshot of the pass's surviving set -- dominance is
transitive, so the outcome is independent of the order rows are examined
in.

With a :class:`~repro.store.ResultStore`, every finished rung is recorded as
a ``dse-rung`` record -- the partial per-scheme distributions *plus* the
engine's round-state checkpoint -- keyed by the cap-free configuration hash,
the rung index, and the cap.  A killed run replays finished rungs from the
store with zero die evaluations, restores the round state they ended at, and
continues mid-schedule bit-identically even if the checkpoint directory was
lost.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro import jsonio
from repro.dse.explore import (
    DesignSpaceExplorer,
    _reports_from_payload,
    _reports_to_payload,
    build_dse_row,
)
from repro.dse.spec import ExperimentSpec, OptimizerSpec
from repro.sim.config import ExperimentConfig
from repro.sim.engine import SweepEngine, _write_checkpoint_payload
from repro.sim.experiment import benchmark_by_name
from repro.sim.results import AdaptiveBudgetReport, QualityDistribution
from repro.store.schema import (
    adaptive_report_from_payload,
    quality_results_from_payload,
    quality_results_to_payload,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.hardware.energy import OperatingPoint
    from repro.store.store import ResultStore

__all__ = [
    "OptimizeResult",
    "ParetoOptimizer",
    "PruneEvent",
]

_OPTIMIZE_RESULT_VERSION = 1

#: Audit columns the optimizer adds to every tidy-table row.
OPTIMIZE_AUDIT_COLUMNS = (
    "quality_lo",
    "quality_hi",
    "ci_half_width",
    "dies",
    "rung",
    "pruned",
    "pruned_by",
)


def _copy_rung_checkpoint(previous: str, checkpoint: str) -> None:
    """Seed a rung's checkpoint with the previous rung's, durably: copy,
    fsync, rename, fsync the directory (as :func:`jsonio.write_atomic`).
    A failed copy leaves neither the temp file nor the checkpoint behind."""
    temp_path = checkpoint + ".tmp"
    try:
        with open(previous, "rb") as source, open(temp_path, "wb") as target:
            shutil.copyfileobj(source, target)
            target.flush()
            os.fsync(target.fileno())
        os.replace(temp_path, checkpoint)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    jsonio.fsync_directory(os.path.dirname(os.path.abspath(checkpoint)))


@dataclass(frozen=True)
class PruneEvent:
    """One pruning decision: which row was dropped, by whom, at which rung.

    ``by_quality_lo > quality_hi + slack`` (with ``by_*`` naming the
    dominating row, at lower-or-equal energy) is the inequality that fired;
    keeping both band edges in the event makes every pruning decision
    re-checkable from the log alone.
    """

    rung: int
    benchmark: str
    scheme: str
    vdd: float
    p_cell: float
    energy: float
    quality_hi: float
    by_scheme: str
    by_vdd: float
    by_quality_lo: float
    slack: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe view (round-trips through :meth:`from_dict`)."""
        return {
            "rung": self.rung,
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "vdd": self.vdd,
            "p_cell": self.p_cell,
            "energy": self.energy,
            "quality_hi": self.quality_hi,
            "by_scheme": self.by_scheme,
            "by_vdd": self.by_vdd,
            "by_quality_lo": self.by_quality_lo,
            "slack": self.slack,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PruneEvent":
        """Rebuild an event saved by :meth:`to_dict`."""
        return cls(
            rung=int(data["rung"]),
            benchmark=str(data["benchmark"]),
            scheme=str(data["scheme"]),
            vdd=float(data["vdd"]),
            p_cell=float(data["p_cell"]),
            energy=float(data["energy"]),
            quality_hi=float(data["quality_hi"]),
            by_scheme=str(data["by_scheme"]),
            by_vdd=float(data["by_vdd"]),
            by_quality_lo=float(data["by_quality_lo"]),
            slack=float(data["slack"]),
        )


@dataclass
class _RowState:
    """Live pruning state of one (cell, scheme) row."""

    energy: float
    quality_lo: float = 0.0
    quality_hi: float = 0.0
    half_width: float = 0.0
    pruned: bool = False
    pruned_by: Optional[str] = None


@dataclass(eq=False)
class _CellState:
    """One (benchmark, operating point) cell of the successive-halving race."""

    benchmark_name: str
    point: "OperatingPoint"
    config: ExperimentConfig
    scheme_names: List[str]
    caps: List[int]
    resumable_hash: str
    checkpoint_stem: str
    rows: Dict[str, _RowState]
    status: str = "active"
    last_rung: int = -1
    dies: int = 0
    evaluated_dies: int = 0
    exhaustive_dies: int = 0
    store_hits: int = 0
    results: Optional[Dict[str, QualityDistribution]] = None
    report: Optional[AdaptiveBudgetReport] = None

    @property
    def key(self) -> Tuple[str, float, float]:
        return (self.benchmark_name, self.point.vdd, self.point.p_cell)

    def checkpoint(self, rung: int) -> str:
        """Round-state file of ``rung``, named after its ``dse-rung`` key."""
        return f"{self.checkpoint_stem}-rung{rung}-cap{self.caps[rung]}.json"


class OptimizeResult:
    """Outcome of one budgeted optimization run.

    ``rows`` is the tidy DSE table (same columns and canonical order as
    :class:`~repro.dse.explore.DseResult`) extended with the audit columns of
    :data:`OPTIMIZE_AUDIT_COLUMNS`: each row carries its quality confidence
    band, the dies its cell spent, the last rung it was probed at, and -- if
    it was pruned -- which row eliminated it.  ``prune_log`` is the ordered
    list of :class:`PruneEvent` decisions, and ``adaptive_reports`` the
    final per-cell :class:`~repro.sim.results.AdaptiveBudgetReport` audit.

    ``total_dies`` counts the dies behind the final distributions,
    ``evaluated_dies`` the dies actually simulated by *this* run (lower when
    rungs replayed from a warm store), and ``exhaustive_dies`` what the
    fixed-budget grid sweep of the same spec would have cost -- the
    denominator of the headline savings ratio.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        rows: List[Dict[str, object]],
        prune_log: List[PruneEvent],
        adaptive_reports: Optional[
            Dict[Tuple[str, float, float], AdaptiveBudgetReport]
        ] = None,
        cell_statuses: Optional[List[Dict[str, object]]] = None,
        total_dies: int = 0,
        evaluated_dies: int = 0,
        exhaustive_dies: int = 0,
        store_hits: int = 0,
    ) -> None:
        self.spec = spec
        self.rows = rows
        self.prune_log = list(prune_log)
        self.adaptive_reports = dict(adaptive_reports or {})
        self.cell_statuses = list(cell_statuses or [])
        self.total_dies = int(total_dies)
        self.evaluated_dies = int(evaluated_dies)
        self.exhaustive_dies = int(exhaustive_dies)
        self.store_hits = int(store_hits)

    def __len__(self) -> int:
        return len(self.rows)

    def benchmarks(self) -> List[str]:
        """Benchmark names present in the table, in row order."""
        seen: List[str] = []
        for row in self.rows:
            if row["benchmark"] not in seen:
                seen.append(row["benchmark"])
        return seen

    def frontier(
        self, benchmark: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """The surviving (unpruned) rows -- the recovered Pareto frontier.

        Per benchmark, sorted by ascending energy (quality breaks ties,
        descending), matching :func:`~repro.dse.explore.pareto_frontier`'s
        ordering of the exhaustive frontier.
        """
        names = [benchmark] if benchmark is not None else self.benchmarks()
        frontier: List[Dict[str, object]] = []
        for name in names:
            survivors = [
                dict(row)
                for row in self.rows
                if row["benchmark"] == name and not row["pruned"]
            ]
            survivors.sort(
                key=lambda r: (
                    r["total_read_energy_fj"],
                    -r["quality_at_yield"],
                )
            )
            frontier.extend(survivors)
        return frontier

    def frontier_keys(self) -> List[Tuple[str, str, float]]:
        """Sorted ``(benchmark, scheme, vdd)`` identity of every frontier row.

        The comparison handle for benches and CI: optimizer qualities are
        sketch-quantised while the exhaustive sweep's are exact, so frontier
        *membership* -- not row values -- is what the recall gates diff.
        """
        return sorted(
            (str(row["benchmark"]), str(row["scheme"]), float(row["vdd"]))
            for row in self.rows
            if not row["pruned"]
        )

    def savings_ratio(self) -> float:
        """Exhaustive-to-optimized die ratio (``inf`` for a zero-die run)."""
        if self.total_dies == 0:
            return float("inf")
        return self.exhaustive_dies / self.total_dies

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON view of the full audit trail."""
        return {
            "version": _OPTIMIZE_RESULT_VERSION,
            "spec": self.spec.to_dict(),
            "rows": self.rows,
            "prune_log": [event.to_dict() for event in self.prune_log],
            "adaptive_reports": _reports_to_payload(self.adaptive_reports),
            "cell_statuses": self.cell_statuses,
            "total_dies": self.total_dies,
            "evaluated_dies": self.evaluated_dies,
            "exhaustive_dies": self.exhaustive_dies,
            "store_hits": self.store_hits,
        }

    def save(self, path: str) -> None:
        """Write the result as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "OptimizeResult":
        """Load a result previously written by :meth:`save` (keys that older
        files carry and this version no longer writes are ignored)."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("version") != _OPTIMIZE_RESULT_VERSION:
            raise ValueError(
                f"optimizer result file {path!r} has unsupported version "
                f"{data.get('version')!r}"
            )
        return cls(
            ExperimentSpec.from_dict(data["spec"]),
            data["rows"],
            [PruneEvent.from_dict(entry) for entry in data["prune_log"]],
            adaptive_reports=_reports_from_payload(
                data.get("adaptive_reports")
            ),
            cell_statuses=data.get("cell_statuses", []),
            total_dies=data.get("total_dies", 0),
            evaluated_dies=data.get("evaluated_dies", 0),
            exhaustive_dies=data.get("exhaustive_dies", 0),
            store_hits=data.get("store_hits", 0),
        )

class ParetoOptimizer:
    """Successive-halving frontier recovery over an :class:`ExperimentSpec`.

    Parameters
    ----------
    spec:
        The grid to optimize over.  Its ``budget`` (fixed mode) defines the
        exhaustive baseline; its ``optimizer`` section -- or the ``optimizer``
        argument, which overrides it -- parameterises the rung schedule.
    workers / executor:
        Fan-out of each probe's Monte-Carlo shards, forwarded to the engine
        (bit-identical results for every combination -- the engine's
        determinism contract, which the optimizer inherits wholesale).
    checkpoint_dir:
        Directory of engine round-state checkpoints, one file per cell and
        rung (``optimize-<benchmark>-<hash>-rung<r>-cap<c>.json``).  A
        killed run resumes mid-rung, and a re-run on the same directory
        reproduces the cold run with zero dies evaluated.  ``None`` uses a
        run-private temporary directory: rungs still resume *within* the
        run, and a store (below) covers resumption across runs.
    store:
        Optional :class:`~repro.store.ResultStore`.  Finished rungs are
        recorded as ``dse-rung`` records and replayed on re-runs with zero
        die evaluations.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        optimizer: Optional[OptimizerSpec] = None,
        workers: int = 1,
        checkpoint_dir: Optional[str] = None,
        store: Optional["ResultStore"] = None,
        executor: Optional[object] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if spec.budget.mode != "fixed":
            raise ValueError(
                "the optimizer requires a fixed-mode budget (it supplies its "
                "own adaptive probes; the fixed budget is the exhaustive "
                "baseline being beaten)"
            )
        if optimizer is None:
            optimizer = spec.optimizer
        if optimizer is None:
            optimizer = OptimizerSpec()
        if not isinstance(optimizer, OptimizerSpec):
            raise ValueError(
                f"optimizer must be an OptimizerSpec, got "
                f"{type(optimizer).__name__}"
            )
        self._spec = spec
        self._optimizer = optimizer
        self._workers = workers
        self._checkpoint_dir = checkpoint_dir
        self._store = store
        self._executor = executor

    @property
    def spec(self) -> ExperimentSpec:
        """The grid being optimized."""
        return self._spec

    # ------------------------------------------------------------------ #
    # Cell construction
    # ------------------------------------------------------------------ #
    def _build_cells(
        self, checkpoint_dir: str
    ) -> Tuple[List[_CellState], Dict[str, object]]:
        """Canonical cell list (benchmark-major, then operating point)."""
        spec = self._spec
        opt = self._optimizer
        scaling = spec.operating_grid.scaling_model(spec.organization)
        nominal_vdd = spec.operating_grid.nominal_vdd
        overheads = DesignSpaceExplorer(spec).scheme_overheads()
        points = spec.operating_points()

        cells: List[_CellState] = []
        benchmark_defs: Dict[str, object] = {}
        for benchmark_name in spec.benchmarks.names:
            benchmark_defs[benchmark_name] = benchmark_by_name(
                benchmark_name,
                scale=spec.benchmarks.scale,
                seed=spec.benchmarks.seed,
            )
            for point in points:
                config = spec.experiment_config(point, benchmark_name)
                counts = config.evaluated_counts()
                # Every rung must be able to seed each stratum with the
                # engine's minimum two dies, whatever rung0_dies asks for.
                base = max(opt.rung0_dies or 0, 2 * len(counts))
                caps = opt.rung_caps(base)
                probe = replace(
                    config, adaptive=opt.adaptive_budget(caps[0])
                )
                engine = SweepEngine(probe)
                resumable_hash = engine.config_hash(
                    benchmark_defs[benchmark_name],
                    adaptive_cap_resumable=True,
                )
                logic_scale = (point.vdd / nominal_vdd) ** 2
                word_read_energy = scaling.read_energy_fj(point.vdd)
                rows = {
                    scheme.name: _RowState(
                        energy=word_read_energy
                        + overheads[scheme.name].read_power_fj * logic_scale
                    )
                    for scheme in engine.schemes
                }
                cells.append(
                    _CellState(
                        benchmark_name=benchmark_name,
                        point=point,
                        config=config,
                        scheme_names=[s.name for s in engine.schemes],
                        caps=caps,
                        resumable_hash=resumable_hash,
                        checkpoint_stem=os.path.join(
                            checkpoint_dir,
                            f"optimize-{benchmark_name}-{resumable_hash[:16]}",
                        ),
                        rows=rows,
                        exhaustive_dies=len(counts)
                        * spec.budget.samples_per_count,
                    )
                )
        join = {
            "overheads": overheads,
            "scaling": scaling,
            "nominal_vdd": nominal_vdd,
            "benchmark_defs": benchmark_defs,
        }
        return cells, join

    # ------------------------------------------------------------------ #
    # Rung execution
    # ------------------------------------------------------------------ #
    def _run_rung(self, cell: _CellState, rung: int, benchmark_def) -> None:
        """Advance one cell to its rung cap of cumulative dies (resume or
        replay).

        Each rung keeps its own round-state file.  A computed rung starts
        from a copy of the previous rung's file (unless its own file already
        exists, from a killed or finished earlier run), so re-running on the
        same checkpoint directory resumes every rung where it stopped.
        Store replay writes the round state recorded with the rung to the
        rung's file, so the *next* rung continues from exactly the state the
        original run left -- the sequential rung schedule is the one
        canonical path, whether rungs were computed or replayed.
        """
        opt = self._optimizer
        cap = cell.caps[rung]
        checkpoint = cell.checkpoint(rung)
        rung_key = f"{cell.resumable_hash}-rung{rung}-cap{cap}"
        record = None
        if self._store is not None:
            record = self._store.get_record(rung_key, kind="dse-rung")
        if record is not None:
            payload = record["payload"]
            results = quality_results_from_payload(payload["results"])
            report = adaptive_report_from_payload(
                payload["results"].get("adaptive_report")
            )
            if report is None:  # pragma: no cover - hand-edited store
                raise ValueError(
                    f"dse-rung record {rung_key!r} carries no adaptive "
                    f"report; the store is corrupt"
                )
            if payload.get("checkpoint") is not None:
                _write_checkpoint_payload(checkpoint, payload["checkpoint"])
            cell.store_hits += 1
        else:
            if rung > 0 and not os.path.exists(checkpoint):
                previous = cell.checkpoint(rung - 1)
                if os.path.exists(previous):
                    _copy_rung_checkpoint(previous, checkpoint)
            probe = replace(
                cell.config, adaptive=opt.adaptive_budget(cap)
            )
            engine = SweepEngine(probe)
            results = engine.run(
                benchmark_def,
                workers=self._workers,
                checkpoint=checkpoint,
                executor=self._executor,
                adaptive_cap_resumable=True,
            )
            report = engine.last_adaptive_report
            assert report is not None
            stats = engine.last_run_stats
            cell.evaluated_dies += (
                stats.evaluated_dies if stats is not None else 0
            )
            if self._store is not None:
                with open(checkpoint, "r", encoding="utf-8") as handle:
                    checkpoint_payload = json.load(handle)
                self._store.put_record(
                    rung_key,
                    "dse-rung",
                    {
                        "results": quality_results_to_payload(
                            results, report
                        ),
                        "checkpoint": checkpoint_payload,
                    },
                    meta={
                        "benchmark": cell.benchmark_name,
                        "vdd": cell.point.vdd,
                        "p_cell": cell.point.p_cell,
                        "rung": rung,
                        "cap": cap,
                        "total_dies": report.total_dies,
                        "evaluated_dies": (
                            stats.evaluated_dies if stats is not None else 0
                        ),
                        "evaluation": "dse-rung",
                    },
                )
        cell.results = results
        cell.report = report
        cell.dies = report.total_dies
        cell.last_rung = rung
        yield_target = self._spec.quality_yield_target
        for name in cell.scheme_names:
            state = cell.rows[name]
            dist = results[name]
            half_width = float(report.half_widths[name])
            state.half_width = half_width
            # The yield estimate's CI maps to a quality band through the
            # (monotone) ECDF quantile: if the true yield at the threshold
            # is within +/- h of the estimate, the quality at the requested
            # yield target lies between these two quantiles.
            state.quality_lo = float(
                dist.ecdf.quantile(max(0.0, (1.0 - yield_target) - half_width))
            )
            state.quality_hi = float(
                dist.ecdf.quantile(min(1.0, (1.0 - yield_target) + half_width))
            )

    # ------------------------------------------------------------------ #
    # Pruning
    # ------------------------------------------------------------------ #
    def _prune_pass(
        self, cells: List[_CellState], rung: int
    ) -> List[PruneEvent]:
        """Drop every row provably dominated at the current bands.

        A row is pruned only when a dominating row has lower-or-equal energy
        *and* its quality band floor strictly clears the victim's band
        ceiling by ``frontier_slack`` -- overlapping or tied bands never
        prune.  Dominators are drawn from a snapshot of the rows unpruned at
        the start of the pass; dominance is transitive, so pruning A by a B
        that this same pass also prunes is sound (B's dominator dominates A
        too), and the outcome does not depend on examination order.
        """
        slack = self._optimizer.frontier_slack
        events: List[PruneEvent] = []
        for benchmark_name in self._spec.benchmarks.names:
            snapshot = [
                (cell, name)
                for cell in cells
                if cell.benchmark_name == benchmark_name
                and cell.results is not None
                for name in cell.scheme_names
                if not cell.rows[name].pruned
            ]
            for cell, name in snapshot:
                victim = cell.rows[name]
                for other_cell, other_name in snapshot:
                    if other_cell is cell and other_name == name:
                        continue
                    dominator = other_cell.rows[other_name]
                    if (
                        dominator.energy <= victim.energy
                        and dominator.quality_lo > victim.quality_hi + slack
                    ):
                        victim.pruned = True
                        victim.pruned_by = (
                            f"{other_name}@{other_cell.point.vdd:g}V"
                        )
                        events.append(
                            PruneEvent(
                                rung=rung,
                                benchmark=benchmark_name,
                                scheme=name,
                                vdd=cell.point.vdd,
                                p_cell=cell.point.p_cell,
                                energy=victim.energy,
                                quality_hi=victim.quality_hi,
                                by_scheme=other_name,
                                by_vdd=other_cell.point.vdd,
                                by_quality_lo=dominator.quality_lo,
                                slack=slack,
                            )
                        )
                        break
        return events

    def _update_status(self, cells: List[_CellState], rung: int) -> None:
        """Retire / resolve / exhaust cells after a pruning pass."""
        target_ci = self._optimizer.target_ci
        last_rung = self._optimizer.rungs - 1
        for cell in cells:
            if cell.status != "active":
                continue
            unpruned = [
                name
                for name in cell.scheme_names
                if not cell.rows[name].pruned
            ]
            if not unpruned:
                cell.status = "retired"
            elif all(
                cell.rows[name].half_width <= target_ci for name in unpruned
            ):
                cell.status = "resolved"
            elif rung == last_rung:
                cell.status = "exhausted"

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> OptimizeResult:
        """Race the grid through the rung schedule; return the audit table."""
        opt = self._optimizer
        with tempfile.TemporaryDirectory(prefix="repro-optimize-") as scratch:
            checkpoint_dir = self._checkpoint_dir or scratch
            os.makedirs(checkpoint_dir, exist_ok=True)
            cells, join = self._build_cells(checkpoint_dir)
            prune_log: List[PruneEvent] = []
            for rung in range(opt.rungs):
                for cell in cells:
                    if cell.status != "active":
                        continue
                    self._run_rung(
                        cell, rung, join["benchmark_defs"][cell.benchmark_name]
                    )
                prune_log.extend(self._prune_pass(cells, rung))
                self._update_status(cells, rung)
                if all(cell.status != "active" for cell in cells):
                    break
        return self._assemble(cells, prune_log, join)

    def _assemble(
        self,
        cells: List[_CellState],
        prune_log: List[PruneEvent],
        join: Mapping[str, object],
    ) -> OptimizeResult:
        """Fold the cell states into the final audit table (canonical order)."""
        spec = self._spec
        yield_target = spec.quality_yield_target
        overheads = join["overheads"]
        scaling = join["scaling"]
        nominal_vdd = join["nominal_vdd"]
        rows: List[Dict[str, object]] = []
        reports: Dict[Tuple[str, float, float], AdaptiveBudgetReport] = {}
        statuses: List[Dict[str, object]] = []
        for cell in cells:
            assert cell.results is not None and cell.report is not None
            reports[cell.key] = cell.report
            statuses.append(
                {
                    "benchmark": cell.benchmark_name,
                    "vdd": cell.point.vdd,
                    "p_cell": cell.point.p_cell,
                    "status": cell.status,
                    "dies": cell.dies,
                    "evaluated_dies": cell.evaluated_dies,
                    "store_hits": cell.store_hits,
                    "last_rung": cell.last_rung,
                }
            )
            logic_scale = (cell.point.vdd / nominal_vdd) ** 2
            word_read_energy = scaling.read_energy_fj(cell.point.vdd)
            for name in cell.scheme_names:
                state = cell.rows[name]
                row = build_dse_row(
                    benchmark_name=cell.benchmark_name,
                    scheme_name=name,
                    point=cell.point,
                    dist=cell.results[name],
                    overhead=overheads[name],
                    word_read_energy=word_read_energy,
                    logic_scale=logic_scale,
                    yield_target=yield_target,
                )
                row["quality_lo"] = state.quality_lo
                row["quality_hi"] = state.quality_hi
                row["ci_half_width"] = state.half_width
                row["dies"] = cell.dies
                row["rung"] = cell.last_rung
                row["pruned"] = state.pruned
                row["pruned_by"] = state.pruned_by
                rows.append(row)
        return OptimizeResult(
            spec,
            rows,
            prune_log,
            adaptive_reports=reports,
            cell_statuses=statuses,
            total_dies=sum(cell.dies for cell in cells),
            evaluated_dies=sum(cell.evaluated_dies for cell in cells),
            exhaustive_dies=sum(cell.exhaustive_dies for cell in cells),
            store_hits=sum(cell.store_hits for cell in cells),
        )
