"""Cross-layer design-space exploration (DSE).

The paper's four models -- voltage/fault (:mod:`repro.faultmodel`), quality
(:mod:`repro.sim`), energy (:mod:`repro.hardware.energy`), and overhead
(:mod:`repro.hardware.overhead`) -- answer single-figure questions on their
own.  This package joins them behind one declarative surface:

* :mod:`repro.dse.spec` -- :class:`ExperimentSpec`, the layered, serialisable
  description of a sweep grid (geometry / operating points / schemes /
  Monte-Carlo budget / benchmarks).  Each axis is named by string and
  resolved by the lookup that owns it: :func:`repro.sim.config.build_scheme`,
  :func:`repro.sim.experiment.benchmark_by_name`,
  :func:`repro.scenarios.build_scenario` and
  :meth:`~repro.dse.spec.OperatingGridSpec.model`;
* :mod:`repro.dse.explore` -- the grid layer both runners share:
  :func:`~repro.dse.explore.grid_cells`, the one walk over a spec's (benchmark, operating
  point) cells in canonical order, and :class:`~repro.dse.explore.RowJoin`, the one
  energy / overhead / quality join that turns a cell's distributions into
  tidy-table rows.  On top of them sit :class:`DesignSpaceExplorer`, which
  sweeps every cell through the parallel
  :class:`~repro.sim.engine.SweepEngine` and extracts the energy/quality
  Pareto frontier, and :func:`grid_point_statuses`, which lists the cells a
  :class:`~repro.store.ResultStore` already holds without running anything;
* :mod:`repro.dse.optimize` -- :class:`ParetoOptimizer`, the budgeted
  successive-halving alternative that recovers the same frontier for a
  fraction of the exhaustive die bill, over the same cells and rows.

The explorer and the optimizer build a
:class:`~repro.sim.engine.SweepEngine` per grid point and call it directly,
as the single-figure views in :mod:`repro.analysis.figures` do.

CLI: ``repro-faulty-mem dse run|pareto|report|optimize --spec grid.json``.
"""

from repro.dse.explore import (
    DSE_COLUMNS,
    DesignSpaceExplorer,
    DseResult,
    GridPointStatus,
    dirty_grid_points,
    grid_point_statuses,
    pareto_frontier,
)
from repro.dse.optimize import OptimizeResult, ParetoOptimizer, PruneEvent
from repro.dse.spec import (
    BenchmarkGridSpec,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    OptimizerSpec,
    SchemeGridSpec,
)

__all__ = [
    "BenchmarkGridSpec",
    "DSE_COLUMNS",
    "DesignSpaceExplorer",
    "DseResult",
    "ExperimentSpec",
    "GeometrySpec",
    "GridPointStatus",
    "McBudgetSpec",
    "OperatingGridSpec",
    "OptimizeResult",
    "OptimizerSpec",
    "ParetoOptimizer",
    "PruneEvent",
    "SchemeGridSpec",
    "dirty_grid_points",
    "grid_point_statuses",
    "pareto_frontier",
]
