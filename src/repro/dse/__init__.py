"""Cross-layer design-space exploration (DSE).

The paper's four models -- voltage/fault (:mod:`repro.faultmodel`), quality
(:mod:`repro.sim`), energy (:mod:`repro.hardware.energy`), and overhead
(:mod:`repro.hardware.overhead`) -- answer single-figure questions on their
own.  This package joins them behind one declarative surface:

* :mod:`repro.dse.spec` -- :class:`ExperimentSpec`, the layered, serialisable
  description of a sweep grid (geometry / operating points / schemes /
  Monte-Carlo budget / benchmarks);
* :mod:`repro.dse.registry` -- the unified name registry for schemes,
  benchmarks, and Pcell models that makes specs buildable from JSON;
* :mod:`repro.dse.explore` -- :class:`DesignSpaceExplorer`, which sweeps the
  grid through the parallel :class:`~repro.sim.engine.SweepEngine`, joins
  energy and overhead, and extracts the energy/quality Pareto frontier;
* :mod:`repro.dse.optimize` -- :class:`ParetoOptimizer`, the budgeted
  successive-halving alternative that recovers the same frontier for a
  fraction of the exhaustive die bill.

The explorer and the optimizer build a
:class:`~repro.sim.engine.SweepEngine` per grid point and call it directly,
as the single-figure views in :mod:`repro.analysis.figures` do.

CLI: ``repro-faulty-mem dse run|pareto|report|optimize --spec grid.json``.
"""

from repro.dse.explore import (
    DSE_COLUMNS,
    DesignSpaceExplorer,
    DseResult,
    build_dse_row,
    pareto_frontier,
)
from repro.dse.optimize import OptimizeResult, ParetoOptimizer, PruneEvent
from repro.dse.registry import (
    REGISTRY,
    DesignRegistry,
    build_benchmark,
    build_pcell_model,
    build_scheme,
)
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
    "DesignRegistry",
    "DesignSpaceExplorer",
    "DseResult",
    "ExperimentSpec",
    "GeometrySpec",
    "McBudgetSpec",
    "OperatingGridSpec",
    "OptimizeResult",
    "OptimizerSpec",
    "ParetoOptimizer",
    "PruneEvent",
    "REGISTRY",
    "SchemeGridSpec",
    "build_benchmark",
    "build_dse_row",
    "build_pcell_model",
    "build_scheme",
    "pareto_frontier",
]
