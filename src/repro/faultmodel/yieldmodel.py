"""Quality-aware yield criterion (Eqs. 3-6) and MSE distributions (Fig. 5).

The paper replaces the traditional zero-failure yield criterion with a
quality-aware one: a die is acceptable if its local MSE (Eq. 6) -- computed
from the residual error positions after the protection scheme has done its
work -- stays below an application-dependent bound.  The yield at a bound
``q`` is then ``Pr(MSE <= q)`` taken over the joint distribution of failure
counts (Eq. 4) and fault locations (Eq. 3, 5).

:class:`MseDistribution` holds that distribution for one scheme, answers
yield queries and exports the CDF series that the Fig. 5 analysis, the CLI
and the paper-claim tests read.  It is estimated by the stratified
Monte-Carlo sweep of :meth:`repro.sim.engine.SweepEngine.run_mse`, whose
Fig. 5 front end is :func:`repro.analysis.figures.figure5_mse_cdf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.quality.cdf import WeightedEcdf

__all__ = ["MseDistribution"]


@dataclass
class MseDistribution:
    """MSE distribution of a memory + scheme combination at one operating point.

    Attributes
    ----------
    scheme_name:
        Name of the protection scheme the distribution belongs to.
    p_cell:
        Bit-cell failure probability of the operating point.
    ecdf:
        Weighted empirical CDF of the per-die MSE, including the point mass of
        fault-free dies at MSE = 0.
    zero_fault_probability:
        ``Pr(N = 0)``, the probability mass sitting exactly at MSE = 0.
    max_failures:
        Largest failure count included in the Monte-Carlo sweep.
    samples:
        Total number of fault maps evaluated.
    """

    scheme_name: str
    p_cell: float
    ecdf: WeightedEcdf
    zero_fault_probability: float
    max_failures: int
    samples: int

    def yield_at_mse(self, mse_target: float) -> float:
        """Quality-aware yield: fraction of dies with MSE not exceeding the target."""
        if mse_target < 0:
            raise ValueError("the MSE target must be non-negative")
        return float(self.ecdf.probability_at_most(mse_target))

    def mse_at_yield(self, yield_target: float) -> float:
        """Smallest MSE bound that a fraction ``yield_target`` of dies satisfies."""
        return self.ecdf.quantile(yield_target)

    def cdf_series(
        self, mse_grid: Optional[Sequence[float]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(mse, P(MSE <= mse))`` points: the Fig. 5 curve for this scheme."""
        if mse_grid is None:
            return self.ecdf.curve()
        grid = np.asarray(mse_grid, dtype=np.float64)
        return grid, np.asarray(self.ecdf.probability_at_most(grid))
