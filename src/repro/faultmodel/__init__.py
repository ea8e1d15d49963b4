"""Process-variation and voltage-scaling fault models, Monte Carlo, and yield.

* :mod:`repro.faultmodel.pcell` -- the bit-cell failure probability versus
  supply voltage model behind Fig. 2 (substitute for the paper's SPICE +
  hypersphere-sampling framework).
* :mod:`repro.faultmodel.inclusion` -- per-cell critical-voltage model that
  satisfies the fault-inclusion property (cells failing at a given VDD fail
  at every lower VDD).
* :mod:`repro.faultmodel.montecarlo` -- the failure-count law of Eq. 4 and
  the per-failure-count Monte-Carlo fault-map sampling used by Figs. 5 and 7.
* :mod:`repro.faultmodel.yieldmodel` -- Eqs. 3-6: the quality-aware yield
  criterion; the MSE distribution that answers yield-at-target queries.
* :mod:`repro.faultmodel.aging` -- temporal degradation (aging) of bit-cells,
  motivating the paper's power-on self test (POST) FM-LUT reprogramming.
"""

from repro.faultmodel.aging import AgingDie, AgingModel
from repro.faultmodel.inclusion import VoltageScalableDie
from repro.faultmodel.montecarlo import (
    FaultMapSampler,
    expected_failures,
    failure_count_cdf,
    failure_count_pmf,
    max_failures_for_coverage,
    samples_per_failure_count,
)
from repro.faultmodel.pcell import PcellModel, classical_yield
from repro.faultmodel.yieldmodel import MseDistribution

__all__ = [
    "AgingDie",
    "AgingModel",
    "FaultMapSampler",
    "MseDistribution",
    "PcellModel",
    "VoltageScalableDie",
    "classical_yield",
    "expected_failures",
    "failure_count_cdf",
    "failure_count_pmf",
    "max_failures_for_coverage",
    "samples_per_failure_count",
]
