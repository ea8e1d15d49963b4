"""Bit-cell failure probability versus supply voltage (Fig. 2 substitute).

The paper estimates the total failure probability of a 6T SRAM cell in a
28 nm process with SPICE-level simulation and hypersphere importance sampling.
Only the resulting ``Pcell(VDD)`` curve feeds the rest of the evaluation, so
this module substitutes an analytical model with the same behaviour: the
cell's effective margin is Gaussian in the presence of parametric variations,
and a cell fails when its critical voltage exceeds the supply.  The failure
probability is therefore the Gaussian tail

    ``Pcell(VDD) = Phi((v_crit_mean - VDD) / v_crit_sigma)``

with parameters calibrated so the curve reproduces the paper's anchor points:
roughly 1e-9 at the nominal 1.0 V, about 5e-6 near 0.83 V (the Fig. 5
operating point), about 1e-3 near 0.68 V (the Fig. 7 operating point), and a
classical zero-failure yield that collapses to ~0 for a 16 kB array around
0.73 V, as stated in Section 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["PcellModel", "classical_yield"]

_SQRT2 = math.sqrt(2.0)


def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def _phi_inv(p: float) -> float:
    """Inverse standard normal CDF via bisection (p in (0, 1))."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PcellModel:
    """Gaussian-tail model of the 6T bit-cell failure probability.

    Attributes
    ----------
    v_crit_mean:
        Mean critical voltage of the cell population (V).
    v_crit_sigma:
        Standard deviation of the critical voltage (V), capturing the spread
        caused by parametric variations.
    """

    v_crit_mean: float = 0.3413
    v_crit_sigma: float = 0.1098

    def __post_init__(self) -> None:
        if self.v_crit_sigma <= 0:
            raise ValueError("v_crit_sigma must be positive")

    def p_cell(self, vdd: float) -> float:
        """Failure probability of a single bit-cell at supply voltage ``vdd``."""
        if vdd <= 0:
            raise ValueError(f"supply voltage must be positive, got {vdd}")
        return _phi((self.v_crit_mean - vdd) / self.v_crit_sigma)

    def p_cell_curve(self, vdd_values: Sequence[float] | np.ndarray) -> np.ndarray:
        """Vector of failure probabilities for a supply-voltage sweep (Fig. 2)."""
        vdd_values = np.asarray(vdd_values, dtype=np.float64)
        return np.array([self.p_cell(float(v)) for v in vdd_values])

    def vdd_for_p_cell(self, p_cell: float) -> float:
        """Supply voltage at which the cell failure probability equals ``p_cell``.

        Useful for mapping the paper's operating points (Pcell = 5e-6 in
        Fig. 5, 1e-3 in Fig. 7) back to a supply voltage.
        """
        if not 0.0 < p_cell < 1.0:
            raise ValueError("p_cell must be in (0, 1)")
        return self.v_crit_mean - self.v_crit_sigma * _phi_inv(p_cell)

    @classmethod
    def calibrated_28nm(cls) -> "PcellModel":
        """The default calibration targeting the paper's 28 nm anchor points."""
        return cls()



def classical_yield(p_cell: float, total_cells: int) -> float:
    """Traditional zero-failure yield ``Y = (1 - Pcell)**M`` (Section 2).

    Computed in the log domain so it remains accurate for the huge cell counts
    where the naive product underflows.
    """
    if not 0.0 <= p_cell <= 1.0:
        raise ValueError("p_cell must be a probability")
    if total_cells < 0:
        raise ValueError("total_cells must be non-negative")
    if p_cell == 1.0:
        return 0.0 if total_cells > 0 else 1.0
    return math.exp(total_cells * math.log1p(-p_cell))
