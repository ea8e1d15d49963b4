"""Per-cell critical-voltage model with the fault-inclusion property.

Section 2 of the paper notes that voltage-scaling-induced bit-cell failures
obey *fault inclusion*: a cell that fails at a given VDD fails at every lower
VDD.  The natural generative model is a per-cell critical voltage drawn once
at "manufacture" time; the cell is faulty at any supply below its critical
voltage.  :class:`VoltageScalableDie` implements that model consistently with
the :class:`~repro.faultmodel.pcell.PcellModel` calibration, so the fault map
returned for a supply voltage ``V1 < V2`` is always a superset of the one for
``V2``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.faultmodel.pcell import PcellModel
from repro.memory.faults import FaultKind, FaultMap
from repro.memory.organization import MemoryOrganization

__all__ = ["VoltageScalableDie"]


class VoltageScalableDie:
    """One manufactured die whose fault population grows as VDD is scaled down.

    Parameters
    ----------
    organization:
        Geometry of the die.
    model:
        Calibrated :class:`PcellModel`; per-cell critical voltages are drawn
        from the same Gaussian the model's failure probability integrates.
    rng:
        Random generator used to draw the die's critical voltages.
    fault_kind:
        Behaviour assigned to faulty cells (bit-flip by default, matching the
        paper's injection).
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        model: Optional[PcellModel] = None,
        rng: Optional[np.random.Generator] = None,
        fault_kind: FaultKind = FaultKind.BIT_FLIP,
    ) -> None:
        self._organization = organization
        self._model = model if model is not None else PcellModel.calibrated_28nm()
        rng = rng if rng is not None else np.random.default_rng()
        self._fault_kind = fault_kind
        self._critical_voltages = rng.normal(
            loc=self._model.v_crit_mean,
            scale=self._model.v_crit_sigma,
            size=organization.total_cells,
        )

    @property
    def organization(self) -> MemoryOrganization:
        """Geometry of the die."""
        return self._organization

    @property
    def model(self) -> PcellModel:
        """The Pcell(VDD) model the die was drawn from."""
        return self._model

    def critical_voltages(self) -> np.ndarray:
        """Copy of all per-cell critical voltages (row-major flat order)."""
        return self._critical_voltages.copy()

    def fault_count_at(self, vdd: float) -> int:
        """Number of faulty cells when operating the die at ``vdd``."""
        if vdd <= 0:
            raise ValueError("supply voltage must be positive")
        return int(np.count_nonzero(self._critical_voltages > vdd))

    def fault_map_at(self, vdd: float) -> FaultMap:
        """Fault map of the die at supply voltage ``vdd``.

        Lower voltages strictly grow the fault set (fault inclusion).
        """
        if vdd <= 0:
            raise ValueError("supply voltage must be positive")
        width = self._organization.word_width
        failing = np.flatnonzero(self._critical_voltages > vdd)
        cells = [(int(i) // width, int(i) % width) for i in failing]
        return FaultMap.from_cells(self._organization, cells, kind=self._fault_kind)
