"""Voltage-scaling energy model: the power-saving side of the trade-off.

The paper's closing argument is that the proposed scheme "can be used to
exploit the properties of a variety of error-resilient applications for
allowing operation at scaled voltages".  The quality side of that trade-off is
covered by the fault model and the yield analysis; this module supplies the
energy side: dynamic SRAM access energy scales roughly with ``VDD**2`` (and
leakage with ``VDD``), so running the memory at a scaled supply voltage saves
energy in exchange for the higher ``Pcell`` the protection scheme must then
mitigate.

:class:`VoltageScalingModel` combines the technology constants with a
``Pcell(VDD)`` model to answer the question behind the voltage/quality
trade-off experiment: *for a given supply voltage, how much access energy is
saved and what fault rate must the protection scheme absorb?*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.faultmodel.pcell import PcellModel
from repro.hardware.technology import Technology
from repro.memory.organization import MemoryOrganization

__all__ = ["OperatingPoint", "VoltageScalingModel"]


@dataclass(frozen=True)
class OperatingPoint:
    """One supply-voltage operating point of the memory.

    Attributes
    ----------
    vdd:
        Supply voltage in volts.
    p_cell:
        Bit-cell failure probability at that voltage.
    read_energy_fj:
        Energy of one full-word read access.
    leakage_power_nw:
        Static leakage power of the array.
    energy_saving:
        Fractional read-energy saving relative to the nominal voltage.
    expected_failures:
        Mean number of faulty cells in the array at this voltage.
    """

    vdd: float
    p_cell: float
    read_energy_fj: float
    leakage_power_nw: float
    energy_saving: float
    expected_failures: float


class VoltageScalingModel:
    """Energy / fault-rate trade-off of operating an SRAM at a scaled supply.

    Parameters
    ----------
    organization:
        Memory geometry (sets the word width for access energy and the cell
        count for leakage and expected failures).
    technology:
        Process constants; the column read energy and leakage reference are
        taken at the nominal voltage.
    pcell_model:
        Calibrated ``Pcell(VDD)`` model.
    nominal_vdd:
        Nominal supply voltage the savings are measured against.
    leakage_per_cell_nw:
        Array leakage per bit-cell at the nominal voltage (nW).
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        technology: Optional[Technology] = None,
        pcell_model: Optional[PcellModel] = None,
        nominal_vdd: float = 1.0,
        leakage_per_cell_nw: float = 0.015,
    ) -> None:
        if nominal_vdd <= 0:
            raise ValueError("nominal_vdd must be positive")
        if leakage_per_cell_nw < 0:
            raise ValueError("leakage_per_cell_nw must be non-negative")
        self._organization = organization
        self._technology = technology if technology is not None else Technology.fdsoi_28nm()
        self._pcell_model = (
            pcell_model if pcell_model is not None else PcellModel.calibrated_28nm()
        )
        self._nominal_vdd = nominal_vdd
        self._leakage_per_cell_nw = leakage_per_cell_nw

    @property
    def nominal_vdd(self) -> float:
        """Nominal supply voltage."""
        return self._nominal_vdd

    @property
    def pcell_model(self) -> PcellModel:
        """The bit-cell failure model used for the fault-rate side."""
        return self._pcell_model

    # ------------------------------------------------------------------ #
    # Energy components
    # ------------------------------------------------------------------ #
    def read_energy_fj(self, vdd: float) -> float:
        """Energy of one full-word read at ``vdd`` (dynamic CV^2 scaling)."""
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        nominal = (
            self._organization.word_width
            * self._technology.sram_column_read_energy_fj
        )
        return nominal * (vdd / self._nominal_vdd) ** 2

    def leakage_power_nw(self, vdd: float) -> float:
        """Array leakage power at ``vdd`` (first-order linear voltage scaling)."""
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        nominal = self._organization.total_cells * self._leakage_per_cell_nw
        return nominal * (vdd / self._nominal_vdd)

    def energy_saving(self, vdd: float) -> float:
        """Fractional read-energy saving at ``vdd`` versus the nominal voltage."""
        return 1.0 - self.read_energy_fj(vdd) / self.read_energy_fj(self._nominal_vdd)

    # ------------------------------------------------------------------ #
    # Operating points
    # ------------------------------------------------------------------ #
    def operating_point(self, vdd: float) -> OperatingPoint:
        """Full energy / fault-rate characterisation of one supply voltage."""
        p_cell = self._pcell_model.p_cell(vdd)
        return OperatingPoint(
            vdd=vdd,
            p_cell=p_cell,
            read_energy_fj=self.read_energy_fj(vdd),
            leakage_power_nw=self.leakage_power_nw(vdd),
            energy_saving=self.energy_saving(vdd),
            expected_failures=p_cell * self._organization.total_cells,
        )

    def sweep(self, vdd_values: Sequence[float] | np.ndarray) -> Dict[float, OperatingPoint]:
        """Operating points for a supply-voltage sweep (ordered as given)."""
        return {float(v): self.operating_point(float(v)) for v in vdd_values}
