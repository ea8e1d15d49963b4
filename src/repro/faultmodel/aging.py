"""Temporal degradation (aging) of bit-cells and power-on self test tracking.

Section 3 of the paper points out an operational advantage of programming the
FM-LUT from a power-on startup test (POST) rather than only at manufacturing
test: it "provides the advantage of tracking potential failures induced by
temporal degradation (i.e., due to aging)".  This module supplies the aging
substrate needed to exercise that flow:

* :class:`AgingModel` -- a BTI-style degradation law: each cell's critical
  voltage drifts upwards over time with a sub-linear (power-law) time
  dependence and per-cell variation, so cells that were marginal at time zero
  are the first to start failing in the field.
* :class:`AgingDie` -- wraps a :class:`~repro.faultmodel.inclusion.VoltageScalableDie`
  and exposes its fault map *at a given age*, preserving both the
  fault-inclusion property in voltage and monotonic fault growth in time.

The POST flow itself (re-running BIST at boot and reprogramming the FM-LUT) is
covered by the integration tests: an FM-LUT programmed for the time-zero fault
map no longer bounds errors after years of drift, while reprogramming it from
a fresh BIST restores the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.faultmodel.inclusion import VoltageScalableDie
from repro.faultmodel.pcell import PcellModel
from repro.memory.faults import FaultKind, FaultMap
from repro.memory.organization import MemoryOrganization

__all__ = ["AgingModel", "AgingDie"]


#: Boltzmann constant in eV/K (Arrhenius temperature acceleration).
_BOLTZMANN_EV_PER_K = 8.617333262e-5
_ZERO_CELSIUS_K = 273.15


@dataclass(frozen=True)
class AgingModel:
    """Power-law critical-voltage drift: ``dVcrit = A * (t / t0) ** n``.

    Attributes
    ----------
    drift_at_reference_v:
        Mean critical-voltage increase (in volts) accumulated after
        ``reference_years`` of operation -- BTI-induced threshold-voltage
        shifts in scaled nodes are typically a few tens of millivolts over the
        product lifetime.
    reference_years:
        The time at which ``drift_at_reference_v`` is reached.
    time_exponent:
        Sub-linear power-law exponent (``~0.2`` for BTI-like mechanisms).
    variability:
        Relative per-cell spread of the drift (lognormal sigma).
    activation_energy_ev:
        Arrhenius activation energy (eV) of the temperature acceleration.
        The default of 0 makes the drift temperature-independent, preserving
        the model's historical behaviour; BTI mechanisms are typically in the
        0.05-0.15 eV range.
    reference_temperature_c:
        Temperature (Celsius) at which ``drift_at_reference_v`` is calibrated;
        the acceleration factor is 1 there.
    """

    drift_at_reference_v: float = 0.040
    reference_years: float = 10.0
    time_exponent: float = 0.2
    variability: float = 0.3
    activation_energy_ev: float = 0.0
    reference_temperature_c: float = 25.0

    def __post_init__(self) -> None:
        if self.drift_at_reference_v < 0:
            raise ValueError("drift_at_reference_v must be non-negative")
        if self.reference_years <= 0:
            raise ValueError("reference_years must be positive")
        if not 0.0 < self.time_exponent <= 1.0:
            raise ValueError("time_exponent must be in (0, 1]")
        if self.variability < 0:
            raise ValueError("variability must be non-negative")
        if self.activation_energy_ev < 0:
            raise ValueError("activation_energy_ev must be non-negative")
        if self.reference_temperature_c <= -_ZERO_CELSIUS_K:
            raise ValueError(
                "reference_temperature_c must be above absolute zero"
            )

    def temperature_acceleration(self, temperature_c: float) -> float:
        """Arrhenius acceleration factor relative to the reference temperature.

        ``exp(Ea / k * (1/Tref - 1/T))`` -- 1 at the reference temperature,
        monotonically increasing in ``T`` for a positive activation energy,
        and identically 1 for ``activation_energy_ev = 0``.
        """
        if temperature_c <= -_ZERO_CELSIUS_K:
            raise ValueError("temperature_c must be above absolute zero")
        if self.activation_energy_ev == 0.0:
            return 1.0
        t_ref = self.reference_temperature_c + _ZERO_CELSIUS_K
        t = temperature_c + _ZERO_CELSIUS_K
        return math.exp(
            self.activation_energy_ev / _BOLTZMANN_EV_PER_K * (1.0 / t_ref - 1.0 / t)
        )

    def mean_drift(
        self, years: float, temperature_c: Optional[float] = None
    ) -> float:
        """Mean critical-voltage drift accumulated after ``years`` of operation.

        ``temperature_c`` applies the Arrhenius acceleration factor; ``None``
        evaluates at the reference temperature (factor 1), which is the
        historical behaviour.
        """
        if years < 0:
            raise ValueError("years must be non-negative")
        if years == 0:
            return 0.0
        drift = (
            self.drift_at_reference_v
            * (years / self.reference_years) ** self.time_exponent
        )
        if temperature_c is not None:
            drift *= self.temperature_acceleration(temperature_c)
        return drift

    def sample_cell_drift(
        self,
        years: float,
        n_cells: int,
        rng: np.random.Generator,
        temperature_c: Optional[float] = None,
    ) -> np.ndarray:
        """Per-cell drift samples after ``years`` (lognormal around the mean)."""
        if n_cells < 0:
            raise ValueError("n_cells must be non-negative")
        mean = self.mean_drift(years, temperature_c=temperature_c)
        if mean == 0.0 or n_cells == 0:
            return np.zeros(n_cells)
        if self.variability == 0.0:
            return np.full(n_cells, mean)
        sigma = self.variability
        # Lognormal with the requested mean: E[X] = exp(mu + sigma^2 / 2).
        mu = np.log(mean) - 0.5 * sigma ** 2
        return rng.lognormal(mean=mu, sigma=sigma, size=n_cells)


class AgingDie:
    """A manufactured die whose fault population grows over its lifetime.

    The per-cell aging drift is drawn once at construction (it is a property
    of the physical device) and scaled with the power-law time dependence, so
    requesting the fault map at increasing ages yields monotonically growing
    fault sets -- the temporal analogue of the voltage fault-inclusion
    property.
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        pcell_model: Optional[PcellModel] = None,
        aging_model: Optional[AgingModel] = None,
        rng: Optional[np.random.Generator] = None,
        fault_kind: FaultKind = FaultKind.BIT_FLIP,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng()
        self._organization = organization
        self._aging_model = aging_model if aging_model is not None else AgingModel()
        self._fault_kind = fault_kind
        self._fresh_die = VoltageScalableDie(
            organization, model=pcell_model, rng=rng, fault_kind=fault_kind
        )
        # Normalised per-cell drift profile; the age only scales its magnitude.
        reference = self._aging_model.sample_cell_drift(
            self._aging_model.reference_years, organization.total_cells, rng
        )
        mean = self._aging_model.mean_drift(self._aging_model.reference_years)
        self._drift_profile = reference / mean if mean > 0 else np.zeros_like(reference)

    @property
    def organization(self) -> MemoryOrganization:
        """Geometry of the die."""
        return self._organization

    @property
    def aging_model(self) -> AgingModel:
        """The drift law applied to this die."""
        return self._aging_model

    def critical_voltages_at(self, years: float) -> np.ndarray:
        """Per-cell critical voltages after ``years`` of operation."""
        drift = self._aging_model.mean_drift(years) * self._drift_profile
        return self._fresh_die.critical_voltages() + drift

    def fault_map_at(self, vdd: float, years: float = 0.0) -> FaultMap:
        """Fault map when operating at ``vdd`` after ``years`` in the field."""
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        critical = self.critical_voltages_at(years)
        width = self._organization.word_width
        failing = np.flatnonzero(critical > vdd)
        cells = [(int(i) // width, int(i) % width) for i in failing]
        return FaultMap.from_cells(self._organization, cells, kind=self._fault_kind)
