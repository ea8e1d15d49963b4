"""Tests for the voltage-scaling energy model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.energy import VoltageScalingModel
from repro.memory.organization import MemoryOrganization


@pytest.fixture
def model(paper_org) -> VoltageScalingModel:
    return VoltageScalingModel(paper_org)


class TestEnergyScaling:
    def test_quadratic_dynamic_energy(self, model):
        assert model.read_energy_fj(0.5) == pytest.approx(
            0.25 * model.read_energy_fj(1.0)
        )

    def test_linear_leakage(self, model):
        assert model.leakage_power_nw(0.5) == pytest.approx(
            0.5 * model.leakage_power_nw(1.0)
        )

    def test_energy_saving_at_nominal_is_zero(self, model):
        assert model.energy_saving(1.0) == pytest.approx(0.0)

    def test_energy_saving_monotone_in_scaling(self, model):
        savings = [model.energy_saving(v) for v in (0.9, 0.8, 0.7, 0.6)]
        assert savings == sorted(savings)
        assert all(0.0 < s < 1.0 for s in savings)

    def test_rejects_invalid_arguments(self, model):
        with pytest.raises(ValueError):
            model.read_energy_fj(0.0)
        with pytest.raises(ValueError):
            model.leakage_power_nw(-1.0)

    def test_rejects_bad_construction(self, paper_org):
        with pytest.raises(ValueError):
            VoltageScalingModel(paper_org, nominal_vdd=0.0)
        with pytest.raises(ValueError):
            VoltageScalingModel(paper_org, leakage_per_cell_nw=-1.0)


class TestOperatingPoints:
    def test_operating_point_fields_consistent(self, model):
        point = model.operating_point(0.7)
        assert point.vdd == 0.7
        assert point.p_cell == pytest.approx(model.pcell_model.p_cell(0.7))
        assert point.read_energy_fj == pytest.approx(model.read_energy_fj(0.7))
        assert point.expected_failures == pytest.approx(
            point.p_cell * MemoryOrganization.paper_16kb().total_cells
        )

    def test_scaling_trades_energy_for_faults(self, model):
        nominal = model.operating_point(1.0)
        scaled = model.operating_point(0.68)
        assert scaled.read_energy_fj < 0.5 * nominal.read_energy_fj
        assert scaled.expected_failures > 100 * max(nominal.expected_failures, 1e-9)

    def test_sweep_ordering(self, model):
        sweep = model.sweep(np.array([1.0, 0.9, 0.8]))
        assert list(sweep) == [1.0, 0.9, 0.8]

    def test_fig7_operating_point_saves_over_half_the_energy(self, model):
        vdd = model.pcell_model.vdd_for_p_cell(1e-3)
        assert model.energy_saving(vdd) > 0.5


class TestCalibratedRangeEdges:
    """Operating points at and below the Pcell model's calibrated range.

    The 28 nm calibration anchors the curve between ~1.0 V (Pcell ~ 1e-9)
    and ~0.68 V (Pcell ~ 1e-3); the model must stay a well-behaved
    probability when a sweep ventures below that range.
    """

    def test_point_at_lower_calibration_anchor(self, model):
        point = model.operating_point(0.68)
        assert 1e-4 < point.p_cell < 1e-2
        assert 0.0 < point.energy_saving < 1.0
        assert point.expected_failures > 100

    def test_point_far_below_calibrated_range(self, model):
        # Deep below the critical-voltage mean almost every cell fails, but
        # the characterisation stays finite and consistent.
        point = model.operating_point(0.05)
        assert 0.9 < point.p_cell < 1.0
        assert point.expected_failures == pytest.approx(
            point.p_cell * MemoryOrganization.paper_16kb().total_cells
        )
        assert point.read_energy_fj > 0.0

    def test_point_at_critical_voltage_mean_is_coin_flip(self, model):
        vdd = model.pcell_model.v_crit_mean
        assert model.operating_point(vdd).p_cell == pytest.approx(0.5)

    def test_p_cell_monotone_down_to_zero_volts(self, model):
        vdd_grid = np.linspace(0.05, 1.2, 47)
        p = [model.operating_point(float(v)).p_cell for v in vdd_grid]
        assert all(later <= earlier for earlier, later in zip(p, p[1:]))
        assert all(0.0 < value < 1.0 for value in p)

    def test_overdrive_above_nominal_has_negative_saving(self, model):
        point = model.operating_point(1.1)
        assert point.energy_saving < 0.0
        assert point.read_energy_fj > model.read_energy_fj(1.0)


class TestZeroLeakageTechnology:
    def test_zero_leakage_is_valid_and_propagates(self, paper_org):
        model = VoltageScalingModel(paper_org, leakage_per_cell_nw=0.0)
        for vdd in (0.6, 0.8, 1.0):
            assert model.leakage_power_nw(vdd) == 0.0
            point = model.operating_point(vdd)
            assert point.leakage_power_nw == 0.0
            # The dynamic side of the trade-off is unaffected.
            assert point.read_energy_fj == pytest.approx(
                model.read_energy_fj(vdd)
            )


class TestEnergySavingMonotonicity:
    def test_strictly_monotone_across_fine_voltage_grid(self, model):
        vdd_grid = np.linspace(1.0, 0.3, 71)
        savings = [model.energy_saving(float(v)) for v in vdd_grid]
        assert all(
            later > earlier for earlier, later in zip(savings, savings[1:])
        )
        assert savings[0] == pytest.approx(0.0)
        assert savings[-1] == pytest.approx(1.0 - 0.3**2)

    def test_matches_quadratic_law_everywhere(self, model):
        for vdd in np.linspace(0.2, 1.0, 17):
            assert model.energy_saving(float(vdd)) == pytest.approx(
                1.0 - float(vdd) ** 2
            )
