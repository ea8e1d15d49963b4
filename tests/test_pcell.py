"""Tests for the Pcell(VDD) model and the classical yield formula (Fig. 2)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.faultmodel.pcell import PcellModel, classical_yield


class TestPcellModel:
    def test_monotonically_decreasing_in_vdd(self):
        model = PcellModel.calibrated_28nm()
        vdd = np.linspace(0.5, 1.1, 25)
        p = model.p_cell_curve(vdd)
        assert np.all(np.diff(p) < 0)

    def test_probability_bounds(self):
        model = PcellModel.calibrated_28nm()
        for vdd in (0.3, 0.6, 1.0, 1.5):
            assert 0.0 <= model.p_cell(vdd) <= 1.0

    def test_nominal_voltage_is_reliable(self):
        # Around 1e-9 at the nominal 1.0 V.
        p = PcellModel.calibrated_28nm().p_cell(1.0)
        assert 1e-10 < p < 1e-8

    def test_fig5_operating_point(self):
        # Pcell = 5e-6 should correspond to a supply around 0.83 V.
        model = PcellModel.calibrated_28nm()
        vdd = model.vdd_for_p_cell(5e-6)
        assert 0.80 < vdd < 0.86
        assert model.p_cell(vdd) == pytest.approx(5e-6, rel=0.05)

    def test_fig7_operating_point(self):
        # Pcell = 1e-3 should correspond to a supply around 0.68 V.
        model = PcellModel.calibrated_28nm()
        vdd = model.vdd_for_p_cell(1e-3)
        assert 0.64 < vdd < 0.72

    def test_vdd_for_p_cell_inverts_p_cell(self):
        model = PcellModel.calibrated_28nm()
        for target in (1e-8, 1e-5, 1e-3, 1e-2):
            assert model.p_cell(model.vdd_for_p_cell(target)) == pytest.approx(
                target, rel=1e-3
            )

    def test_rejects_non_positive_vdd(self):
        with pytest.raises(ValueError):
            PcellModel.calibrated_28nm().p_cell(0.0)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError):
            PcellModel(v_crit_mean=0.3, v_crit_sigma=0.0)

    def test_vdd_for_p_cell_rejects_degenerate_probability(self):
        model = PcellModel.calibrated_28nm()
        with pytest.raises(ValueError):
            model.vdd_for_p_cell(0.0)
        with pytest.raises(ValueError):
            model.vdd_for_p_cell(1.0)


class TestClassicalYield:
    def test_zero_pcell_gives_full_yield(self):
        assert classical_yield(0.0, 131072) == 1.0

    def test_unit_pcell_gives_zero_yield(self):
        assert classical_yield(1.0, 131072) == 0.0

    def test_matches_direct_formula_for_small_memory(self):
        assert classical_yield(0.01, 100) == pytest.approx((1 - 0.01) ** 100)

    def test_paper_16kb_yield_collapses_at_073v(self):
        # Section 2: the yield approaches zero for a 16 kB memory at 0.73 V.
        model = PcellModel.calibrated_28nm()
        assert classical_yield(model.p_cell(0.73), 131072) < 1e-6

    def test_paper_16kb_yield_high_at_nominal(self):
        model = PcellModel.calibrated_28nm()
        assert classical_yield(model.p_cell(1.0), 131072) > 0.999

    def test_no_underflow_for_huge_memories(self):
        value = classical_yield(1e-3, 10 ** 9)
        assert value == 0.0 or value > 0.0  # finite, no exception
        assert math.isfinite(value)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            classical_yield(-0.1, 100)
        with pytest.raises(ValueError):
            classical_yield(0.5, -1)
