"""Tests for the voltage-scalable die model (fault-inclusion property)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faultmodel.inclusion import VoltageScalableDie
from repro.faultmodel.pcell import PcellModel
from repro.memory.organization import MemoryOrganization


@pytest.fixture
def die(rng) -> VoltageScalableDie:
    org = MemoryOrganization(rows=256, word_width=32)
    return VoltageScalableDie(org, rng=rng)


class TestFaultInclusion:
    def test_lower_vdd_is_superset(self, die):
        high = {(f.row, f.column) for f in die.fault_map_at(0.80)}
        low = {(f.row, f.column) for f in die.fault_map_at(0.70)}
        assert high.issubset(low)

    def test_fault_count_monotone_in_vdd(self, die):
        counts = [die.fault_count_at(v) for v in (0.9, 0.8, 0.7, 0.6, 0.5)]
        assert counts == sorted(counts)

    def test_fault_count_matches_fault_map(self, die):
        for vdd in (0.6, 0.7, 0.8):
            assert die.fault_count_at(vdd) == die.fault_map_at(vdd).fault_count

    def test_fault_free_above_minimum_reliable_vdd(self, die):
        vdd = float(die.critical_voltages().max())
        assert die.fault_count_at(vdd) == 0
        assert die.fault_count_at(vdd + 0.01) == 0

    def test_rejects_non_positive_vdd(self, die):
        with pytest.raises(ValueError):
            die.fault_map_at(0.0)
        with pytest.raises(ValueError):
            die.fault_count_at(-1.0)


class TestStatistics:
    def test_population_failure_rate_matches_model(self):
        # Average fault fraction over many cells ~ Pcell(VDD) of the model.
        org = MemoryOrganization(rows=2048, word_width=32)
        model = PcellModel.calibrated_28nm()
        die = VoltageScalableDie(org, model=model, rng=np.random.default_rng(3))
        vdd = 0.62
        expected = model.p_cell(vdd)
        observed = die.fault_count_at(vdd) / org.total_cells
        assert observed == pytest.approx(expected, rel=0.25)

    def test_critical_voltage_lookup_consistent_with_fault_map(self, die):
        fault_map = die.fault_map_at(0.7)
        critical = die.critical_voltages()
        width = die.organization.word_width
        for fault in list(fault_map)[:10]:
            assert critical[fault.row * width + fault.column] > 0.7

    def test_reproducible_with_seed(self):
        org = MemoryOrganization(rows=64, word_width=32)
        a = VoltageScalableDie(org, rng=np.random.default_rng(9))
        b = VoltageScalableDie(org, rng=np.random.default_rng(9))
        assert a.fault_count_at(0.6) == b.fault_count_at(0.6)
