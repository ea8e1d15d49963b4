"""Tests for the aging model and the POST (power-on self test) flow it motivates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scheme import BitShuffleScheme
from repro.faultmodel.aging import AgingDie, AgingModel
from repro.memory.controller import ProtectedMemory
from repro.memory.organization import MemoryOrganization


class TestAgingModel:
    def test_no_drift_at_time_zero(self):
        assert AgingModel().mean_drift(0.0) == 0.0

    def test_drift_reaches_reference_value(self):
        model = AgingModel(drift_at_reference_v=0.05, reference_years=10.0)
        assert model.mean_drift(10.0) == pytest.approx(0.05)

    def test_drift_monotone_and_sublinear(self):
        model = AgingModel()
        drifts = [model.mean_drift(t) for t in (1, 2, 5, 10, 20)]
        assert drifts == sorted(drifts)
        # Sub-linear: doubling the time less than doubles the drift.
        assert model.mean_drift(20) < 2 * model.mean_drift(10)

    def test_sample_cell_drift_mean(self, rng):
        model = AgingModel(drift_at_reference_v=0.04, variability=0.3)
        samples = model.sample_cell_drift(10.0, 20000, rng)
        assert samples.mean() == pytest.approx(0.04, rel=0.05)
        assert np.all(samples >= 0)

    def test_zero_variability_gives_uniform_drift(self, rng):
        model = AgingModel(variability=0.0)
        samples = model.sample_cell_drift(10.0, 100, rng)
        assert np.allclose(samples, model.mean_drift(10.0))

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            AgingModel(drift_at_reference_v=-0.1)
        with pytest.raises(ValueError):
            AgingModel(reference_years=0.0)
        with pytest.raises(ValueError):
            AgingModel(time_exponent=0.0)
        with pytest.raises(ValueError):
            AgingModel(variability=-0.1)
        with pytest.raises(ValueError):
            AgingModel().mean_drift(-1.0)
        with pytest.raises(ValueError):
            AgingModel(activation_energy_ev=-0.1)
        with pytest.raises(ValueError):
            AgingModel(reference_temperature_c=-300.0)
        with pytest.raises(ValueError):
            AgingModel(activation_energy_ev=0.1).temperature_acceleration(-300.0)

    def test_temperature_acceleration_is_one_at_reference(self):
        model = AgingModel(activation_energy_ev=0.1, reference_temperature_c=25.0)
        assert model.temperature_acceleration(25.0) == pytest.approx(1.0)

    def test_drift_monotone_in_temperature(self):
        model = AgingModel(activation_energy_ev=0.1)
        drifts = [
            model.mean_drift(5.0, temperature_c=t) for t in (0.0, 25.0, 55.0, 85.0, 125.0)
        ]
        assert drifts == sorted(drifts)
        assert drifts[-1] > drifts[0]

    def test_zero_activation_energy_ignores_temperature(self):
        model = AgingModel(activation_energy_ev=0.0)
        assert model.mean_drift(5.0, temperature_c=125.0) == model.mean_drift(5.0)


class TestAgedScenarioProperties:
    """Property tests of the aged scenario's operating-point shift."""

    def _source(self, **kwargs):
        from repro.scenarios import AgedPcellSource

        return AgedPcellSource(**kwargs)

    def test_time_zero_identity_with_calibrated_28nm(self):
        # At t = 0 the aged population is exactly the fresh calibrated-28nm
        # population: no drift, no probability shift, for any base Pcell.
        source = self._source(years=0.0)
        for p_cell in (1e-9, 5e-6, 1e-3, 0.1):
            assert source.effective_p_cell(p_cell) == p_cell

    def test_pcell_shift_monotone_in_years(self):
        for p_cell in (5e-6, 1e-3):
            shifts = [
                self._source(years=years).effective_p_cell(p_cell)
                for years in (0.0, 1.0, 3.0, 10.0, 30.0)
            ]
            assert shifts == sorted(shifts)
            assert shifts[-1] > p_cell

    def test_pcell_shift_monotone_in_temperature(self):
        model = AgingModel(activation_energy_ev=0.1)
        shifts = [
            self._source(
                aging_model=model, years=5.0, temperature_c=t
            ).effective_p_cell(1e-3)
            for t in (0.0, 25.0, 85.0, 125.0)
        ]
        assert shifts == sorted(shifts)
        assert shifts[-1] > shifts[0]

    def test_aged_shift_never_decreases_pcell(self):
        source = self._source(years=7.0)
        for p_cell in (1e-8, 1e-6, 1e-4, 1e-2):
            assert source.effective_p_cell(p_cell) >= p_cell

    def test_rejects_negative_years(self):
        with pytest.raises(ValueError):
            self._source(years=-1.0)

    def test_rejects_impossible_temperature_at_construction(self):
        # Spec loaders validate scenarios by constructing them, so the
        # failure must happen here, not at the first drift evaluation.
        with pytest.raises(ValueError, match="absolute zero"):
            self._source(years=5.0, temperature_c=-400.0)


class TestAgingDie:
    @pytest.fixture
    def die(self, rng) -> AgingDie:
        org = MemoryOrganization(rows=512, word_width=32)
        return AgingDie(org, rng=rng)

    def test_fault_population_grows_with_age(self, die):
        vdd = 0.75
        counts = [
            die.fault_map_at(vdd, years).fault_count for years in (0.0, 2.0, 5.0, 10.0)
        ]
        assert counts == sorted(counts)

    def test_aged_faults_are_superset_of_fresh_faults(self, die):
        vdd = 0.72
        fresh = {(f.row, f.column) for f in die.fault_map_at(vdd, years=0.0)}
        aged = {(f.row, f.column) for f in die.fault_map_at(vdd, years=10.0)}
        assert fresh.issubset(aged)

    def test_voltage_inclusion_still_holds_when_aged(self, die):
        years = 8.0
        high = {(f.row, f.column) for f in die.fault_map_at(0.80, years)}
        low = {(f.row, f.column) for f in die.fault_map_at(0.70, years)}
        assert high.issubset(low)

    def test_rejects_non_positive_vdd(self, die):
        with pytest.raises(ValueError):
            die.fault_map_at(0.0, 1.0)


class TestPostFlow:
    def test_post_reprogramming_restores_the_error_bound(self, rng):
        """The paper's POST argument: re-running BIST at boot tracks aging faults."""
        org = MemoryOrganization(rows=256, word_width=32)
        die = AgingDie(org, rng=np.random.default_rng(42))
        vdd = 0.74
        years = 10.0
        fresh_map = die.fault_map_at(vdd, years=0.0)
        aged_map = die.fault_map_at(vdd, years=years)
        new_faults = aged_map.fault_count - fresh_map.fault_count
        if new_faults == 0 or aged_map.max_faults_per_row() > 1:
            pytest.skip("this seed produced no usable aging faults")

        data = rng.integers(-(2 ** 30), 2 ** 30, size=org.rows, dtype=np.int64)
        bound = 2 ** 7  # nFM = 2 -> segment of 8 bits

        # Stale FM-LUT: programmed at manufacturing time, then the die ages.
        stale = ProtectedMemory(org, BitShuffleScheme(32, 2), fresh_map, run_bist=False)
        stale.scheme.program(fresh_map.faulty_columns_by_row())
        stale._array._fault_map = ProtectedMemory._lift_fault_map(  # age the die
            aged_map, stale.array.organization
        )
        stale.write_ints(0, data)
        stale_errors = np.abs(stale.read_ints(0, org.rows) - data)

        # POST flow: BIST re-runs on the aged die and reprograms the FM-LUT.
        refreshed = ProtectedMemory(org, BitShuffleScheme(32, 2), aged_map)
        refreshed.write_ints(0, data)
        refreshed_errors = np.abs(refreshed.read_ints(0, org.rows) - data)

        assert refreshed_errors.max() <= bound
        assert stale_errors.max() >= refreshed_errors.max()
