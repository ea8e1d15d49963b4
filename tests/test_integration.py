"""End-to-end integration tests across the full production and evaluation flows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.figures import figure5_mse_cdf
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.faultmodel.inclusion import VoltageScalableDie
from repro.faultmodel.pcell import PcellModel
from repro.memory.controller import ProtectedMemory
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.quality.mse import mse_of_fault_map
from repro.sim.experiment import knn_benchmark
from repro.sim.faulty_storage import FaultyTensorStore


class TestManufactureTestOperateFlow:
    """The complete lifecycle: manufacture -> BIST -> program -> operate."""

    def test_bit_shuffle_full_flow_bounds_all_errors(self, rng):
        org = MemoryOrganization(rows=512, word_width=32)
        fault_map = FaultMap.random_with_count(org, 12, rng)
        if fault_map.max_faults_per_row() > 1:
            pytest.skip("multi-fault row drawn (out of the paper's regime)")
        memory = ProtectedMemory(org, BitShuffleScheme(32, 3), fault_map)
        values = rng.integers(-(2 ** 30), 2 ** 30, size=org.rows, dtype=np.int64)
        memory.write_ints(0, values)
        readback = memory.read_ints(0, org.rows)
        errors = np.abs(readback - values)
        # nFM=3 -> 4-bit segments -> every error bounded by 2**3.
        assert errors.max() <= 2 ** 3

    def test_scheme_comparison_on_the_same_die(self, rng):
        org = MemoryOrganization(rows=256, word_width=32)
        fault_map = FaultMap.from_cells(org, [(10, 30), (100, 28)])
        values = rng.integers(-(2 ** 30), 2 ** 30, size=org.rows, dtype=np.int64)

        worst_error = {}
        for scheme in (
            NoProtection(32),
            SecdedScheme(32),
            PriorityEccScheme(32),
            BitShuffleScheme(32, 2),
        ):
            memory = ProtectedMemory(org, scheme, fault_map)
            memory.write_ints(0, values)
            worst_error[scheme.name] = int(
                np.max(np.abs(memory.read_ints(0, org.rows) - values))
            )

        assert worst_error["secded-H(39,32)"] == 0
        assert worst_error["p-ecc-H(22,16)"] == 0  # faults are in the MSB half
        assert worst_error["bit-shuffle-nfm2"] <= 2 ** 7
        assert worst_error["no-protection"] >= 2 ** 28

    def test_voltage_scaling_to_quality_pipeline(self, rng):
        """Fig. 2 model -> die -> fault map -> MSE under each scheme."""
        org = MemoryOrganization(rows=512, word_width=32)
        model = PcellModel.calibrated_28nm()
        die = VoltageScalableDie(org, model=model, rng=rng)
        vdd = model.vdd_for_p_cell(5e-4)
        fault_map = die.fault_map_at(vdd)
        unprotected = mse_of_fault_map(fault_map, NoProtection(32))
        shuffled = mse_of_fault_map(fault_map, BitShuffleScheme(32, 5))
        if fault_map.fault_count == 0:
            assert unprotected == shuffled == 0.0
        else:
            assert shuffled <= unprotected


class TestAnalyticalVsBitAccurateConsistency:
    """The analytical residual model must agree with the bit-accurate path."""

    @pytest.mark.parametrize("n_fm", [1, 2, 5])
    def test_bit_shuffle_residual_positions_match_observed_errors(self, n_fm, rng):
        org = MemoryOrganization(rows=16, word_width=32)
        for fault_column in range(0, 32, 3):
            fault_map = FaultMap.from_cells(org, [(0, fault_column)])
            scheme = BitShuffleScheme(32, n_fm)
            store = FaultyTensorStore(org, scheme, fault_map)
            predicted = scheme.residual_error_positions(0, [fault_column])
            data = rng.integers(0, 2 ** 32, dtype=np.uint64)
            # Bit-accurate path via the protected memory.
            memory = ProtectedMemory(org, BitShuffleScheme(32, n_fm), fault_map)
            memory.write_word(0, int(data))
            observed_xor = memory.read_word(0) ^ int(data)
            observed_positions = [b for b in range(32) if observed_xor >> b & 1]
            # The observed flip (if any) must be at the predicted position.
            assert set(observed_positions) <= set(predicted)
            del store

    def test_pecc_residuals_match_observed(self, rng):
        org = MemoryOrganization(rows=8, word_width=32)
        scheme_builder = PriorityEccScheme
        for fault_column in (0, 7, 15, 16, 24, 31):
            fault_map = FaultMap.from_cells(org, [(0, fault_column)])
            memory = ProtectedMemory(org, scheme_builder(32), fault_map)
            data = int(rng.integers(0, 2 ** 32))
            memory.write_word(0, data)
            observed_xor = memory.read_word(0) ^ data
            predicted = scheme_builder(32).residual_error_positions(0, [fault_column])
            observed_positions = {b for b in range(32) if observed_xor >> b & 1}
            assert observed_positions <= set(predicted)


class TestYieldStudyIntegration:
    def test_fig5_style_comparison_on_shared_dies(self, rng):
        org = MemoryOrganization(rows=1024, word_width=32)
        results = figure5_mse_cdf(
            organization=org,
            p_cell=5e-5,
            samples_per_count=25,
            coverage=0.999,
            schemes=[NoProtection(32), PriorityEccScheme(32), BitShuffleScheme(32, 2)],
            rng=rng,
        )
        target_yield = 0.999
        mse_required = {
            name: dist.mse_at_yield(target_yield) for name, dist in results.items()
        }
        # Headline ordering of Fig. 5: bit-shuffling needs the smallest MSE
        # tolerance, unprotected the largest.
        assert (
            mse_required["bit-shuffle-nfm2"]
            <= mse_required["p-ecc-H(22,16)"]
            <= mse_required["no-protection"]
        )

    def test_application_quality_preserved_by_protection(self, rng):
        """A miniature Fig. 7: the KNN training set stored in a faulty memory."""
        org = MemoryOrganization(rows=256, word_width=32)
        benchmark = knn_benchmark(n_samples=150, seed=11)
        fault_map = FaultMap.from_cells(org, [(5, 31), (77, 30), (200, 29)])
        clean = benchmark.clean_quality()

        def corrupted_features(scheme):
            store = FaultyTensorStore(org, scheme, fault_map)
            return store.store_and_load(benchmark.train_features)

        unprotected = corrupted_features(NoProtection(32))
        shuffled = corrupted_features(BitShuffleScheme(32, 2))
        secded = corrupted_features(SecdedScheme(32))
        original = benchmark.train_features

        # SECDED delivers the training set intact (up to quantisation) and so
        # reproduces the clean quality exactly.
        assert benchmark.quality_with_corrupted_features(secded) == pytest.approx(
            clean, abs=1e-6
        )
        # The MSB faults devastate individual feature values without
        # protection but are bounded to low-order noise by bit-shuffling.
        assert np.max(np.abs(unprotected - original)) > 1e3
        assert np.max(np.abs(shuffled - original)) < 1.0
        # With only low-order noise the application quality stays near clean.
        assert benchmark.quality_with_corrupted_features(shuffled) >= 0.9 * clean
