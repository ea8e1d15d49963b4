"""Tests for the faulty-memory tensor store (the Fig. 7 storage pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.quantize.fixedpoint import FixedPointFormat
from repro.sim.faulty_storage import FaultyTensorStore, QuantizedTensor


@pytest.fixture
def org() -> MemoryOrganization:
    return MemoryOrganization(rows=128, word_width=32)


def _clean(store: FaultyTensorStore, values: np.ndarray) -> np.ndarray:
    """The fault-free de-quantisation a load patches (no fault effects)."""
    fixed_point = store.fixed_point
    tensor = QuantizedTensor(fixed_point, fixed_point.quantize_array(values))
    return tensor.clean.reshape(tensor.shape)


class TestFaultFreeBehaviour:
    def test_only_quantisation_error_without_faults(self, org, rng):
        store = FaultyTensorStore(org, NoProtection(32), FaultMap.empty(org))
        values = rng.normal(scale=10.0, size=(40, 5))
        loaded = store.store_and_load(values)
        assert loaded.shape == values.shape
        assert np.max(np.abs(loaded - values)) <= store.fixed_point.scale

    def test_matches_quantisation_roundtrip(self, org, rng):
        store = FaultyTensorStore(org, SecdedScheme(32), FaultMap.empty(org))
        values = rng.normal(size=(30, 3))
        assert np.array_equal(store.store_and_load(values), _clean(store, values))


class TestFaultEffects:
    def test_unprotected_msb_fault_produces_large_error(self, org):
        fault_map = FaultMap.from_cells(org, [(0, 31)])
        store = FaultyTensorStore(org, NoProtection(32), fault_map)
        values = np.zeros(org.rows)
        loaded = store.store_and_load(values)
        # The MSB flip turns +0 into the most negative representable value.
        assert abs(loaded[0]) > 1e4
        assert np.allclose(loaded[1:], 0.0)

    def test_secded_removes_single_fault(self, org, rng):
        fault_map = FaultMap.from_cells(org, [(0, 31)])
        store = FaultyTensorStore(org, SecdedScheme(32), fault_map)
        values = rng.normal(size=org.rows)
        loaded = store.store_and_load(values)
        assert np.max(np.abs(loaded - values)) <= store.fixed_point.scale

    def test_bit_shuffle_bounds_error(self, org, rng):
        fault_map = FaultMap.from_cells(org, [(5, 31)])
        fmt = FixedPointFormat(total_bits=32, frac_bits=16)
        store = FaultyTensorStore(org, BitShuffleScheme(32, 2), fault_map, fmt)
        values = rng.normal(size=org.rows)
        loaded = store.store_and_load(values)
        # nFM=2 -> segment of 8 bits -> worst error 2**7 codes = 2**7 * 2**-16.
        bound = (2 ** 7) * fmt.scale + fmt.scale
        assert np.max(np.abs(loaded - values)) <= bound

    def test_priority_ecc_corrects_msb_but_not_lsb_fault(self, org):
        values = np.zeros(org.rows)
        msb_store = FaultyTensorStore(
            org, PriorityEccScheme(32), FaultMap.from_cells(org, [(0, 31)])
        )
        lsb_store = FaultyTensorStore(
            org, PriorityEccScheme(32), FaultMap.from_cells(org, [(0, 0)])
        )
        assert np.allclose(msb_store.store_and_load(values), 0.0)
        assert lsb_store.store_and_load(values)[0] != 0.0

    def test_only_faulty_rows_touched(self, org, rng):
        fault_map = FaultMap.from_cells(org, [(7, 31), (19, 2)])
        store = FaultyTensorStore(org, NoProtection(32), fault_map)
        values = rng.normal(size=org.rows)
        loaded = store.store_and_load(values)
        diff_rows = np.nonzero(
            np.abs(loaded - _clean(store, values)) > 0
        )[0]
        assert set(diff_rows.tolist()) <= {7, 19}


class TestPaging:
    def test_large_arrays_reuse_the_same_physical_rows(self, org):
        fault_map = FaultMap.from_cells(org, [(3, 31)])
        store = FaultyTensorStore(org, NoProtection(32), fault_map)
        values = np.zeros(3 * org.rows)  # three pages
        loaded = store.store_and_load(values)
        corrupted_indices = np.nonzero(loaded != 0.0)[0]
        assert corrupted_indices.tolist() == [3, 3 + org.rows, 3 + 2 * org.rows]

    def test_affected_value_indices(self, org):
        fault_map = FaultMap.from_cells(org, [(3, 31)])
        store = FaultyTensorStore(org, NoProtection(32), fault_map)
        _rows, indices, _slots = store.die.affected(2 * org.rows)
        assert np.sort(indices).tolist() == [3, 3 + org.rows]
        assert store.die.affected(2)[1].tolist() == []

    def test_partial_last_page(self, org):
        fault_map = FaultMap.from_cells(org, [(100, 31)])
        store = FaultyTensorStore(org, NoProtection(32), fault_map)
        # Only 50 values: row 100 is never used, so nothing is corrupted.
        loaded = store.store_and_load(np.ones(50))
        assert np.allclose(loaded, 1.0, atol=store.fixed_point.scale)


class TestSchemeOwnership:
    """The constructor must never mutate the caller's scheme instance."""

    def test_caller_scheme_is_not_programmed(self, org):
        scheme = BitShuffleScheme(32, 2)
        FaultyTensorStore(org, scheme, FaultMap.from_cells(org, [(0, 31)]))
        # The caller's instance still has no FM-LUT: attach_rows was never
        # called on it, only on the store's private copy.
        with pytest.raises(RuntimeError):
            scheme.lut

    def test_caller_lut_state_is_preserved(self, org):
        scheme = BitShuffleScheme(32, 2, rows=org.rows)
        scheme.program({5: [31]})
        before = scheme.lut.entries()
        FaultyTensorStore(org, scheme, FaultMap.from_cells(org, [(9, 0)]))
        assert np.array_equal(scheme.lut.entries(), before)

    def test_two_stores_sharing_one_scheme_do_not_corrupt_each_other(self, org):
        scheme = BitShuffleScheme(32, 2)
        # Store A: MSB fault in row 0 -> rotation needed for row 0.
        # Store B: fault-free -> all-zero LUT.
        store_a = FaultyTensorStore(org, scheme, FaultMap.from_cells(org, [(0, 31)]))
        store_b = FaultyTensorStore(org, scheme, FaultMap.empty(org))
        assert store_a.scheme is not scheme
        assert store_b.scheme is not scheme
        assert store_a.scheme.lut.entry(0) == 3  # MSB segment for nFM=2
        assert store_b.scheme.lut.entry(0) == 0

        # Interleaved use: each store keeps answering from its own LUT.
        values = np.full(org.rows, 100.0)
        loaded_a = store_a.store_and_load(values)
        loaded_b = store_b.store_and_load(values)
        assert np.max(np.abs(loaded_a - values)) <= (2**7 + 1) * store_a.fixed_point.scale
        assert np.max(np.abs(loaded_b - values)) <= store_b.fixed_point.scale

    def test_stateless_scheme_is_shared_not_copied(self, org):
        # program() is a no-op for stateless schemes, so the constructor may
        # (and now does) skip the deep copy entirely.
        for scheme in (NoProtection(32), SecdedScheme(32)):
            store = FaultyTensorStore(
                org, scheme, FaultMap.from_cells(org, [(0, 31)])
            )
            assert not scheme.has_die_state
            assert store.scheme is scheme

    def test_stateful_scheme_reports_die_state(self):
        assert BitShuffleScheme(32, 2).has_die_state

    def test_other_stateful_schemes_get_a_programmed_deep_copy(self, org):
        class RecordingScheme(NoProtection):
            def __init__(self):
                super().__init__(32)
                self.programmed = {}

            def program(self, fault_columns_by_row):
                self.programmed.update(fault_columns_by_row)

        scheme = RecordingScheme()
        store = FaultyTensorStore(org, scheme, FaultMap.from_cells(org, [(4, 9)]))
        assert store.scheme is not scheme
        assert store.scheme.programmed == {4: [9]}
        assert scheme.programmed == {}


class TestValidation:
    def test_rejects_mismatched_scheme_width(self, org):
        with pytest.raises(ValueError):
            FaultyTensorStore(org, NoProtection(16), FaultMap.empty(org))

    def test_rejects_mismatched_fault_map(self, org):
        other = MemoryOrganization(rows=64, word_width=32)
        with pytest.raises(ValueError):
            FaultyTensorStore(org, NoProtection(32), FaultMap.empty(other))

    def test_rejects_mismatched_fixed_point_width(self, org):
        with pytest.raises(ValueError):
            FaultyTensorStore(
                org,
                NoProtection(32),
                FaultMap.empty(org),
                FixedPointFormat(total_bits=16, frac_bits=8),
            )
