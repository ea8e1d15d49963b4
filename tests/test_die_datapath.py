"""The shared per-die datapath equals one fresh store per scheme, bit for bit.

A sweep stores one tensor in one die under every scheme of the sweep, and
the die's stores share one :class:`~repro.sim.faulty_storage.DieDatapath`
(what the first store built) and one
:class:`~repro.sim.faulty_storage.QuantizedTensor`.  These tests pin the
sharing down against independent stores built from plain arrays, and the
static datapath against the scalar word-at-a-time model, over every scheme,
every fault kind, empty maps, crowded rows, tensors smaller than the memory,
partial last pages and the transient tier.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_paths
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.memory.faults import FaultKind, FaultMap, FaultSite
from repro.memory.organization import MemoryOrganization
from repro.memory.words import from_twos_complement, to_twos_complement
from repro.quantize.fixedpoint import FixedPointFormat
from repro.scenarios.transient import (
    ReadDisturbSource,
    ScrubbingRepair,
    SoftErrorSource,
    TransientTier,
)
from repro.sim.faulty_storage import DieDatapath, FaultyTensorStore, QuantizedTensor

ROWS = 24
WIDTH = 32
ORG = MemoryOrganization(rows=ROWS, word_width=WIDTH)
FMT = FixedPointFormat(total_bits=WIDTH, frac_bits=16)
KINDS = list(FaultKind)


def _schemes():
    """Every scheme: none, P-ECC, SECDED, bit-shuffle nFM 1-5 x both policies."""
    return [
        NoProtection(WIDTH),
        PriorityEccScheme(WIDTH),
        SecdedScheme(WIDTH),
    ] + [
        BitShuffleScheme(WIDTH, n_fm, multi_fault_policy=policy)
        for n_fm in range(1, 6)
        for policy in ("most-significant", "minimax")
    ]


def _outcome(load):
    """A load's values, or ``ValueError`` (SECDED with >= 3 faults in a word)."""
    try:
        return load()
    except ValueError:
        return ValueError


def _assert_same(got, expected):
    if expected is ValueError or got is ValueError:
        assert got is expected
    else:
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def _shared_loads(fault_map, raw, **read_model):
    """Every scheme's load through one die and one quantised tensor."""
    tensor = QuantizedTensor(FMT, raw)
    die, loads = None, []
    for scheme in _schemes():
        store = FaultyTensorStore(ORG, scheme, fault_map, FMT, die=die, **read_model)
        die = store.die
        loads.append(_outcome(lambda: store.load_quantized(tensor)))
    return loads


def _fresh_loads(fault_map, raw, **read_model):
    """Every scheme's load through its own store, from the plain code array."""
    return [
        _outcome(
            lambda scheme=scheme: FaultyTensorStore(
                ORG, scheme, fault_map, FMT, **read_model
            ).load_quantized(raw)
        )
        for scheme in _schemes()
    ]


def _scalar_loads(fault_map, raw):
    """The word-at-a-time hardware model of every scheme's load."""
    data_mask = (1 << WIDTH) - 1
    flat = raw.reshape(-1)
    loads = []
    for scheme in _schemes():
        scheme = scheme.for_die(ROWS, fault_map.faulty_columns_by_row())
        codes = flat.copy()
        try:
            for row in fault_map.faulty_columns_by_row():
                for index in range(row, flat.size, ROWS):
                    stored = scheme.encode_word(
                        row, to_twos_complement(int(flat[index]), WIDTH)
                    )
                    observed = fault_map.corrupt_word(row, stored & data_mask) | (
                        stored & ~data_mask
                    )
                    codes[index] = from_twos_complement(
                        scheme.decode_word(row, observed), WIDTH
                    )
        except ValueError:
            loads.append(ValueError)
            continue
        loads.append(FMT.dequantize_array(codes).reshape(raw.shape))
    return loads


def _raw_tensor(seed, n_values, shape=None):
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=300.0, size=n_values)
    boundary = [FMT.from_raw(FMT.max_raw), FMT.from_raw(FMT.min_raw), 0.0, -FMT.scale]
    values[: min(4, n_values)] = boundary[: min(4, n_values)]
    raw = FMT.quantize_array(values)
    return raw if shape is None else raw.reshape(shape)


def _fault_map(cells, kinds):
    return FaultMap(
        ORG, (FaultSite(row, column, kind) for (row, column), kind in zip(cells, kinds))
    )


def _check(fault_map, raw):
    shared = _shared_loads(fault_map, raw)
    for got, expected in zip(shared, _fresh_loads(fault_map, raw)):
        _assert_same(got, expected)
    for got, expected in zip(shared, _scalar_loads(fault_map, raw)):
        _assert_same(got, expected)


@pytest.mark.parametrize("kind", KINDS, ids=[kind.value for kind in KINDS])
@pytest.mark.parametrize(
    "n_values",
    [0, 7, ROWS - 1, ROWS, 3 * ROWS + 5],
    ids=["empty-tensor", "smaller-than-rows", "rows-1", "one-page", "partial-page"],
)
def test_shared_die_matches_fresh_stores(kind, n_values):
    cells = [(0, 31), (5, 3), (5, 17), (9, 0), (23, 16), (11, 30)]
    _check(_fault_map(cells, [kind] * len(cells)), _raw_tensor(n_values, n_values))


def test_empty_map_returns_the_clean_tensor():
    raw = _raw_tensor(1, 2 * ROWS + 3)
    _check(FaultMap.empty(ORG), raw)
    for load in _shared_loads(FaultMap.empty(ORG), raw):
        assert load.tobytes() == FMT.dequantize_array(raw).tobytes()


def test_many_faults_in_one_row_mixed_kinds():
    cells = [(7, column) for column in range(0, WIDTH, 3)] + [(2, 31)]
    kinds = [KINDS[i % len(KINDS)] for i in range(len(cells))]
    raw = _raw_tensor(2, 5 * (2 * ROWS - 1), shape=(5, 2 * ROWS - 1))
    _check(_fault_map(cells, kinds), raw)


def test_multidimensional_tensor_keeps_its_shape():
    raw = _raw_tensor(3, 4 * 11, shape=(4, 11))
    fault_map = FaultMap.from_cells(ORG, [(1, 30), (13, 4)])
    for load in _shared_loads(fault_map, raw):
        assert load.shape == (4, 11)
    _check(fault_map, raw)


@settings(max_examples=40, deadline=None)
@given(
    faults=st.lists(
        st.tuples(
            st.integers(0, ROWS - 1),
            st.integers(0, WIDTH - 1),
            st.sampled_from(KINDS),
        ),
        max_size=30,
        unique_by=lambda fault: fault[:2],
    ),
    crowded_row=st.one_of(st.none(), st.integers(0, ROWS - 1)),
    n_values=st.integers(0, 3 * ROWS + 7),
    seed=st.integers(0, 2**16),
)
def test_property_shared_equals_fresh_and_scalar(faults, crowded_row, n_values, seed):
    if crowded_row is not None:
        # Crowd one row: a fault in every third column, of every kind.
        taken = {fault[:2] for fault in faults}
        for column in range(0, WIDTH, 3):
            if (crowded_row, column) not in taken:
                faults.append((crowded_row, column, KINDS[column % len(KINDS)]))
    fault_map = _fault_map([fault[:2] for fault in faults], [fault[2] for fault in faults])
    _check(fault_map, _raw_tensor(seed, n_values))


@pytest.mark.parametrize("n_values", [5, ROWS, 2 * ROWS + 9])
def test_transient_tier_shared_equals_fresh_and_scalar_reference(n_values):
    tier = TransientTier(
        sources=(
            SoftErrorSource(flip_probability=2e-2),
            ReadDisturbSource(disturb_probability=1e-2),
        ),
        scrubbing=ScrubbingRepair(period=2),
    )
    cells = [(0, 31), (4, 2), (4, 20), (10, 15)]
    fault_map = _fault_map(cells, [KINDS[i % 3] for i in range(len(cells))])
    raw = _raw_tensor(n_values, n_values)
    read_model = dict(transient=tier, transient_seed=41, access_trace=3)
    shared = _shared_loads(fault_map, raw, **read_model)
    fresh = _fresh_loads(fault_map, raw, **read_model)
    scalar = [
        _outcome(
            lambda scheme=scheme: reference_paths.transient_load(
                ORG, scheme, fault_map, FMT, raw, **read_model
            )
        )
        for scheme in _schemes()
    ]
    for got, by_store, by_scalar in zip(shared, fresh, scalar):
        _assert_same(got, by_store)
        _assert_same(got, by_scalar)


def test_die_is_computed_once_per_tensor():
    fault_map = FaultMap.from_cells(ORG, [(3, 9)])
    die = DieDatapath(ORG, fault_map, FMT)
    tensor = QuantizedTensor(FMT, _raw_tensor(4, 2 * ROWS))
    assert die.plan(tensor) is die.plan(tensor)
    other = QuantizedTensor(FMT, _raw_tensor(5, 2 * ROWS))
    assert die.plan(other).patterns.tobytes() != die.plan(tensor).patterns.tobytes()


def test_quantized_tensor_is_a_read_only_copy():
    raw = _raw_tensor(6, 10)
    tensor = QuantizedTensor(FMT, raw)
    raw[0] += 1
    assert tensor.codes[0] == raw[0] - 1
    assert not tensor.codes.flags.writeable and not tensor.clean.flags.writeable
    with pytest.raises(ValueError, match="representable range"):
        QuantizedTensor(FMT, np.array([FMT.max_raw + 1]))


def test_quantized_tensor_pickles_read_only():
    tensor = QuantizedTensor(FMT, _raw_tensor(7, 12, shape=(3, 4)))
    copy = pickle.loads(pickle.dumps(tensor))
    assert copy.shape == (3, 4) and copy.fixed_point == FMT
    assert copy.codes.tobytes() == tensor.codes.tobytes()
    assert copy.clean.tobytes() == tensor.clean.tobytes()
    assert not copy.codes.flags.writeable and not copy.clean.flags.writeable


def test_store_rejects_a_die_built_for_other_arguments():
    fault_map = FaultMap.from_cells(ORG, [(3, 9)])
    die = FaultyTensorStore(ORG, NoProtection(WIDTH), fault_map, FMT).die
    with pytest.raises(ValueError, match="other store arguments"):
        FaultyTensorStore(ORG, NoProtection(WIDTH), FaultMap.empty(ORG), FMT, die=die)
    with pytest.raises(ValueError, match="other store arguments"):
        FaultyTensorStore(ORG, NoProtection(WIDTH), fault_map, None, die=die)


def test_load_rejects_a_tensor_in_another_format():
    store = FaultyTensorStore(ORG, NoProtection(WIDTH), FaultMap.empty(ORG), FMT)
    other = FixedPointFormat(total_bits=WIDTH, frac_bits=8)
    with pytest.raises(ValueError, match="another fixed-point format"):
        store.load_quantized(QuantizedTensor(other, np.zeros(3, dtype=np.int64)))
