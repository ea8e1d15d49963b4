"""Batch-vs-scalar equivalence suite for every protection scheme.

The vectorised ``encode_words`` / ``decode_words`` datapath exists purely for
simulation speed; its contract is to be *bit-for-bit identical* to the scalar
``encode_word`` / ``decode_word`` hardware model.  These randomized property
tests pin that down for every scheme, every ``nFM`` value, both multi-fault
policies, random fault maps of every fault kind, and the negative/boundary
fixed-point patterns that exercise the sign bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import ProtectionScheme
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.memory.faults import FaultKind, FaultMap, FaultSite
from repro.memory.organization import MemoryOrganization
from repro.memory.words import (
    from_twos_complement,
    from_twos_complement_array,
    to_twos_complement,
    to_twos_complement_array,
)
from repro.quantize.fixedpoint import FixedPointFormat
from repro.sim.faulty_storage import DieDatapath

ROWS = 48
WIDTH = 32
ORG = MemoryOrganization(rows=ROWS, word_width=WIDTH)

# Boundary 2's-complement patterns of a Q15.16 word: zero, +/- one LSB,
# min/max raw codes, the sign bit alone, and all-ones.
FMT = FixedPointFormat(total_bits=WIDTH, frac_bits=16)
BOUNDARY_PATTERNS = np.array(
    [
        0,
        1,
        to_twos_complement(-1, WIDTH),
        to_twos_complement(FMT.max_raw, WIDTH),
        to_twos_complement(FMT.min_raw, WIDTH),
        1 << (WIDTH - 1),
        (1 << WIDTH) - 1,
    ],
    dtype=np.uint64,
)


def _random_fault_map(rng: np.random.Generator, fault_count: int) -> FaultMap:
    """A random fault map mixing every fault kind (multi-fault rows allowed)."""
    total = ORG.total_cells
    flat = rng.choice(total, size=fault_count, replace=False)
    kind_values = list(FaultKind)
    kinds = [kind_values[i] for i in rng.integers(0, len(kind_values), size=fault_count)]
    return FaultMap(
        ORG,
        (
            FaultSite(int(i) // WIDTH, int(i) % WIDTH, k)
            for i, k in zip(flat, kinds)
        ),
    )


def _programmed(scheme: ProtectionScheme, fault_map: FaultMap) -> ProtectionScheme:
    if hasattr(scheme, "attach_rows"):
        scheme.attach_rows(ROWS)
    scheme.program(fault_map.faulty_columns_by_row())
    return scheme


def _test_words(rng: np.random.Generator, n: int) -> np.ndarray:
    random_words = rng.integers(0, 1 << WIDTH, size=n, dtype=np.uint64)
    words = np.concatenate([BOUNDARY_PATTERNS, random_words])
    rows = rng.integers(0, ROWS, size=words.size).astype(np.int64)
    return rows, words


def _datapath_corrupt(
    fault_map: FaultMap, rows: np.ndarray, stored: np.ndarray
) -> np.ndarray:
    """What the sweep's datapath reads back for ``stored`` held in ``rows``.

    Maps each row to its slot in the die's masks (faulty rows first, then
    the identity slot) and corrupts through :meth:`DieDatapath.corrupt`.
    """
    die = DieDatapath(fault_map.organization, fault_map)
    slot_of = {row: slot for slot, row in enumerate(die.faulty_rows.tolist())}
    slots = np.array(
        [slot_of.get(row, len(slot_of)) for row in rows.tolist()], dtype=np.int64
    )
    return die.corrupt(slots, stored)


def _scalar_decode(scheme, row: int, stored: int):
    """Scalar decode result, or ValueError as a sentinel (>=3-fault codewords)."""
    try:
        return scheme.decode_word(row, stored)
    except ValueError:
        return ValueError


SCHEME_FACTORIES = [
    pytest.param(lambda: NoProtection(WIDTH), id="no-protection"),
    pytest.param(lambda: SecdedScheme(WIDTH), id="secded"),
    pytest.param(lambda: PriorityEccScheme(WIDTH), id="p-ecc-half"),
    pytest.param(
        lambda: PriorityEccScheme(WIDTH, protected_bits=8), id="p-ecc-byte"
    ),
] + [
    pytest.param(
        lambda n_fm=n_fm, policy=policy: BitShuffleScheme(
            WIDTH, n_fm, multi_fault_policy=policy
        ),
        id=f"bit-shuffle-nfm{n_fm}-{policy}",
    )
    for n_fm in range(1, 6)
    for policy in ("most-significant", "minimax")
]


@pytest.mark.parametrize("scheme_factory", SCHEME_FACTORIES)
@pytest.mark.parametrize("fault_count", [0, 5, 40])
def test_encode_corrupt_decode_matches_scalar(scheme_factory, fault_count, rng):
    """The full batch pipeline equals the scalar pipeline word by word."""
    fault_map = _random_fault_map(rng, fault_count)
    scheme = _programmed(scheme_factory(), fault_map)
    rows, words = _test_words(rng, 200)

    stored = scheme.encode_words(rows, words)
    observed = _datapath_corrupt(fault_map, rows, stored)
    scalar_decode_failed = False
    for i in range(rows.size):
        row, word = int(rows[i]), int(words[i])
        scalar_stored = scheme.encode_word(row, word)
        assert int(stored[i]) == scalar_stored
        data_mask = (1 << WIDTH) - 1
        scalar_observed = fault_map.corrupt_word(row, scalar_stored & data_mask) | (
            scalar_stored & ~data_mask
        )
        assert int(observed[i]) == scalar_observed
        scalar_recovered = _scalar_decode(scheme, row, scalar_observed)
        if scalar_recovered is ValueError:
            scalar_decode_failed = True
        else:
            recovered = scheme.decode_words(
                rows[i : i + 1], observed[i : i + 1]
            )
            assert int(recovered[0]) == scalar_recovered

    if scalar_decode_failed:
        # >=3 faults in one SECDED codeword: the scalar decoder raises, and
        # the batch decoder must mirror that instead of silently differing.
        with pytest.raises(ValueError):
            scheme.decode_words(rows, observed)
    else:
        recovered = scheme.decode_words(rows, observed)
        for i in range(rows.size):
            assert int(recovered[i]) == scheme.decode_word(
                int(rows[i]), int(observed[i])
            )


@pytest.mark.parametrize("scheme_factory", SCHEME_FACTORIES)
def test_batch_override_matches_base_fallback(scheme_factory, rng):
    """Every vectorised override equals the generic scalar-loop fallback."""
    fault_map = _random_fault_map(rng, 8)
    scheme = _programmed(scheme_factory(), fault_map)
    rows, words = _test_words(rng, 64)

    stored = scheme.encode_words(rows, words)
    fallback_stored = ProtectionScheme.encode_words(scheme, rows, words)
    np.testing.assert_array_equal(stored, fallback_stored)

    recovered = scheme.decode_words(rows, stored)
    fallback_recovered = ProtectionScheme.decode_words(scheme, rows, stored)
    np.testing.assert_array_equal(recovered, fallback_recovered)


@pytest.mark.parametrize("scheme_factory", SCHEME_FACTORIES)
def test_healthy_roundtrip_is_identity(scheme_factory, rng):
    """Without corruption, decode_words(encode_words(x)) == x for all schemes."""
    scheme = _programmed(scheme_factory(), _random_fault_map(rng, 10))
    rows, words = _test_words(rng, 128)
    stored = scheme.encode_words(rows, words)
    np.testing.assert_array_equal(scheme.decode_words(rows, stored), words)


@pytest.mark.parametrize("scheme_factory", SCHEME_FACTORIES)
def test_batch_rejects_oversized_data(scheme_factory):
    scheme = _programmed(scheme_factory(), FaultMap.empty(ORG))
    rows = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError):
        scheme.encode_words(rows, np.array([1 << WIDTH], dtype=np.uint64))
    with pytest.raises(ValueError):
        scheme.decode_words(
            rows, np.array([1 << scheme.storage_width], dtype=np.uint64)
        )
    with pytest.raises(ValueError):
        scheme.encode_words(rows, np.zeros(2, dtype=np.uint64))


class TestCorruptWordsEquivalence:
    @pytest.mark.parametrize("fault_count", [0, 7, 64])
    def test_matches_scalar_corrupt_word(self, fault_count, rng):
        fault_map = _random_fault_map(rng, fault_count)
        rows = rng.integers(0, ROWS, size=300).astype(np.int64)
        patterns = rng.integers(0, 1 << WIDTH, size=300, dtype=np.uint64)
        batch = _datapath_corrupt(fault_map, rows, patterns)
        for i in range(rows.size):
            assert int(batch[i]) == fault_map.corrupt_word(
                int(rows[i]), int(patterns[i])
            )

    def test_stuck_at_semantics(self):
        # Same row: stuck-at-zero bit 0, stuck-at-one bit 1, flip bit 2.
        fault_map = FaultMap(
            ORG,
            [
                FaultSite(3, 0, FaultKind.STUCK_AT_ZERO),
                FaultSite(3, 1, FaultKind.STUCK_AT_ONE),
                FaultSite(3, 2, FaultKind.BIT_FLIP),
            ],
        )
        rows = np.array([3, 3], dtype=np.int64)
        patterns = np.array([0b111, 0b000], dtype=np.uint64)
        observed = _datapath_corrupt(fault_map, rows, patterns)
        assert observed.tolist() == [0b010, 0b110]


class TestTwosComplementArrays:
    def test_roundtrip_matches_scalar(self, rng):
        values = rng.integers(FMT.min_raw, FMT.max_raw + 1, size=500, dtype=np.int64)
        values = np.concatenate(
            [values, np.array([FMT.min_raw, FMT.max_raw, 0, -1, 1], dtype=np.int64)]
        )
        patterns = to_twos_complement_array(values, WIDTH)
        for v, p in zip(values.tolist(), patterns.tolist()):
            assert p == to_twos_complement(v, WIDTH)
        back = from_twos_complement_array(patterns, WIDTH)
        np.testing.assert_array_equal(back, values)
        for p, v in zip(patterns.tolist(), back.tolist()):
            assert v == from_twos_complement(p, WIDTH)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            to_twos_complement_array(np.array([1 << (WIDTH - 1)]), WIDTH)
        with pytest.raises(ValueError):
            from_twos_complement_array(np.array([1 << WIDTH], dtype=np.uint64), WIDTH)


class TestStoreEquivalence:
    """End-to-end: the vectorised FaultyTensorStore equals a scalar reference."""

    @pytest.mark.parametrize("scheme_factory", SCHEME_FACTORIES)
    def test_store_and_load_matches_scalar_reference(self, scheme_factory, rng):
        from repro.sim.faulty_storage import FaultyTensorStore

        # Single-fault rows only, so the SECDED scalar reference cannot raise.
        flat = rng.choice(ROWS, size=6, replace=False)
        cells = [(int(r), int(rng.integers(0, WIDTH))) for r in flat]
        kind_values = list(FaultKind)
        kinds = [
            kind_values[i] for i in rng.integers(0, len(kind_values), size=len(cells))
        ]
        fault_map = FaultMap(
            ORG, (FaultSite(r, c, k) for (r, c), k in zip(cells, kinds))
        )
        store = FaultyTensorStore(ORG, scheme_factory(), fault_map, FMT)

        values = rng.normal(scale=500.0, size=3 * ROWS + 11)
        values[:4] = [
            FMT.from_raw(FMT.max_raw), FMT.from_raw(FMT.min_raw), 0.0, -FMT.scale
        ]
        loaded = store.store_and_load(values)

        # Scalar reference pipeline, word by word.
        scheme = store.scheme
        raw = FMT.quantize_array(values)
        expected = raw.copy()
        data_mask = (1 << WIDTH) - 1
        for row, _cols in fault_map.faulty_columns_by_row().items():
            for index in range(row, values.size, ROWS):
                pattern = to_twos_complement(int(raw[index]), WIDTH)
                stored = scheme.encode_word(row, pattern)
                observed = fault_map.corrupt_word(row, stored & data_mask) | (
                    stored & ~data_mask
                )
                recovered = scheme.decode_word(row, observed)
                expected[index] = from_twos_complement(recovered, WIDTH)
        np.testing.assert_array_equal(loaded, FMT.dequantize_array(expected))

    def test_load_quantized_matches_store_and_load(self, rng):
        from repro.sim.faulty_storage import FaultyTensorStore

        fault_map = FaultMap.from_cells(ORG, [(1, 31), (17, 3)])
        store = FaultyTensorStore(ORG, BitShuffleScheme(WIDTH, 2), fault_map, FMT)
        values = rng.normal(scale=100.0, size=(5, ROWS)).astype(np.float64)
        raw = FMT.quantize_array(values)
        np.testing.assert_array_equal(
            store.load_quantized(raw), store.store_and_load(values)
        )
