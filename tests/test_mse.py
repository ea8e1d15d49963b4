"""Tests for the local MSE metric (Eq. 6)."""

from __future__ import annotations

from typing import List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import ProtectionScheme
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.core.segments import max_lut_bits
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.quality.mse import (
    error_energies,
    mse_from_error_positions,
    mse_of_fault_map,
    word_error_energy,
)
from repro.sim.config import build_scheme


class TestWordErrorEnergy:
    def test_empty(self):
        assert word_error_energy([]) == 0.0

    def test_single_bit(self):
        assert word_error_energy([3]) == (2 ** 3) ** 2

    def test_multiple_bits_add(self):
        assert word_error_energy([0, 31]) == pytest.approx(1 + (2 ** 31) ** 2)


class TestMseFromPositions:
    def test_equation_six_single_fault(self):
        # MSE = (1/R) * (2**b)**2.
        assert mse_from_error_positions([[5]], rows=16) == (2 ** 5) ** 2 / 16

    def test_multiple_words_accumulate(self):
        value = mse_from_error_positions([[0], [1]], rows=4)
        assert value == (1 + 4) / 4

    def test_fault_free_memory_is_zero(self):
        assert mse_from_error_positions([], rows=128) == 0.0

    def test_rejects_non_positive_rows(self):
        with pytest.raises(ValueError):
            mse_from_error_positions([[1]], rows=0)

    @given(st.lists(st.integers(min_value=0, max_value=31), max_size=8))
    def test_non_negative(self, positions):
        assert mse_from_error_positions([positions], rows=64) >= 0.0


class TestMseOfFaultMap:
    def test_unprotected_single_msb_fault(self, paper_org):
        fault_map = FaultMap.from_cells(paper_org, [(0, 31)])
        mse = mse_of_fault_map(fault_map, NoProtection(32))
        assert mse == pytest.approx((2 ** 31) ** 2 / paper_org.rows)

    def test_secded_single_fault_gives_zero(self, paper_org):
        fault_map = FaultMap.from_cells(paper_org, [(0, 31)])
        assert mse_of_fault_map(fault_map, SecdedScheme(32)) == 0.0

    def test_bit_shuffle_bounds_mse(self, paper_org):
        fault_map = FaultMap.from_cells(paper_org, [(0, 31)])
        for n_fm, segment in [(1, 16), (2, 8), (3, 4), (4, 2), (5, 1)]:
            mse = mse_of_fault_map(fault_map, BitShuffleScheme(32, n_fm))
            assert mse <= (2 ** (segment - 1)) ** 2 / paper_org.rows

    def test_scheme_ordering_for_msb_fault(self, paper_org):
        """For an MSB fault: no-protection >> P-ECC-corrected == shuffle-corrected."""
        fault_map = FaultMap.from_cells(paper_org, [(0, 31)])
        unprotected = mse_of_fault_map(fault_map, NoProtection(32))
        pecc = mse_of_fault_map(fault_map, PriorityEccScheme(32))
        shuffled = mse_of_fault_map(fault_map, BitShuffleScheme(32, 1))
        assert pecc == 0.0
        assert shuffled < unprotected

    def test_pecc_lsb_fault_equals_unprotected(self, paper_org):
        fault_map = FaultMap.from_cells(paper_org, [(0, 12)])
        assert mse_of_fault_map(fault_map, PriorityEccScheme(32)) == mse_of_fault_map(
            fault_map, NoProtection(32)
        )

    def test_bit_shuffle_lower_than_pecc_for_lsb_half_fault(self, paper_org):
        # Fault at bit 15: P-ECC leaves it (error 2**15); nFM=2 shuffling
        # bounds it to 2**7.
        fault_map = FaultMap.from_cells(paper_org, [(0, 15)])
        assert mse_of_fault_map(fault_map, BitShuffleScheme(32, 2)) < mse_of_fault_map(
            fault_map, PriorityEccScheme(32)
        )

    def test_word_width_mismatch_rejected(self, paper_org):
        fault_map = FaultMap.from_cells(paper_org, [(0, 0)])
        with pytest.raises(ValueError):
            mse_of_fault_map(fault_map, NoProtection(16))

    def test_increasing_nfm_never_increases_mse(self, paper_org, rng):
        fault_map = FaultMap.random_with_count(paper_org, 20, rng)
        if fault_map.max_faults_per_row() > 1:  # pragma: no cover - extremely unlikely
            pytest.skip("multi-fault row drawn")
        values = [
            mse_of_fault_map(fault_map, BitShuffleScheme(32, n_fm))
            for n_fm in range(1, 6)
        ]
        assert values == sorted(values, reverse=True)


class PositionsOnlyScheme(ProtectionScheme):
    """Implements only the scalar analytical contract, so it has no energy
    tables and the MSE takes the scalar fallback.  Its residual positions
    depend on the row index, which pins that the fallback passes real rows."""

    @property
    def name(self) -> str:
        return "positions-only"

    @property
    def extra_columns(self) -> int:
        return 0

    def encode_word(self, row: int, data: int) -> int:
        return data

    def decode_word(self, row: int, stored: int) -> int:
        return stored

    def residual_error_positions(
        self, row: int, fault_columns: Sequence[int]
    ) -> List[int]:
        self._check_fault_columns(fault_columns)
        return [c for c in fault_columns if (row + c) % 3]


def _schemes_for(word_width: int) -> List[ProtectionScheme]:
    """Every scheme of the differential test for one word width."""
    schemes: List[ProtectionScheme] = [
        NoProtection(word_width),
        PriorityEccScheme(word_width),
        PositionsOnlyScheme(word_width),
    ]
    if word_width < 64:
        # H(72,64) codewords overflow the code's uint64 check masks.
        schemes.append(SecdedScheme(word_width))
    if word_width > 8:
        schemes.append(PriorityEccScheme(word_width, protected_bits=8))
    for n_fm in range(1, max_lut_bits(word_width) + 1):
        for policy in ("most-significant", "minimax"):
            schemes.append(
                BitShuffleScheme(word_width, n_fm, multi_fault_policy=policy)
            )
    return schemes


DIFFERENTIAL_WIDTHS = (8, 16, 32, 64)
DIFFERENTIAL_ROWS = 6
SCHEMES_BY_WIDTH = {w: _schemes_for(w) for w in DIFFERENTIAL_WIDTHS}


@st.composite
def fault_cells(draw):
    """A word width and unique fault cells in arbitrary insertion order.

    Few rows make multi-fault rows common; an empty list is an empty map.
    """
    word_width = draw(st.sampled_from(DIFFERENTIAL_WIDTHS))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=DIFFERENTIAL_ROWS - 1),
                st.integers(min_value=0, max_value=word_width - 1),
            ),
            unique=True,
            max_size=3 * DIFFERENTIAL_ROWS,
        )
    )
    return word_width, cells


def _positions_oracle(cells, scheme: ProtectionScheme, rows: int) -> float:
    """Eq. 6 through the scalar contract, rows in first-insertion order."""
    row_order = list(dict.fromkeys(row for row, _column in cells))
    positions = [
        scheme.residual_error_positions(
            row, sorted(c for r, c in cells if r == row)
        )
        for row in row_order
    ]
    return mse_from_error_positions(positions, rows)


class TestResidualErrorEnergy:
    @settings(max_examples=200, deadline=None)
    @given(fault_cells())
    def test_matches_positions_oracle_bit_for_bit(self, drawn):
        word_width, cells = drawn
        org = MemoryOrganization(rows=DIFFERENTIAL_ROWS, word_width=word_width)
        fault_map = FaultMap.from_cells(org, cells)
        for scheme in SCHEMES_BY_WIDTH[word_width]:
            expected = _positions_oracle(cells, scheme, org.rows)
            assert mse_of_fault_map(fault_map, scheme).hex() == expected.hex(), (
                scheme.name
            )

    def test_summation_follows_fault_map_row_order(self):
        # One 2**54 row and three rows of energy 1: added big-first, every 1
        # falls below half an ulp and is lost; added small-first, the 3 rounds
        # the total up to 2**54 + 4.  The float result pins the row order.
        org = MemoryOrganization(rows=4, word_width=32)
        small = [(1, 0), (2, 0), (3, 0)]
        big = [(0, 27)]
        scheme = NoProtection(32)
        big_first = mse_of_fault_map(FaultMap.from_cells(org, big + small), scheme)
        small_first = mse_of_fault_map(FaultMap.from_cells(org, small + big), scheme)
        assert big_first == 2.0 ** 54 / 4
        assert small_first == (2.0 ** 54 + 4) / 4
        for cells, value in ((big + small, big_first), (small + big, small_first)):
            assert value.hex() == _positions_oracle(cells, scheme, 4).hex()

    def test_rejects_out_of_range_columns(self):
        # error_energies leaves the word-width check to its caller, so maps
        # of a wider word reach it with columns outside the scheme's word:
        # a lone die, a batch with a lone-fault row, a batch with a shared row.
        wide = MemoryOrganization(rows=DIFFERENTIAL_ROWS, word_width=64)
        empty = FaultMap.empty(wide)
        for fault_maps in (
            [FaultMap.from_cells(wide, [(0, 32)])],
            [empty, FaultMap.from_cells(wide, [(1, 3), (2, 33)])],
            [empty, FaultMap.from_cells(wide, [(1, 3), (0, 40), (0, 4)])],
        ):
            for scheme in SCHEMES_BY_WIDTH[32]:
                with pytest.raises(ValueError):
                    error_energies(fault_maps, [scheme])


@st.composite
def fault_map_batches(draw):
    """A word width and a batch of dies of it, each with its own row count.

    Dies differ in how many faulty rows they have (the grid's padding) and
    in ``R``; fault-free dies and multi-fault rows are common.
    """
    word_width = draw(st.sampled_from(DIFFERENTIAL_WIDTHS))
    dies = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        rows = draw(st.integers(min_value=1, max_value=DIFFERENTIAL_ROWS))
        cells = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=rows - 1),
                    st.integers(min_value=0, max_value=word_width - 1),
                ),
                unique=True,
                max_size=3 * rows,
            )
        )
        dies.append((rows, cells))
    return word_width, dies


class TestBatchedMse:
    @settings(max_examples=200, deadline=None)
    @given(fault_map_batches())
    def test_batch_matches_positions_oracle_bit_for_bit(self, drawn):
        word_width, dies = drawn
        schemes = SCHEMES_BY_WIDTH[word_width]
        fault_maps = [
            FaultMap.from_cells(
                MemoryOrganization(rows=rows, word_width=word_width), cells
            )
            for rows, cells in dies
        ]
        batch = mse_of_fault_map(fault_maps, schemes)
        assert batch.shape == (len(dies), len(schemes))
        for die, (rows, cells) in enumerate(dies):
            for index, scheme in enumerate(schemes):
                expected = _positions_oracle(cells, scheme, rows)
                assert float(batch[die, index]).hex() == expected.hex(), (
                    scheme.name
                )

    def test_long_dies_sum_left_to_right(self):
        # A 2**54 row then sixteen rows of energy 1: strictly left to right
        # every 1 is lost, while a pairwise or blocked sum keeps some.  The
        # short second die pads the first's grid row.
        org = MemoryOrganization(rows=32, word_width=32)
        cells = [(0, 27)] + [(row, 0) for row in range(1, 17)]
        dies = [FaultMap.from_cells(org, cells), FaultMap.from_cells(org, [(3, 1)])]
        batch = mse_of_fault_map(dies, [NoProtection(32)])
        assert batch[0, 0] == 2.0 ** 54 / 32
        assert float(batch[0, 0]).hex() == _positions_oracle(
            cells, NoProtection(32), 32
        ).hex()
        assert batch[1, 0] == 4.0 / 32

    def test_one_map_many_schemes_is_one_row(self, paper_org):
        fault_map = FaultMap.from_cells(paper_org, [(0, 31), (0, 2), (5, 20)])
        schemes = [NoProtection(32), SecdedScheme(32), BitShuffleScheme(32, 2)]
        batch = mse_of_fault_map(fault_map, schemes)
        assert batch.shape == (1, 3)
        assert batch[0].tolist() == [
            mse_of_fault_map(fault_map, scheme) for scheme in schemes
        ]

    def test_one_shot_iterables_are_read_once(self, paper_org):
        fault_maps = [
            FaultMap.from_cells(paper_org, [(0, 31), (0, 2)]),
            FaultMap.from_cells(paper_org, [(7, 4)]),
        ]
        schemes = [NoProtection(32), BitShuffleScheme(32, 2)]
        batch = mse_of_fault_map(iter(fault_maps), (s for s in schemes))
        assert batch.tolist() == mse_of_fault_map(fault_maps, schemes).tolist()
        assert batch.shape == (2, 2)

    def test_word_width_mismatch_rejected_in_a_batch(self, paper_org):
        wide = FaultMap.from_cells(paper_org, [(0, 0)])
        narrow = FaultMap.from_cells(
            MemoryOrganization(rows=8, word_width=16), [(0, 0)]
        )
        with pytest.raises(ValueError):
            mse_of_fault_map([wide, wide], [NoProtection(32), NoProtection(16)])
        with pytest.raises(ValueError):
            mse_of_fault_map([wide, narrow], [NoProtection(32)])


SHARED_ORG = MemoryOrganization(rows=8, word_width=8)
#: Fig. 5's schemes for an 8-bit word, plus one without energy tables.
SHARED_SCHEMES = [
    build_scheme(spec, SHARED_ORG.word_width)
    for spec in ("no-protection", "p-ecc")
    + tuple(
        f"bit-shuffle-nfm{n_fm}"
        for n_fm in range(1, max_lut_bits(SHARED_ORG.word_width) + 1)
    )
] + [PositionsOnlyScheme(SHARED_ORG.word_width)]
SHARED_ROW = st.integers(min_value=0, max_value=SHARED_ORG.rows - 1)
SHARED_COLUMN = st.integers(min_value=0, max_value=SHARED_ORG.word_width - 1)


@st.composite
def shared_row_dies(draw):
    """Cell lists of an 8 x 8 memory's dies, in insertion order.

    Each die is fault-free, has its faults in distinct rows, or puts two or
    three faults in one row among others.
    """
    dies = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        layout = draw(st.sampled_from(("fault-free", "distinct", "shared")))
        if layout == "fault-free":
            cells = []
        elif layout == "distinct":
            rows = draw(
                st.lists(SHARED_ROW, unique=True, min_size=1, max_size=SHARED_ORG.rows)
            )
            cells = [(row, draw(SHARED_COLUMN)) for row in rows]
        else:
            row = draw(SHARED_ROW)
            columns = draw(st.lists(SHARED_COLUMN, unique=True, min_size=2, max_size=3))
            shared = [(row, column) for column in columns]
            others = draw(
                st.lists(st.tuples(SHARED_ROW, SHARED_COLUMN), unique=True, max_size=6)
            )
            cells = draw(
                st.permutations(shared + [c for c in others if c not in shared])
            )
        dies.append(cells)
    return dies


class TestRowGrouping:
    @settings(max_examples=200, deadline=None)
    @given(shared_row_dies())
    def test_batch_matches_positions_oracle_bit_for_bit(self, dies):
        fault_maps = [FaultMap.from_cells(SHARED_ORG, cells) for cells in dies]
        batch = mse_of_fault_map(fault_maps, SHARED_SCHEMES)
        assert batch.shape == (len(dies), len(SHARED_SCHEMES))
        for die, cells in enumerate(dies):
            for index, scheme in enumerate(SHARED_SCHEMES):
                expected = _positions_oracle(cells, scheme, SHARED_ORG.rows)
                assert float(batch[die, index]).hex() == expected.hex(), (
                    scheme.name
                )
