"""Persistent per-die fault maps with stuck-at semantics.

Once a memory is manufactured, the number and location of variation-induced
bit-cell failures is persistent (Section 2 of the paper).  A
:class:`FaultMap` records exactly which cells of a die are faulty and how they
misbehave, and is the single source of truth consumed by

* the SRAM array model (to corrupt stored data),
* BIST (which rediscovers the faults at test time),
* the protection schemes (which program their FM-LUT from BIST results), and
* the analytical yield model (which only needs fault *positions*).

Two fault behaviours are modelled:

``STUCK_AT_ZERO`` / ``STUCK_AT_ONE``
    The cell always reads the stuck value regardless of what was written.
``BIT_FLIP``
    The cell returns the complement of the written value.  This is the
    conservative model used by the paper's Monte-Carlo fault injection
    ("random bit-flips were injected"), because a stuck-at fault only
    manifests for half of the stored values while a flip always does.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.memory.organization import MemoryOrganization

__all__ = ["FaultKind", "FaultSite", "FaultMap"]


class FaultKind(str, Enum):
    """Behaviour of a faulty bit-cell."""

    STUCK_AT_ZERO = "stuck_at_zero"
    STUCK_AT_ONE = "stuck_at_one"
    BIT_FLIP = "bit_flip"


@dataclass(frozen=True)
class FaultSite:
    """A single faulty bit-cell: its row, bit position within the word, and kind."""

    row: int
    column: int
    kind: FaultKind = FaultKind.BIT_FLIP

    def __post_init__(self) -> None:
        if self.row < 0:
            raise ValueError(f"row must be non-negative, got {self.row}")
        if self.column < 0:
            raise ValueError(f"column must be non-negative, got {self.column}")
        object.__setattr__(self, "kind", FaultKind(self.kind))


class FaultMap:
    """The set of faulty cells of one manufactured memory die.

    The map is immutable from the perspective of the memory model (faults are
    persistent); construction-time helpers generate random maps according to a
    cell-failure probability or an exact failure count, matching the paper's
    Monte-Carlo methodology.  Faults are one ``(row, column) -> FaultKind``
    table in insertion order; only accessors build :class:`FaultSite` objects.
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        faults: Iterable[FaultSite] = (),
    ) -> None:
        self._organization = organization
        by_cell: Dict[Tuple[int, int], FaultKind] = {}
        for fault in faults:
            organization.check_row(fault.row)
            organization.check_column(fault.column)
            key = (fault.row, fault.column)
            if key in by_cell:
                raise ValueError(
                    f"duplicate fault at row {fault.row}, column {fault.column}"
                )
            by_cell[key] = fault.kind
        self._faults = by_cell

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def organization(self) -> MemoryOrganization:
        """Geometry of the die this fault map describes."""
        return self._organization

    @property
    def fault_count(self) -> int:
        """Total number of faulty cells ``N`` in the die."""
        return len(self._faults)

    def __len__(self) -> int:
        return self.fault_count

    def __iter__(self) -> Iterator[FaultSite]:
        return (FaultSite(r, c, kind) for (r, c), kind in sorted(self._faults.items()))

    def __contains__(self, cell: Tuple[int, int]) -> bool:
        return tuple(cell) in self._faults

    def fault_at(self, row: int, column: int) -> Optional[FaultSite]:
        """Return the fault at ``(row, column)`` or ``None`` if the cell is healthy."""
        kind = self._faults.get((row, column))
        return None if kind is None else FaultSite(row, column, kind)

    def faults_in_row(self, row: int) -> List[FaultSite]:
        """All faults located in ``row``, sorted by bit position."""
        self._organization.check_row(row)
        in_row = ((c, kind) for (r, c), kind in self._faults.items() if r == row)
        return [FaultSite(row, c, kind) for c, kind in sorted(in_row)]

    def faulty_rows(self) -> List[int]:
        """Sorted list of rows containing at least one faulty cell."""
        return sorted({r for (r, _c) in self._faults})

    def faulty_columns_by_row(self) -> Dict[int, List[int]]:
        """Mapping row -> sorted faulty bit positions, for rows with faults only.

        Rows appear in the order their first fault was added to the map; that
        order is the summation order of the Eq. 6 MSE.
        """
        result: Dict[int, List[int]] = {}
        for row, column in self._faults:
            if row in result:
                insort(result[row], column)
            else:
                result[row] = [column]
        return result

    def max_faults_per_row(self) -> int:
        """Largest number of faulty cells sharing a single row (0 if fault-free)."""
        by_row = self.faulty_columns_by_row()
        if not by_row:
            return 0
        return max(len(columns) for columns in by_row.values())

    def bit_positions(self) -> np.ndarray:
        """Bit positions (column indices) of all faults, one entry per fault.

        Enough for the analytical MSE (Eq. 6) only while every faulty row holds
        a single fault: ECC and multi-fault bit-shuffle rows depend on which
        faults share a row, so the MSE reads :meth:`faulty_columns_by_row`.
        """
        return np.array(sorted(c for _r, c in self._faults), dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Application of faults to data
    # ------------------------------------------------------------------ #
    def corrupt_word(self, row: int, pattern: int) -> int:
        """Return the pattern that a read of ``row`` would observe for stored ``pattern``.

        Applies each fault in the row according to its :class:`FaultKind`.
        """
        self._organization.check_row(row)
        width = self._organization.word_width
        if pattern < 0 or pattern >> width:
            raise ValueError(f"pattern does not fit in {width} bits")
        corrupted = pattern
        for fault in self.faults_in_row(row):
            bit = 1 << fault.column
            if fault.kind is FaultKind.STUCK_AT_ZERO:
                corrupted &= ~bit
            elif fault.kind is FaultKind.STUCK_AT_ONE:
                corrupted |= bit
            else:  # BIT_FLIP
                corrupted ^= bit
        return corrupted

    def flip_masks(self) -> np.ndarray:
        """Per-row XOR masks for ``BIT_FLIP`` faults (vectorised corruption).

        Only meaningful when every fault is a ``BIT_FLIP``; stuck-at faults are
        data-dependent and cannot be expressed as a fixed XOR mask.
        """
        masks = np.zeros(self._organization.rows, dtype=np.uint64)
        for (row, column), kind in self._faults.items():
            if kind is not FaultKind.BIT_FLIP:
                raise ValueError("flip_masks() requires a pure bit-flip fault map")
            masks[row] |= np.uint64(1 << column)
        return masks

    def corruption_masks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row ``(and, or, xor)`` masks expressing every fault kind at once.

        A read of row ``r`` observes ``((pattern & and[r]) | or[r]) ^ xor[r]``:
        stuck-at-zero cells are cleared by the AND mask, stuck-at-one cells set
        by the OR mask, and bit-flip cells inverted by the XOR mask.  Each cell
        carries at most one fault, so the three masks never overlap and the
        composition is exact for any mix of fault kinds.
        """
        rows = self._organization.rows
        word_mask = np.uint64((1 << self._organization.word_width) - 1)
        and_masks = np.full(rows, word_mask, dtype=np.uint64)
        or_masks = np.zeros(rows, dtype=np.uint64)
        xor_masks = np.zeros(rows, dtype=np.uint64)
        for (row, column), kind in self._faults.items():
            bit = np.uint64(1 << column)
            if kind is FaultKind.STUCK_AT_ZERO:
                and_masks[row] &= ~bit
            elif kind is FaultKind.STUCK_AT_ONE:
                or_masks[row] |= bit
            else:  # BIT_FLIP
                xor_masks[row] |= bit
        return and_masks, or_masks, xor_masks

    def corrupt_words(self, rows: np.ndarray, patterns: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`corrupt_word` over parallel row/pattern arrays.

        ``rows`` selects the per-row fault masks for each pattern; the masks
        are built on each call, so a map holds only its cell table.
        """
        rows = np.asarray(rows, dtype=np.int64)
        patterns = np.asarray(patterns, dtype=np.uint64)
        if rows.shape != patterns.shape:
            raise ValueError("rows and patterns must have equal shapes")
        word_mask = np.uint64((1 << self._organization.word_width) - 1)
        if patterns.size and np.any(patterns > word_mask):
            raise ValueError(
                f"pattern does not fit in {self._organization.word_width} bits"
            )
        if rows.size and (
            rows.min() < 0 or rows.max() >= self._organization.rows
        ):
            raise IndexError(
                f"row index out of range [0, {self._organization.rows})"
            )
        and_masks, or_masks, xor_masks = self.corruption_masks()
        from repro.kernels import active_backend

        return active_backend().apply_corruption_masks(
            patterns, rows, and_masks, or_masks, xor_masks
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, organization: MemoryOrganization) -> "FaultMap":
        """A fault-free die."""
        return cls(organization, ())

    @classmethod
    def from_cells(
        cls,
        organization: MemoryOrganization,
        cells: Sequence[Tuple[int, int]],
        kind: FaultKind = FaultKind.BIT_FLIP,
    ) -> "FaultMap":
        """Build a map from explicit ``(row, column)`` cell coordinates."""
        return cls(organization, (FaultSite(r, c, kind) for r, c in cells))

    @classmethod
    def from_cell_arrays(
        cls,
        organization: MemoryOrganization,
        rows: np.ndarray,
        columns: np.ndarray,
        kind: FaultKind = FaultKind.BIT_FLIP,
    ) -> "FaultMap":
        """Build a map from parallel row/column index arrays.

        The arrays are converted to Python lists once, and the bounds and
        duplicate checks run over those lists: for the handful of cells a
        Monte-Carlo map holds, that is cheaper than per-array NumPy
        reductions.  The result is identical to :meth:`from_cells` over
        ``zip(rows, columns)``, in the same insertion order.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        columns = np.asarray(columns, dtype=np.int64).ravel()
        if rows.shape != columns.shape:
            raise ValueError("rows and columns must have equal shapes")
        return cls._from_cell_lists(
            organization, rows.tolist(), columns.tolist(), kind
        )

    @classmethod
    def _from_cell_lists(
        cls,
        organization: MemoryOrganization,
        rows: List[int],
        columns: List[int],
        kind: FaultKind,
    ) -> "FaultMap":
        """:meth:`from_cell_arrays` over equal-length lists of Python ints."""
        if rows:
            if min(rows) < 0 or max(rows) >= organization.rows:
                raise IndexError(
                    f"row out of range [0, {organization.rows})"
                )
            if min(columns) < 0 or max(columns) >= organization.word_width:
                raise IndexError(
                    f"column out of range [0, {organization.word_width})"
                )
        faults = dict.fromkeys(zip(rows, columns), FaultKind(kind))
        if len(faults) != len(rows):
            raise ValueError("duplicate fault cell in rows/columns arrays")
        # Establish every instance invariant through the canonical
        # constructor, then install the already-validated faults directly.
        fault_map = cls(organization, ())
        fault_map._faults = faults
        return fault_map

    @classmethod
    def random_with_count(
        cls,
        organization: MemoryOrganization,
        fault_count: int,
        rng: np.random.Generator,
        kind: FaultKind = FaultKind.BIT_FLIP,
    ) -> "FaultMap":
        """Draw exactly ``fault_count`` faulty cells uniformly without replacement.

        This mirrors the paper's fault-injection procedure: "generating maps of
        random bit-flip locations for each failure count".
        """
        if fault_count < 0:
            raise ValueError("fault_count must be non-negative")
        total = organization.total_cells
        if fault_count > total:
            raise ValueError(
                f"cannot place {fault_count} faults in a memory of {total} cells"
            )
        flat = rng.choice(total, size=fault_count, replace=False).tolist()
        width = organization.word_width
        return cls._from_cell_lists(
            organization,
            [cell // width for cell in flat],
            [cell % width for cell in flat],
            kind,
        )

    @classmethod
    def random_batch_with_count(
        cls,
        organization: MemoryOrganization,
        fault_count: int,
        batch_size: int,
        rng: np.random.Generator,
        kind: FaultKind = FaultKind.BIT_FLIP,
        max_faults_per_word: Optional[int] = None,
        max_rounds: int = 1000,
        *,
        vectorized: bool = True,
    ) -> List["FaultMap"]:
        """Draw a whole batch of uniform ``fault_count``-fault maps in NumPy.

        All ``batch_size`` maps are drawn with a vectorised rejection sampler:
        candidate cell indices are drawn with replacement as one
        ``(pending, fault_count)`` matrix, and any map containing a repeated
        cell -- or, when ``max_faults_per_word`` is given, more faults in one
        word row than allowed -- is redrawn until every map is valid.  Each
        accepted map is uniform over the same support a per-map
        without-replacement draw (plus rejection of over-full words) would
        produce, but the whole batch costs a few NumPy passes instead of a
        Python loop per cell.

        ``vectorized=False`` (and, automatically, densely faulty maps for
        which with-replacement rejection would stall) instead draws each map
        separately without replacement -- the exact per-map stream of repeated
        :meth:`random_with_count` calls with per-map rejection, which
        stream-pinned legacy callers rely on.

        The draw sequence is fully determined by ``rng``, so a seeded
        generator yields a reproducible batch regardless of platform.  Raises
        :class:`RuntimeError` if some maps are still invalid after
        ``max_rounds`` redraw rounds and :class:`ValueError` when the request
        is infeasible outright (more faults than cells, or than
        ``max_faults_per_word`` allows).
        """
        if fault_count < 0:
            raise ValueError("fault_count must be non-negative")
        if batch_size < 0:
            raise ValueError("batch_size must be non-negative")
        total = organization.total_cells
        width = organization.word_width
        if fault_count > total:
            raise ValueError(
                f"cannot place {fault_count} faults in a memory of {total} cells"
            )
        if max_faults_per_word is not None:
            if max_faults_per_word < 1:
                raise ValueError("max_faults_per_word must be at least 1")
            if fault_count > organization.rows * min(max_faults_per_word, width):
                raise ValueError(
                    f"cannot place {fault_count} faults with at most "
                    f"{max_faults_per_word} per word in {organization.rows} rows"
                )
        if batch_size == 0:
            return []
        # With-replacement rejection is efficient while collisions are rare
        # (fault_count**2 << total_cells, the Monte-Carlo regime of the
        # paper); densely faulty maps fall back to per-map exact draws, and
        # vectorized=False requests them explicitly for stream compatibility.
        if not vectorized or fault_count * fault_count > total:
            return cls._random_batch_dense(
                organization, fault_count, batch_size, rng, kind,
                max_faults_per_word, max_rounds,
            )
        if fault_count == 0:
            return [cls.empty(organization) for _ in range(batch_size)]
        from repro.kernels import active_backend

        accepted = np.empty((batch_size, fault_count), dtype=np.int64)
        pending = np.arange(batch_size)
        for _ in range(max_rounds):
            if pending.size == 0:
                break
            # Only the validity check is kernelised; the draws themselves
            # stay in NumPy so the rng stream -- and with it every seeded
            # result -- is identical across backends.
            draws = rng.integers(0, total, size=(pending.size, fault_count))
            bad = active_backend().invalid_map_mask(
                np.ascontiguousarray(draws, dtype=np.int64),
                width,
                max_faults_per_word,
            )
            good = ~bad
            accepted[pending[good]] = draws[good]
            pending = pending[bad]
        if pending.size:
            raise RuntimeError(
                f"could not draw {pending.size} valid fault maps after "
                f"{max_rounds} rounds; relax max_faults_per_word or lower "
                f"fault_count"
            )
        return [
            cls._from_cell_lists(
                organization,
                [cell // width for cell in flat],
                [cell % width for cell in flat],
                kind,
            )
            for flat in accepted.tolist()
        ]

    @classmethod
    def _random_batch_dense(
        cls,
        organization: MemoryOrganization,
        fault_count: int,
        batch_size: int,
        rng: np.random.Generator,
        kind: FaultKind,
        max_faults_per_word: Optional[int],
        max_rounds: int,
    ) -> List["FaultMap"]:
        """Per-map without-replacement fallback for densely faulty batches."""
        maps: List["FaultMap"] = []
        for _ in range(batch_size):
            for _attempt in range(max_rounds):
                candidate = cls.random_with_count(
                    organization, fault_count, rng, kind=kind
                )
                if (
                    max_faults_per_word is None
                    or candidate.max_faults_per_row() <= max_faults_per_word
                ):
                    maps.append(candidate)
                    break
            else:
                raise RuntimeError(
                    f"could not draw a fault map with at most "
                    f"{max_faults_per_word} faults per word after "
                    f"{max_rounds} attempts"
                )
        return maps

    @classmethod
    def random_with_pcell(
        cls,
        organization: MemoryOrganization,
        p_cell: float,
        rng: np.random.Generator,
        kind: FaultKind = FaultKind.BIT_FLIP,
    ) -> "FaultMap":
        """Draw a die where every cell independently fails with probability ``p_cell``."""
        if not 0.0 <= p_cell <= 1.0:
            raise ValueError("p_cell must be a probability in [0, 1]")
        count = int(rng.binomial(organization.total_cells, p_cell))
        return cls.random_with_count(organization, count, rng, kind=kind)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (used to persist BIST results)."""
        return {
            "rows": self._organization.rows,
            "word_width": self._organization.word_width,
            "faults": [
                {"row": row, "column": column, "kind": kind.value}
                for (row, column), kind in sorted(self._faults.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultMap":
        """Inverse of :meth:`to_dict`."""
        organization = MemoryOrganization(
            rows=int(data["rows"]), word_width=int(data["word_width"])
        )
        faults = [
            FaultSite(int(f["row"]), int(f["column"]), f["kind"])
            for f in data["faults"]  # type: ignore[index]
        ]
        return cls(organization, faults)

    def to_json(self) -> str:
        """Serialise the map to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "FaultMap":
        """Deserialise a map produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultMap({self._organization.rows}x{self._organization.word_width}, "
            f"{self.fault_count} faults)"
        )
