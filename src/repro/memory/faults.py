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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, KeysView, List, Mapping, Optional, Sequence, Tuple

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


def _invalid_map_mask(
    draws: np.ndarray, width: int, max_faults_per_word: Optional[int]
) -> np.ndarray:
    """Validity check of one redraw round: which candidate maps must be redrawn.

    ``draws`` is the ``(maps, fault_count)`` int64 matrix of flat cell indices
    drawn with replacement; a map is invalid when it repeats a cell or (with
    ``max_faults_per_word``) packs more faults into one ``width``-bit word
    than allowed.  Returns a bool array per map.  Maps hold at least one
    fault: the sampler returns fault-free maps without drawing.
    """
    n_maps, fault_count = draws.shape
    draws_sorted = np.sort(draws, axis=1)
    bad = np.zeros(n_maps, dtype=bool)
    # Repeated cell within a map -> invalid (uniformity requires
    # exactly fault_count distinct cells).
    bad |= np.any(draws_sorted[:, 1:] == draws_sorted[:, :-1], axis=1)
    if max_faults_per_word is not None:
        rows_sorted = np.sort(draws // width, axis=1)
        # After sorting, faults sharing a word form runs of equal row
        # indices; the longest run is the per-word maximum.
        equal_neighbours = rows_sorted[:, 1:] == rows_sorted[:, :-1]
        if max_faults_per_word == 1:
            bad |= np.any(equal_neighbours, axis=1)
        else:
            run_len = np.ones((n_maps, fault_count), dtype=np.int64)
            for j in range(1, fault_count):
                run_len[:, j] = np.where(
                    equal_neighbours[:, j - 1], run_len[:, j - 1] + 1, 1
                )
            bad |= run_len.max(axis=1) > max_faults_per_word
    return bad


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

    def cells(self) -> KeysView[Tuple[int, int]]:
        """The faulty ``(row, column)`` cells in insertion order (a read-only view)."""
        return self._faults.keys()

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
        order is the summation order of the Eq. 6 MSE.  Built in one pass:
        columns are appended per row, and only rows holding more than one
        fault are sorted afterwards.
        """
        result: Dict[int, List[int]] = {}
        shared: List[int] = []
        for row, column in self._faults:
            if row in result:
                result[row].append(column)
                shared.append(row)
            else:
                result[row] = [column]
        for row in shared:
            result[row].sort()
        return result

    def row_masks(self) -> Dict[int, List[int]]:
        """Per faulty row, its ``[stuck-at-zero, stuck-at-one, bit-flip]`` cells.

        Each entry is a bit set held in a Python int; rows appear in the order
        of :meth:`faulty_columns_by_row`.  This is what every mask builder
        reads, so a die's masks cost one pass over its faults.
        """
        bit_flip, stuck_at_one = FaultKind.BIT_FLIP, FaultKind.STUCK_AT_ONE
        masks: Dict[int, List[int]] = {}
        for (row, column), kind in self._faults.items():
            row_masks = masks.get(row)
            if row_masks is None:
                row_masks = masks[row] = [0, 0, 0]
            if kind is bit_flip:
                row_masks[2] |= 1 << column
            elif kind is stuck_at_one:
                row_masks[1] |= 1 << column
            else:  # STUCK_AT_ZERO
                row_masks[0] |= 1 << column
        return masks

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
        This is the word-at-a-time reference for the batched corruption that
        :class:`~repro.sim.faulty_storage.DieDatapath` builds from
        :meth:`row_masks`.
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
        rows, columns = rows.tolist(), columns.tolist()
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
    def _from_drawn_cells(
        cls,
        organization: MemoryOrganization,
        drawn: np.ndarray,
        kind: FaultKind,
    ) -> List["FaultMap"]:
        """One map per row of ``drawn``, a ``(maps, count)`` array of flat cells.

        The one way drawn cells become maps.  Flat cell ``i`` is row
        ``i // word_width``, column ``i % word_width``, and each map keeps
        its cells in draw order.  The whole array is range-checked and split
        into rows and columns at once; each map then costs one dict, whose
        length still catches a repeated cell, and skips :meth:`__init__`:
        both instance attributes are set here.
        """
        total = organization.total_cells
        if drawn.size and (drawn.min() < 0 or drawn.max() >= total):
            raise IndexError(f"drawn cell out of range [0, {total})")
        width = organization.word_width
        kind = FaultKind(kind)
        maps: List["FaultMap"] = []
        for rows, columns in zip((drawn // width).tolist(), (drawn % width).tolist()):
            faults = dict.fromkeys(zip(rows, columns), kind)
            if len(faults) != len(rows):
                raise ValueError("duplicate fault cell in a drawn map")
            fault_map = cls.__new__(cls)
            fault_map._organization = organization
            fault_map._faults = faults
            maps.append(fault_map)
        return maps

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
        flat = rng.choice(total, size=fault_count, replace=False)
        return cls._from_drawn_cells(organization, flat[np.newaxis], kind)[0]

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
        accepted = np.empty((batch_size, fault_count), dtype=np.int64)
        pending = np.arange(batch_size)
        for _ in range(max_rounds):
            if pending.size == 0:
                break
            draws = rng.integers(0, total, size=(pending.size, fault_count))
            bad = _invalid_map_mask(draws, width, max_faults_per_word)
            good = ~bad
            accepted[pending[good]] = draws[good]
            pending = pending[bad]
        if pending.size:
            raise RuntimeError(
                f"could not draw {pending.size} valid fault maps after "
                f"{max_rounds} rounds; relax max_faults_per_word or lower "
                f"fault_count"
            )
        return cls._from_drawn_cells(organization, accepted, kind)

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
        """Per-map without-replacement draws: the legacy stream of a stratum.

        Each map is one ``rng.choice(total_cells, fault_count,
        replace=False)`` -- the draw of :meth:`random_with_count` -- written
        into its row of one ``(batch_size, fault_count)`` array.  With
        ``max_faults_per_word``, a candidate with more faults in one word row
        is redrawn, up to ``max_rounds`` times.  The whole stratum then
        becomes maps in one :meth:`_from_drawn_cells` call.
        """
        total, width = organization.total_cells, organization.word_width
        drawn = np.empty((batch_size, fault_count), dtype=np.int64)
        for index in range(batch_size):
            for _attempt in range(max_rounds):
                candidate = rng.choice(total, size=fault_count, replace=False)
                if max_faults_per_word is None or max(
                    Counter(cell // width for cell in candidate.tolist()).values(),
                    default=0,
                ) <= max_faults_per_word:
                    drawn[index] = candidate
                    break
            else:
                raise RuntimeError(
                    f"could not draw a fault map with at most "
                    f"{max_faults_per_word} faults per word after "
                    f"{max_rounds} attempts"
                )
        return cls._from_drawn_cells(organization, drawn, kind)

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
