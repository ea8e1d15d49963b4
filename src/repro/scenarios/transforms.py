"""Fault transforms: population reshaping stages of a scenario pipeline.

:class:`ClusterTransform` models spatially correlated defects: instead of
scattering a die's ``N`` faults uniformly (the i.i.d. assumption behind
Eq. 3), the faults are regrouped into contiguous *bursts* -- runs of adjacent
cells along a word line (row burst: one row, consecutive bit positions) or
along a bit line (column burst: one bit position, consecutive rows).  Such
clustering is the signature of lithographic/etch defects and of shared
peripheral circuitry failing, and it stresses the protection schemes very
differently from i.i.d. cells: a row burst concentrates several faults in a
single word, while a column burst aligns faults at the same significance
across many words.

The transform is conditioned on the stratum's fault count: it preserves the
exact number of faults of every input map and only re-places them, so the
stratified ``Pr(N = n)`` weighting of the Monte-Carlo sweep stays valid
unchanged.

Two implementations are provided; ``tests/test_scenarios.py`` checks that they
draw the same distribution, and ``benchmarks/bench_scenarios.py`` gates the
vectorized one at >= 10x the reference:

* the default *vectorized* sampler draws whole batches of burst layouts as a
  few NumPy passes with rejection of colliding clusters;
* ``vectorized=False`` runs the straightforward per-map/per-cluster Python
  reference.  The two are distributionally identical (same burst geometry,
  same rejection rule) but consume the generator differently, so their
  streams are not interchangeable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.memory.faults import FaultKind, FaultMap
from repro.memory.organization import MemoryOrganization
from repro.scenarios.base import DEFAULT_MAX_ROUNDS, FaultTransform

__all__ = ["ClusterTransform"]


class ClusterTransform(FaultTransform):
    """Regroup each map's faults into row/column bursts of ``cluster_size``.

    Parameters
    ----------
    cluster_size:
        Target burst length.  A map with ``N`` faults is placed as
        ``ceil(N / cluster_size)`` bursts; all but the last have exactly
        ``cluster_size`` cells.
    row_fraction:
        Probability that a burst runs along a row (word line); the remainder
        run along a column (bit line).  When one orientation is infeasible
        (the burst does not fit that way, or row bursts would exceed the
        sweep's ``max_faults_per_word`` limit), a mixed fraction restricts to
        the feasible orientation; an explicit ``0.0`` or ``1.0`` request is
        never silently inverted and fails loudly instead.
    """

    #: The transform re-places every cell; the pipeline skips the source's
    #: placement work for batches it leads.
    replaces_layout = True

    def __init__(self, cluster_size: int = 4, row_fraction: float = 0.5) -> None:
        if cluster_size < 1:
            raise ValueError("cluster_size must be at least 1")
        if not 0.0 <= row_fraction <= 1.0:
            raise ValueError("row_fraction must be in [0, 1]")
        self._cluster_size = int(cluster_size)
        self._row_fraction = float(row_fraction)

    @property
    def cluster_size(self) -> int:
        """Target burst length."""
        return self._cluster_size

    @property
    def row_fraction(self) -> float:
        """Probability of a burst running along a row."""
        return self._row_fraction

    # ------------------------------------------------------------------ #
    # Batch application
    # ------------------------------------------------------------------ #
    def apply_batch(
        self,
        maps: List[FaultMap],
        rng: np.random.Generator,
        *,
        max_faults_per_word: Optional[int] = None,
        vectorized: bool = True,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> List[FaultMap]:
        if not maps:
            return []
        organization = maps[0].organization
        out: List[FaultMap] = []
        # Stratified batches share one fault count; group contiguous runs of
        # equal counts so mixed batches still vectorise per group.
        start = 0
        while start < len(maps):
            count = maps[start].fault_count
            end = start
            while end < len(maps) and maps[end].fault_count == count:
                end += 1
            cells = self.sample_cells(
                organization,
                count,
                end - start,
                rng,
                max_faults_per_word=max_faults_per_word,
                vectorized=vectorized,
                max_rounds=max_rounds,
            )
            # Kind is resolved per map: maps sharing a count may still carry
            # different (uniform) kinds, and each keeps its own.
            out.extend(
                FaultMap.from_cell_arrays(
                    organization, rows, columns, self._batch_kind(fault_map)
                )
                for fault_map, (rows, columns) in zip(maps[start:end], cells)
            )
            start = end
        return out

    @staticmethod
    def _batch_kind(fault_map: FaultMap) -> FaultKind:
        """Fault behaviour carried over to the re-placed cells.

        Re-placement cannot meaningfully redistribute a *mixed* kind
        population (which kind lands where would be arbitrary), so mixed
        input maps are rejected rather than silently collapsed to one kind.
        """
        kinds = {site.kind for site in fault_map}
        if len(kinds) > 1:
            raise ValueError(
                "ClusterTransform cannot re-place a mixed-kind fault map; "
                f"got kinds {sorted(k.value for k in kinds)}"
            )
        return kinds.pop() if kinds else FaultKind.BIT_FLIP

    # ------------------------------------------------------------------ #
    # Burst layout sampling
    # ------------------------------------------------------------------ #
    def _cluster_lengths(self, fault_count: int) -> np.ndarray:
        size = min(self._cluster_size, fault_count)
        n_clusters = math.ceil(fault_count / size)
        lengths = np.full(n_clusters, size, dtype=np.int64)
        lengths[-1] = fault_count - size * (n_clusters - 1)
        return lengths

    def _effective_row_fraction(
        self,
        organization: MemoryOrganization,
        lengths: np.ndarray,
        max_faults_per_word: Optional[int],
    ) -> float:
        """Resolve orientation feasibility into a usable row-burst probability.

        A *mixed* ``row_fraction`` (strictly between 0 and 1) restricts to
        whichever orientation remains feasible.  An *explicit* orientation
        request (exactly 0.0 or 1.0) is never silently inverted: if that
        orientation is infeasible -- the burst does not fit, or row bursts
        would exceed ``max_faults_per_word`` -- the transform fails loudly.
        """
        longest = int(lengths.max())
        row_ok = longest <= organization.word_width and (
            max_faults_per_word is None or longest <= max_faults_per_word
        )
        column_ok = longest <= organization.rows
        fraction = self._row_fraction
        if 0.0 < fraction < 1.0:
            if not row_ok:
                fraction = 0.0
            elif not column_ok:
                fraction = 1.0
        infeasible = (fraction == 0.0 and not column_ok) or (
            fraction == 1.0 and not row_ok
        )
        if infeasible:
            orientation = "column" if fraction == 0.0 else "row"
            raise ValueError(
                f"cannot place {orientation} bursts of length {longest} in a "
                f"{organization.rows}x{organization.word_width} memory"
                + (
                    f" with at most {max_faults_per_word} faults per word"
                    if max_faults_per_word is not None
                    else ""
                )
            )
        return fraction

    def sample_cells(
        self,
        organization: MemoryOrganization,
        fault_count: int,
        batch_size: int,
        rng: np.random.Generator,
        *,
        max_faults_per_word: Optional[int] = None,
        vectorized: bool = True,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Draw ``batch_size`` burst layouts of exactly ``fault_count`` cells.

        Returns one ``(rows, columns)`` index-array pair per map.  Layouts in
        which two bursts collide (duplicate cell) or which violate
        ``max_faults_per_word`` are rejected and redrawn, so every accepted
        layout is uniform over the valid burst placements.
        """
        if fault_count < 0:
            raise ValueError("fault_count must be non-negative")
        if batch_size < 0:
            raise ValueError("batch_size must be non-negative")
        if batch_size == 0:
            return []
        empty = np.empty(0, dtype=np.int64)
        if fault_count == 0:
            return [(empty, empty) for _ in range(batch_size)]
        if fault_count > organization.total_cells:
            raise ValueError(
                f"cannot place {fault_count} faults in a memory of "
                f"{organization.total_cells} cells"
            )
        lengths = self._cluster_lengths(fault_count)
        row_fraction = self._effective_row_fraction(
            organization, lengths, max_faults_per_word
        )
        if vectorized:
            return self._sample_cells_vectorized(
                organization,
                fault_count,
                batch_size,
                rng,
                lengths,
                row_fraction,
                max_faults_per_word,
                max_rounds,
            )
        return [
            self._sample_cells_scalar(
                organization,
                fault_count,
                rng,
                lengths,
                row_fraction,
                max_faults_per_word,
                max_rounds,
            )
            for _ in range(batch_size)
        ]

    def _sample_cells_vectorized(
        self,
        organization: MemoryOrganization,
        fault_count: int,
        batch_size: int,
        rng: np.random.Generator,
        lengths: np.ndarray,
        row_fraction: float,
        max_faults_per_word: Optional[int],
        max_rounds: int,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        rows_n = organization.rows
        width = organization.word_width
        n_clusters = lengths.size
        # Flatten the (cluster, offset) structure once: fault j belongs to
        # cluster cluster_of[j] at in-burst position offset[j].
        cluster_of = np.repeat(np.arange(n_clusters), lengths)
        offset = np.concatenate([np.arange(length) for length in lengths])
        accepted_rows = np.empty((batch_size, fault_count), dtype=np.int64)
        accepted_cols = np.empty((batch_size, fault_count), dtype=np.int64)
        pending = np.arange(batch_size)
        for _ in range(max_rounds):
            if pending.size == 0:
                break
            p = pending.size
            along_row = rng.random((p, n_clusters)) < row_fraction
            u_anchor = rng.random((p, n_clusters))
            u_start = rng.random((p, n_clusters))
            # Row burst: anchor row uniform, start column uniform over the
            # positions where the whole burst fits -- and symmetrically for
            # column bursts.  Both orientations consume the same two uniform
            # draws so the stream does not depend on the orientation mix.
            row_anchor = np.floor(u_anchor * rows_n).astype(np.int64)
            col_start = np.floor(u_start * (width - lengths + 1)).astype(np.int64)
            col_anchor = np.floor(u_anchor * width).astype(np.int64)
            row_start = np.floor(u_start * (rows_n - lengths + 1)).astype(np.int64)
            burst_along_row = along_row[:, cluster_of]
            rows = np.where(
                burst_along_row,
                row_anchor[:, cluster_of],
                row_start[:, cluster_of] + offset,
            )
            cols = np.where(
                burst_along_row,
                col_start[:, cluster_of] + offset,
                col_anchor[:, cluster_of],
            )
            flat = rows * width + cols
            flat_sorted = np.sort(flat, axis=1)
            bad = np.any(flat_sorted[:, 1:] == flat_sorted[:, :-1], axis=1)
            if max_faults_per_word is not None:
                rows_sorted = np.sort(rows, axis=1)
                equal_neighbours = rows_sorted[:, 1:] == rows_sorted[:, :-1]
                if max_faults_per_word == 1:
                    bad |= np.any(equal_neighbours, axis=1)
                else:
                    run_len = np.ones((p, fault_count), dtype=np.int64)
                    for j in range(1, fault_count):
                        run_len[:, j] = np.where(
                            equal_neighbours[:, j - 1], run_len[:, j - 1] + 1, 1
                        )
                    bad |= run_len.max(axis=1) > max_faults_per_word
            good = ~bad
            accepted_rows[pending[good]] = rows[good]
            accepted_cols[pending[good]] = cols[good]
            pending = pending[bad]
        if pending.size:
            raise RuntimeError(
                f"could not place {pending.size} clustered fault maps after "
                f"{max_rounds} rounds; lower cluster_size or fault_count"
            )
        return [
            (accepted_rows[i], accepted_cols[i]) for i in range(batch_size)
        ]

    def _sample_cells_scalar(
        self,
        organization: MemoryOrganization,
        fault_count: int,
        rng: np.random.Generator,
        lengths: np.ndarray,
        row_fraction: float,
        max_faults_per_word: Optional[int],
        max_rounds: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-cluster Python reference of the same rejection sampler."""
        rows_n = organization.rows
        width = organization.word_width
        for _ in range(max_rounds):
            cells: List[Tuple[int, int]] = []
            for length in lengths:
                length = int(length)
                along_row = rng.random() < row_fraction
                u_anchor = rng.random()
                u_start = rng.random()
                if along_row:
                    row = int(u_anchor * rows_n)
                    col0 = int(u_start * (width - length + 1))
                    cells.extend((row, col0 + j) for j in range(length))
                else:
                    col = int(u_anchor * width)
                    row0 = int(u_start * (rows_n - length + 1))
                    cells.extend((row0 + j, col) for j in range(length))
            if len(set(cells)) != fault_count:
                continue
            if max_faults_per_word is not None:
                per_row: Dict[int, int] = {}
                for row, _col in cells:
                    per_row[row] = per_row.get(row, 0) + 1
                if max(per_row.values()) > max_faults_per_word:
                    continue
            rows = np.array([r for r, _c in cells], dtype=np.int64)
            cols = np.array([c for _r, c in cells], dtype=np.int64)
            return rows, cols
        raise RuntimeError(
            f"could not place a clustered fault map after {max_rounds} "
            f"rounds; lower cluster_size or fault_count"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "cluster",
            "cluster_size": self._cluster_size,
            "row_fraction": self._row_fraction,
        }
