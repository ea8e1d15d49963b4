"""Local mean-square-error metric of Eq. 6.

The paper uses the MSE computed over the error magnitudes of all words in the
memory as a cheap, test-time proxy for the application-level output quality::

    MSE = (1 / R) * sum_i (2 ** b_i) ** 2,   0 <= b_i < W

where ``b_i`` is the (logical) bit position corrupted by the i-th failure and
``R`` the number of rows.  With a protection scheme in place the positions
``b_i`` are the *residual* positions after mitigation, which is exactly what
:meth:`repro.core.base.ProtectionScheme.residual_error_positions` reports.

Energy contract (what keeps every MSE bit-identical, whichever path computes
it): each faulty row's energy is the exact integer ``sum(4**b)`` over its
residual positions, rounded to float once; the row energies are added one at
a time, left to right, in the fault map's row order
(:meth:`FaultMap.faulty_columns_by_row`); the total is divided by ``R`` last.
:func:`mse_from_error_positions` applies it to explicit per-row positions
(the test oracle).  :func:`mse_of_fault_map` applies it to a whole batch of
dies under every scheme at once: it puts each row's energy -- from the
scheme's :meth:`~repro.core.base.ProtectionScheme.error_energy_tables` -- at
the row's position in a zero-padded ``(dies x max faults)`` grid, and takes
the last column of ``np.cumsum(grid, axis=1)``.  ``cumsum`` adds strictly
left to right and the trailing padding adds exact zeros, so each die's total
is the contract's sum bit for bit.

A batch's rows are grouped once for every scheme, in NumPy.  Every die's
cells are read in insertion order in one pass, and one stable sort on
(die, row) finds the dies in which two faults share a row.  In every other
die each row holds one fault, and the draw order of the cells is the row
order: each cell's ``single`` energy goes straight to its draw position.
A die with a shared row is grouped by
:meth:`~repro.memory.faults.FaultMap.faulty_columns_by_row`, whose rows keep
their first-appearance order, and its shared rows are priced by ``multi``.
A lone die skips the grid's fixed NumPy cost: its rows are added one at a
time in a Python loop, the same sum.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from repro.core.base import ProtectionScheme
from repro.memory.faults import FaultMap

__all__ = [
    "error_energies", "mse_from_error_positions", "mse_of_fault_map", "word_error_energy"
]


def word_error_energy(bit_positions: Sequence[int]) -> float:
    """Sum of squared error magnitudes ``(2**b)**2`` for one word's error positions."""
    return float(sum((1 << b) ** 2 for b in bit_positions))


def mse_from_error_positions(
    error_positions: Iterable[Sequence[int]], rows: int
) -> float:
    """Eq. 6: MSE over the memory given per-word residual error positions.

    Parameters
    ----------
    error_positions:
        One sequence of residual (logical) bit positions per affected word.
        Fault-free words contribute nothing and may be omitted.
    rows:
        Total number of rows ``R`` of the memory (the normalisation constant).
    """
    if rows <= 0:
        raise ValueError(f"rows must be positive, got {rows}")
    total = 0.0
    for positions in error_positions:
        total += word_error_energy(positions)
    return total / rows


def mse_of_fault_map(
    fault_maps: Union[FaultMap, Sequence[FaultMap]],
    schemes: Union[ProtectionScheme, Sequence[ProtectionScheme]],
) -> Union[float, np.ndarray]:
    """MSE of dies operated behind protection schemes (Eq. 6 with mitigation).

    For every faulty row the scheme charges the logical bits that remain
    vulnerable; the worst case (every residual bit actually wrong) defines the
    contribution of that row.  This matches the paper's analytical evaluation,
    which charges each failure its full error magnitude.  The result equals
    :func:`mse_from_error_positions` over the rows'
    ``residual_error_positions`` bit for bit (see the module docstring).

    One map and one scheme give a float.  A sequence of maps or of schemes
    gives a ``(dies x schemes)`` array, scored in one batch.  Both arguments
    are read once, so any iterable will do.
    """
    one_map = isinstance(fault_maps, FaultMap)
    one_scheme = isinstance(schemes, ProtectionScheme)
    maps = [fault_maps] if one_map else list(fault_maps)
    scheme_list = [schemes] if one_scheme else list(schemes)
    widths = {fault_map.organization.word_width for fault_map in maps}
    if any(widths - {scheme.word_width} for scheme in scheme_list):
        raise ValueError(
            "fault map word width does not match the protection scheme"
        )
    if one_map and one_scheme:
        return _die_energy(maps[0].faulty_columns_by_row(), schemes) / maps[0].organization.rows
    rows = np.array([fault_map.organization.rows for fault_map in maps], dtype=float)
    return error_energies(maps, scheme_list) / rows[:, None]


def error_energies(
    fault_maps: Sequence[FaultMap], schemes: Sequence[ProtectionScheme]
) -> np.ndarray:
    """Eq. 6 error energies (MSE numerators) of many dies: ``(dies x schemes)``.

    The dies' rows are grouped once for every scheme, as the module
    docstring describes; each scheme then fills the grid from its tables.
    A scheme without tables scores each die with its scalar
    ``residual_error_positions``, row by row with the real row index.  A
    column outside a scheme's word raises ``ValueError``.
    """
    if len(fault_maps) == 1:
        by_row = fault_maps[0].faulty_columns_by_row()
        return np.array([[_die_energy(by_row, scheme) for scheme in schemes]])
    dies = len(fault_maps)
    cells = [fault_map.cells() for fault_map in fault_maps]
    counts = np.fromiter(map(len, cells), dtype=np.intp, count=dies)
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(cells)),
        dtype=np.intp,
        count=2 * int(counts.sum()),
    )
    rows, columns = flat[0::2], flat[1::2]
    die = np.repeat(np.arange(dies), counts)
    # A die whose faulty rows are distinct puts each cell at its draw
    # position; a die in which two cells share a row (a repeated (die, row)
    # key after the sort) is grouped by its map instead.
    stride = int(rows.max(initial=0)) + 1
    keys = np.sort(die * stride + rows, kind="stable")
    shared = np.zeros(dies, dtype=bool)
    shared[keys[1:][keys[1:] == keys[:-1]] // stride] = True
    span = int(counts.max(initial=0)) or 1
    distinct = ~shared[die]
    first_cell = np.cumsum(counts) - counts
    slots = die * span + np.arange(die.size) - first_cell[die]
    single_slots, single_columns = [slots[distinct]], [columns[distinct]]
    multi = []
    for index in np.flatnonzero(shared).tolist():
        by_row = fault_maps[index].faulty_columns_by_row()
        for slot, row_columns in enumerate(by_row.values(), index * span):
            if len(row_columns) == 1:
                single_slots.append([slot])
                single_columns.append(row_columns)
            else:
                multi.append((slot, row_columns))
    single_at = np.concatenate(single_slots)
    columns_at = np.concatenate(single_columns)
    highest = int(columns.max(initial=0))
    energies = np.empty((dies, len(schemes)))
    for index, scheme in enumerate(schemes):
        tables = scheme.error_energy_tables()
        if tables is None:
            energies[:, index] = [
                _die_energy(fault_map.faulty_columns_by_row(), scheme)
                for fault_map in fault_maps
            ]
            continue
        if highest >= scheme.word_width:
            raise ValueError(f"fault column out of range [0, {scheme.word_width})")
        row_energies = np.zeros(dies * span)
        row_energies[single_at] = np.asarray(tables[0])[columns_at]
        for slot, row_columns in multi:
            row_energies[slot] = float(tables[1](row_columns))
        grid = row_energies.reshape(dies, span)
        energies[:, index] = np.cumsum(grid, axis=1)[:, -1]
    return energies


def _die_energy(by_row: Mapping[int, Sequence[int]], scheme: ProtectionScheme) -> float:
    """One die's :func:`error_energies` under one scheme: rows added in order."""
    width = scheme.word_width
    single_energy, multi_energy = scheme.error_energy_tables() or (None, None)
    total = 0.0
    for row, columns in by_row.items():
        if single_energy is None:
            positions = scheme.residual_error_positions(row, columns)
            total += float(sum(1 << (2 * b) for b in positions))
        elif len(columns) == 1 and 0 <= columns[0] < width:
            total += single_energy[columns[0]]
        elif columns:
            if columns[0] < 0 or columns[-1] >= width:
                raise ValueError(f"fault column out of range [0, {width})")
            total += float(multi_energy(columns))
    return total
