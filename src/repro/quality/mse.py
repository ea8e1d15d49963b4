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
(the test oracle), and :func:`mse_of_fault_map` to one die through the
scheme's table-driven
:meth:`~repro.core.base.ProtectionScheme.residual_error_energy`.
"""

from __future__ import annotations

from typing import Iterable, Sequence


from repro.core.base import ProtectionScheme
from repro.memory.faults import FaultMap

__all__ = ["word_error_energy", "mse_from_error_positions", "mse_of_fault_map"]


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


def mse_of_fault_map(fault_map: FaultMap, scheme: ProtectionScheme) -> float:
    """MSE of one die operated behind ``scheme`` (Eq. 6 with mitigation applied).

    For every faulty row the scheme charges the logical bits that remain
    vulnerable; the worst case (every residual bit actually wrong) defines the
    contribution of that row.  This matches the paper's analytical evaluation,
    which charges each failure its full error magnitude.  The result equals
    :func:`mse_from_error_positions` over the rows'
    ``residual_error_positions`` bit for bit (see the module docstring).
    """
    organization = fault_map.organization
    if organization.word_width != scheme.word_width:
        raise ValueError(
            "fault map word width does not match the protection scheme"
        )
    energy = scheme.residual_error_energy(fault_map.faulty_columns_by_row())
    return energy / organization.rows
