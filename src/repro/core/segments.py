"""Segment arithmetic of the bit-shuffling scheme (Eqs. 1 and 2, Fig. 4).

The fault-map LUT stores ``nFM`` bits per row.  Those bits index one of
``2**nFM`` equally sized *segments* of the data word:

* segment size (Eq. 1):   ``S = W / 2**nFM``
* rotation amount (Eq. 2): ``T(r) = S * (2**nFM - xFM(r))``

After the write-path right rotation by ``T(r)``, the faulty cell at physical
position ``c`` ends up holding logical data bit ``c mod S`` (a bit of the
least significant segment), so the worst-case error magnitude of any single
fault is ``2**(S-1)``.

These helpers are pure functions on integers; they are shared by the
operational scheme, the analytical yield model and the Fig. 4 benchmark.
"""

from __future__ import annotations


import numpy as np

__all__ = [
    "max_lut_bits",
    "segment_size",
    "segment_index",
    "rotation_amount",
    "error_magnitude_for_fault",
    "error_magnitude_profile",
    "worst_case_error_magnitude",
]


def max_lut_bits(word_width: int) -> int:
    """Largest meaningful ``nFM`` for a word of ``word_width`` bits: ceil(log2 W)."""
    if word_width <= 0:
        raise ValueError(f"word_width must be positive, got {word_width}")
    return (word_width - 1).bit_length()


def _check_nfm(n_fm: int, word_width: int) -> None:
    if not 1 <= n_fm <= max_lut_bits(word_width):
        raise ValueError(
            f"nFM must be in [1, {max_lut_bits(word_width)}] for a "
            f"{word_width}-bit word, got {n_fm}"
        )
    if word_width % (1 << n_fm) != 0:
        raise ValueError(
            f"word width {word_width} is not divisible into 2**{n_fm} segments"
        )


def segment_size(word_width: int, n_fm: int) -> int:
    """Segment size ``S = W / 2**nFM`` (Eq. 1)."""
    _check_nfm(n_fm, word_width)
    return word_width // (1 << n_fm)


def segment_index(fault_column: int, word_width: int, n_fm: int) -> int:
    """FM-LUT entry ``xFM`` for a fault at physical bit position ``fault_column``."""
    if not 0 <= fault_column < word_width:
        raise ValueError(
            f"fault column {fault_column} out of range [0, {word_width})"
        )
    return fault_column // segment_size(word_width, n_fm)


def rotation_amount(x_fm: int, word_width: int, n_fm: int) -> int:
    """Right-rotation ``T = S * (2**nFM - xFM)`` reduced modulo ``W`` (Eq. 2).

    ``xFM = 0`` yields ``T = W``, i.e. no rotation, which the modulo reduction
    makes explicit.
    """
    segments = 1 << n_fm
    if not 0 <= x_fm < segments:
        raise ValueError(f"xFM {x_fm} out of range [0, {segments})")
    s = segment_size(word_width, n_fm)
    return (s * (segments - x_fm)) % word_width


def error_magnitude_for_fault(fault_column: int, word_width: int, n_fm: int) -> int:
    """Worst-case error magnitude of a single fault at ``fault_column`` after shuffling.

    With the rotation of Eq. 2 programmed for this fault, the faulty cell holds
    logical bit ``fault_column mod S``, so the error magnitude is
    ``2**(fault_column mod S)`` (the data points of Fig. 4).
    """
    s = segment_size(word_width, n_fm)
    if not 0 <= fault_column < word_width:
        raise ValueError(
            f"fault column {fault_column} out of range [0, {word_width})"
        )
    return 1 << (fault_column % s)


def error_magnitude_profile(word_width: int, n_fm: int) -> np.ndarray:
    """Error magnitude versus faulty bit position for one ``nFM`` (a Fig. 4 series)."""
    return np.array(
        [error_magnitude_for_fault(c, word_width, n_fm) for c in range(word_width)],
        dtype=np.float64,
    )


def unprotected_error_magnitude_profile(word_width: int) -> np.ndarray:
    """Error magnitude versus faulty bit position with no correction (Fig. 4 reference)."""
    return np.array([float(1 << c) for c in range(word_width)], dtype=np.float64)


def worst_case_error_magnitude(word_width: int, n_fm: int) -> int:
    """Upper bound ``2**(S-1)`` on the error magnitude of any single fault."""
    s = segment_size(word_width, n_fm)
    return 1 << (s - 1)
