"""Bit-level word codecs used throughout the memory substrate.

The paper stores 32-bit 2's-complement integers in an SRAM whose cells may be
faulty, and mitigates faults by circularly shifting data words so the least
significant bits land on faulty cells.  All of those primitives live here:

* packing/unpacking Python integers to/from fixed-width 2's complement,
* bit extraction and mutation,
* right/left circular shifts (the core operation of the bit-shuffling scheme),
* vectorised numpy equivalents for bulk simulation of large memories,
  including array-wide 2's-complement packing and bitwise parity (the
  primitives behind the batch ``encode_words``/``decode_words`` datapath).

All word-level functions treat a word as an unsigned ``width``-bit pattern;
signed interpretation happens only at the 2's-complement boundary.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bit_mask",
    "clear_bit",
    "flip_bit",
    "from_twos_complement",
    "from_twos_complement_array",
    "get_bit",
    "parity_array",
    "popcount",
    "rotate_left",
    "rotate_right",
    "rotate_right_array",
    "rotate_left_array",
    "set_bit",
    "to_bit_array",
    "from_bit_array",
    "to_twos_complement",
    "to_twos_complement_array",
]


def bit_mask(width: int) -> int:
    """Return an all-ones mask of ``width`` bits.

    >>> bit_mask(8)
    255
    """
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def _check_width(width: int) -> None:
    if width <= 0:
        raise ValueError(f"word width must be positive, got {width}")


def _check_pattern(pattern: int, width: int) -> None:
    if pattern < 0 or pattern > bit_mask(width):
        raise ValueError(
            f"pattern {pattern:#x} does not fit in an unsigned {width}-bit word"
        )


def to_twos_complement(value: int, width: int) -> int:
    """Encode a signed integer as an unsigned ``width``-bit 2's-complement pattern.

    Raises :class:`ValueError` if ``value`` is outside the representable range
    ``[-2**(width-1), 2**(width-1) - 1]``.

    >>> to_twos_complement(-1, 8)
    255
    >>> to_twos_complement(5, 8)
    5
    """
    _check_width(width)
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    if value < lo or value > hi:
        raise ValueError(f"value {value} out of range for {width}-bit 2's complement")
    return value & bit_mask(width)


def from_twos_complement(pattern: int, width: int) -> int:
    """Decode an unsigned ``width``-bit pattern as a signed 2's-complement integer.

    >>> from_twos_complement(255, 8)
    -1
    """
    _check_width(width)
    _check_pattern(pattern, width)
    sign_bit = 1 << (width - 1)
    if pattern & sign_bit:
        return pattern - (1 << width)
    return pattern


def get_bit(pattern: int, position: int) -> int:
    """Return bit ``position`` (0 = LSB) of ``pattern`` as 0 or 1."""
    if position < 0:
        raise ValueError(f"bit position must be non-negative, got {position}")
    return (pattern >> position) & 1


def set_bit(pattern: int, position: int) -> int:
    """Return ``pattern`` with bit ``position`` forced to 1."""
    if position < 0:
        raise ValueError(f"bit position must be non-negative, got {position}")
    return pattern | (1 << position)


def clear_bit(pattern: int, position: int) -> int:
    """Return ``pattern`` with bit ``position`` forced to 0."""
    if position < 0:
        raise ValueError(f"bit position must be non-negative, got {position}")
    return pattern & ~(1 << position)


def flip_bit(pattern: int, position: int) -> int:
    """Return ``pattern`` with bit ``position`` inverted."""
    if position < 0:
        raise ValueError(f"bit position must be non-negative, got {position}")
    return pattern ^ (1 << position)


def popcount(pattern: int) -> int:
    """Number of set bits in a non-negative integer."""
    if pattern < 0:
        raise ValueError("popcount is defined for non-negative integers only")
    return bin(pattern).count("1")


def rotate_right(pattern: int, amount: int, width: int) -> int:
    """Right-circular-shift an unsigned ``width``-bit pattern by ``amount`` bits.

    This is the write-path operation of the bit-shuffling scheme: bit 0 of the
    input lands at bit ``(width - amount) % width`` of the output.

    >>> rotate_right(0b0001, 1, 4)
    8
    """
    _check_width(width)
    _check_pattern(pattern, width)
    amount %= width
    if amount == 0:
        return pattern
    mask = bit_mask(width)
    return ((pattern >> amount) | (pattern << (width - amount))) & mask


def rotate_left(pattern: int, amount: int, width: int) -> int:
    """Left-circular-shift an unsigned ``width``-bit pattern by ``amount`` bits.

    Inverse of :func:`rotate_right` with the same ``amount``; this is the
    read-path restore operation of the bit-shuffling scheme.

    >>> rotate_left(0b1000, 1, 4)
    1
    """
    _check_width(width)
    _check_pattern(pattern, width)
    amount %= width
    if amount == 0:
        return pattern
    mask = bit_mask(width)
    return ((pattern << amount) | (pattern >> (width - amount))) & mask


def to_bit_array(pattern: int, width: int) -> np.ndarray:
    """Expand a ``width``-bit pattern into an ndarray of 0/1 with index 0 = LSB."""
    _check_width(width)
    _check_pattern(pattern, width)
    return np.array([(pattern >> i) & 1 for i in range(width)], dtype=np.uint8)


def from_bit_array(bits: np.ndarray) -> int:
    """Pack an ndarray of 0/1 values (index 0 = LSB) back into an integer."""
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError("bit array must be one-dimensional")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bit array may only contain 0 and 1")
    value = 0
    for i, b in enumerate(bits.tolist()):
        if b:
            value |= 1 << i
    return value


def to_twos_complement_array(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorised :func:`to_twos_complement`: signed int64 codes -> uint64 patterns.

    Supports widths up to 63 bits (patterns are returned as ``uint64``).
    """
    _check_width(width)
    if width > 63:
        raise ValueError("vectorised 2's complement supports widths up to 63 bits")
    values = np.asarray(values, dtype=np.int64)
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    if values.size and (values.min() < lo or values.max() > hi):
        raise ValueError(f"values out of range for {width}-bit 2's complement")
    return values.astype(np.uint64) & np.uint64(bit_mask(width))


def from_twos_complement_array(patterns: np.ndarray, width: int) -> np.ndarray:
    """Vectorised :func:`from_twos_complement`: uint64 patterns -> signed int64 codes."""
    _check_width(width)
    if width > 63:
        raise ValueError("vectorised 2's complement supports widths up to 63 bits")
    patterns = np.asarray(patterns, dtype=np.uint64)
    if patterns.size and patterns.max() > np.uint64(bit_mask(width)):
        raise ValueError(f"pattern exceeds {width}-bit range")
    sign = np.uint64(1 << (width - 1))
    # (x ^ m) - m sign-extends an m-bit pattern; x ^ sign stays below 2**63.
    return (patterns ^ sign).astype(np.int64) - np.int64(sign)


def parity_array(patterns: np.ndarray) -> np.ndarray:
    """Bitwise parity (popcount mod 2) of each uint64 pattern, as uint64 0/1."""
    patterns = np.asarray(patterns, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
        return (np.bitwise_count(patterns) & np.uint8(1)).astype(np.uint64)
    # XOR-fold fallback for NumPy 1.x.
    folded = patterns.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        folded ^= folded >> np.uint64(shift)
    return folded & np.uint64(1)


def rotate_right_array(patterns: np.ndarray, amounts: np.ndarray, width: int) -> np.ndarray:
    """Vectorised right-circular shift of unsigned patterns (dtype uint64).

    ``patterns`` and ``amounts`` are broadcast against each other.  Used by the
    bulk memory simulator to shuffle whole arrays of words at once.
    """
    _check_width(width)
    if width > 63:
        raise ValueError("vectorised rotation supports widths up to 63 bits")
    patterns = np.asarray(patterns, dtype=np.uint64)
    amounts = np.asarray(amounts, dtype=np.uint64) % np.uint64(width)
    mask = np.uint64(bit_mask(width))
    if np.any(patterns > mask):
        raise ValueError(f"pattern exceeds {width}-bit range")
    w = np.uint64(width)
    left = np.where(amounts == 0, np.uint64(0), (patterns << (w - amounts)) & mask)
    return ((patterns >> amounts) | left) & mask


def rotate_left_array(patterns: np.ndarray, amounts: np.ndarray, width: int) -> np.ndarray:
    """Vectorised left-circular shift of unsigned patterns (dtype uint64)."""
    _check_width(width)
    if width > 63:
        raise ValueError("vectorised rotation supports widths up to 63 bits")
    patterns = np.asarray(patterns, dtype=np.uint64)
    amounts = np.asarray(amounts, dtype=np.uint64) % np.uint64(width)
    mask = np.uint64(bit_mask(width))
    if np.any(patterns > mask):
        raise ValueError(f"pattern exceeds {width}-bit range")
    w = np.uint64(width)
    right = np.where(amounts == 0, np.uint64(0), patterns >> (w - amounts))
    return ((patterns << amounts) | right) & mask
