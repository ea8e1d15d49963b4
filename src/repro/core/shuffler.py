"""Write-path / read-path circular shifter of the bit-shuffling scheme.

The shuffler is the datapath block added next to the memory column periphery:
a barrel rotator that right-rotates the data word by ``T(r)`` bits before it is
written and left-rotates the read-out value by the same amount to restore the
original bit order.  :class:`BitShuffler` is a thin, stateless wrapper around
the scalar rotation primitives so the hardware block has an explicit software
counterpart that can be unit tested.  The batch datapath rotates whole arrays
of words with :func:`repro.memory.words.rotate_right_array` and
:func:`~repro.memory.words.rotate_left_array` inside the FM-LUT kernels.
"""

from __future__ import annotations

from repro.memory.words import rotate_left, rotate_right

__all__ = ["BitShuffler"]


class BitShuffler:
    """Barrel-rotator datapath for ``word_width``-bit words."""

    def __init__(self, word_width: int) -> None:
        if word_width <= 0:
            raise ValueError(f"word_width must be positive, got {word_width}")
        self._word_width = word_width

    @property
    def word_width(self) -> int:
        """Width of the words the shuffler operates on."""
        return self._word_width

    # ------------------------------------------------------------------ #
    # One word at a time, as the hardware does
    # ------------------------------------------------------------------ #
    def shuffle(self, data: int, rotation: int) -> int:
        """Write path: right-rotate ``data`` by ``rotation`` bits."""
        return rotate_right(data, rotation, self._word_width)

    def unshuffle(self, stored: int, rotation: int) -> int:
        """Read path: left-rotate the read-out pattern by ``rotation`` bits."""
        return rotate_left(stored, rotation, self._word_width)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitShuffler(word_width={self._word_width})"
