"""Transient-fault tier: per-read soft errors, read-disturb, and scrubbing.

The static pipeline of :mod:`repro.scenarios.base` answers *which cells this
die manufactured broken*; this module answers *what additionally goes wrong
while the die is being read*.  Transient faults depend on the access
sequence, not the fault map: a soft error (SER) flips a stored bit for one
read, read-disturb accumulates weak cells into persistent flips as a row is
read over and over, and scrubbing periodically rewrites the array to clear
that accumulated state.

A :class:`TransientTier` rides on a :class:`~repro.scenarios.base.FaultScenario`
next to the static stages.  The sweep engine hands each die one extra seed
drawn from the die's own seed-sequence child, and
:class:`~repro.sim.faulty_storage.FaultyTensorStore` replays the tier from
that seed on every load -- so transient sampling inherits the engine's
worker-count/shard-order bit-identity guarantee, and a store/checkpoint hash
that includes the tier describes the run exactly.

Randomness contract
-------------------

``sample_read_effects`` consumes generator draws in one canonical order: per
access pass, each source's ``accumulate`` in tuple order; after the final
pass, each source's ``read_masks`` in tuple order.  Soft errors are drawn
only for the final, observed read -- intermediate-pass SER flips are
overwritten before anyone looks at them, so modelling them would spend
randomness without changing any result.  ``tests/reference_paths.py`` makes
the same draws in the same order and applies them one position at a time;
the differential tests hold the NumPy scatter ops bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.scenarios.base import RepairStageLike

__all__ = [
    "ReadDisturbSource",
    "ScrubbingRepair",
    "SoftErrorSource",
    "TransientFaultSource",
    "TransientReadEffects",
    "TransientTier",
]

#: Distributions :class:`SoftErrorSource` can draw strike counts from.
SER_DISTRIBUTIONS = ("bernoulli", "poisson")


def _validated_probability(name: str, value: float) -> float:
    """Eager probability validation (spec loaders and the CLI validate
    scenarios by *constructing* them, so a bad rate must fail here)."""
    probability = float(value)
    if not 0.0 <= probability < 1.0:
        raise ValueError(
            f"{name} must lie in [0, 1), got {probability!r}"
        )
    return probability


class TransientFaultSource:
    """One per-read fault mechanism of a :class:`TransientTier`.

    Subclasses implement either hook (both default to "no effect"):

    * :meth:`accumulate` -- persistent per-pass effects (read-disturb):
      OR new flips into the per-row ``disturb_masks`` array, once per pass;
    * :meth:`read_masks` -- ephemeral effects of the final observed read
      (soft errors): return a per-value XOR mask array, or ``None``.

    Every draw must go through ``rng`` in the canonical call sequence (see
    the module docstring): the scalar reference in
    ``tests/reference_paths.py`` replays it, and the differential tests hold
    the two bit-identical.
    """

    def accumulate(
        self,
        n_values: int,
        rows: int,
        width: int,
        rng: np.random.Generator,
        disturb_masks: np.ndarray,
    ) -> None:
        """Fold one access pass's persistent effects into ``disturb_masks``."""

    def read_masks(
        self,
        n_values: int,
        rows: int,
        width: int,
        rng: np.random.Generator,
    ) -> Optional[np.ndarray]:
        """Per-value XOR masks of the final observed read (``None`` = none)."""
        return None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description (feeds checkpoint hashes)."""
        raise NotImplementedError


class SoftErrorSource(TransientFaultSource):
    """Per-read SER bit flips: every read observes fresh, independent strikes.

    ``distribution`` selects the strike-count law:

    * ``"bernoulli"`` -- each of the ``n_values * width`` data bits flips
      independently with ``flip_probability`` (drawn as one binomial count
      plus a uniform without-replacement placement, which is distributionally
      identical and vectorizes);
    * ``"poisson"`` -- particle strikes arrive as a Poisson stream with rate
      ``flip_probability`` per bit-read; strikes land uniformly (with
      replacement) and toggle, so two strikes on one cell cancel.
    """

    def __init__(
        self, flip_probability: float, distribution: str = "bernoulli"
    ) -> None:
        self.flip_probability = _validated_probability(
            "flip_probability", flip_probability
        )
        normalized = str(distribution).strip().lower()
        if normalized not in SER_DISTRIBUTIONS:
            raise ValueError(
                f"unknown SER distribution {distribution!r}; expected one "
                f"of {', '.join(SER_DISTRIBUTIONS)}"
            )
        self.distribution = normalized

    def _draw_positions(
        self, total: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Flat strike positions in ``[0, total)`` -- the only rng draws."""
        if self.distribution == "bernoulli":
            strikes = int(rng.binomial(total, self.flip_probability))
            if strikes == 0:
                return np.empty(0, dtype=np.int64)
            return rng.choice(total, size=strikes, replace=False).astype(
                np.int64
            )
        strikes = int(rng.poisson(self.flip_probability * total))
        if strikes == 0:
            return np.empty(0, dtype=np.int64)
        return rng.integers(0, total, size=strikes, dtype=np.int64)

    def read_masks(
        self,
        n_values: int,
        rows: int,
        width: int,
        rng: np.random.Generator,
    ) -> Optional[np.ndarray]:
        positions = self._draw_positions(n_values * width, rng)
        masks = np.zeros(n_values, dtype=np.uint64)
        if positions.size == 0:
            return masks
        bits = np.uint64(1) << (positions % width).astype(np.uint64)
        np.bitwise_xor.at(masks, positions // width, bits)
        return masks

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "soft-error",
            "flip_probability": self.flip_probability,
            "distribution": self.distribution,
        }


class ReadDisturbSource(TransientFaultSource):
    """Read-disturb accumulation: every pass weakens cells until scrubbed.

    Each access pass disturbs each physical data cell independently with
    ``disturb_probability`` (drawn as one binomial count plus a uniform
    without-replacement placement over the accessed cells).  Disturbed cells
    stay flipped -- ORed into the per-row state -- until a
    :class:`ScrubbingRepair` rewrite clears them.
    """

    def __init__(self, disturb_probability: float) -> None:
        self.disturb_probability = _validated_probability(
            "disturb_probability", disturb_probability
        )

    def accumulate(
        self,
        n_values: int,
        rows: int,
        width: int,
        rng: np.random.Generator,
        disturb_masks: np.ndarray,
    ) -> None:
        total = n_values * width
        disturbed = int(rng.binomial(total, self.disturb_probability))
        if disturbed == 0:
            return
        positions = rng.choice(total, size=disturbed, replace=False).astype(
            np.int64
        )
        row_indices = (positions // width) % rows
        bits = np.uint64(1) << (positions % width).astype(np.uint64)
        np.bitwise_or.at(disturb_masks, row_indices, bits)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "read-disturb",
            "disturb_probability": self.disturb_probability,
        }


class ScrubbingRepair(RepairStageLike):
    """Periodic scrubbing: rewrite the array every ``period`` access passes.

    Modelled as a repair stage of the scenario pipeline: on the static
    fault-map side it is the identity (a rewrite cannot fix a manufactured
    defect), while inside the transient tier it clears the accumulated
    read-disturb state at every period boundary.  Scrubbing is deterministic
    and consumes no randomness, so adding or removing it never shifts any
    other draw.
    """

    def __init__(self, period: int) -> None:
        period = int(period)
        if period < 1:
            raise ValueError(f"scrub period must be >= 1, got {period}")
        self.period = period

    def apply_batch(self, maps: List[FaultMap]) -> List[FaultMap]:
        """Identity on static maps: scrubbing repairs state, not defects."""
        return maps

    def scrub(self, disturb_masks: np.ndarray) -> None:
        """One scrub pass: clear every accumulated disturb flip in place."""
        disturb_masks[:] = np.uint64(0)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "scrubbing-repair", "period": self.period}


@dataclass(frozen=True)
class TransientReadEffects:
    """What one replayed access trace did to the array, as observed.

    Attributes
    ----------
    disturb_masks:
        Per physical row, the uint64 OR-mask of data cells still disturbed
        at the final read (post-scrubbing).
    read_masks:
        Per stored value, the uint64 XOR-mask of soft-error flips on the
        final read.
    """

    disturb_masks: np.ndarray
    read_masks: np.ndarray

    def observed_masks(self, value_rows: np.ndarray) -> np.ndarray:
        """Per-value XOR masks of the final read (disturb state + SER).

        XOR composition is the faithful model: a disturbed cell struck again
        by a soft error reads back correct.
        """
        return self.disturb_masks[value_rows] ^ self.read_masks


@dataclass(frozen=True)
class TransientTier:
    """The access-sequence dimension of a fault scenario.

    Attributes
    ----------
    sources:
        Transient mechanisms applied in order (their draw order is part of
        the bit-identity contract).
    scrubbing:
        Optional periodic rewrite clearing accumulated read-disturb state.
    """

    sources: Tuple[TransientFaultSource, ...]
    scrubbing: Optional[ScrubbingRepair] = field(default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        if not self.sources:
            raise ValueError(
                "a transient tier needs at least one fault source"
            )
        for source in self.sources:
            if not isinstance(source, TransientFaultSource):
                raise TypeError(
                    f"transient sources must be TransientFaultSource "
                    f"instances, got {type(source).__name__}"
                )
        if self.scrubbing is not None and not isinstance(
            self.scrubbing, ScrubbingRepair
        ):
            raise TypeError(
                f"scrubbing must be a ScrubbingRepair, got "
                f"{type(self.scrubbing).__name__}"
            )

    def sample_read_effects(
        self,
        organization: MemoryOrganization,
        n_values: int,
        passes: int,
        rng: np.random.Generator,
    ) -> TransientReadEffects:
        """Replay ``passes`` access passes and return the final read's effects.

        The pass loop is canonical (see the module docstring): scrub at each
        period boundary, then each source accumulates; after the last pass,
        each source contributes its final-read XOR masks.  Because every
        draw depends only on the pass index -- never on the accumulated
        state -- scrubbing more often can only remove flips, which is the
        monotonicity the property tests pin down.
        """
        if n_values < 0:
            raise ValueError(f"n_values must be >= 0, got {n_values}")
        if passes < 1:
            raise ValueError(
                f"an access trace needs at least one pass, got {passes}"
            )
        rows = organization.rows
        width = organization.word_width
        disturb_masks = np.zeros(rows, dtype=np.uint64)
        for pass_index in range(1, passes + 1):
            if (
                self.scrubbing is not None
                and pass_index > 1
                and (pass_index - 1) % self.scrubbing.period == 0
            ):
                self.scrubbing.scrub(disturb_masks)
            for source in self.sources:
                source.accumulate(n_values, rows, width, rng, disturb_masks)
        read_masks = np.zeros(n_values, dtype=np.uint64)
        for source in self.sources:
            masks = source.read_masks(n_values, rows, width, rng)
            if masks is not None:
                read_masks ^= masks
        return TransientReadEffects(
            disturb_masks=disturb_masks, read_masks=read_masks
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description (feeds checkpoint hashes)."""
        return {
            "sources": [source.to_dict() for source in self.sources],
            "scrubbing": (
                None if self.scrubbing is None else self.scrubbing.to_dict()
            ),
        }
