"""Functional model of storing numpy arrays in a faulty, protected memory.

:class:`FaultyTensorStore` round-trips a real-valued array through the full
storage pipeline of the paper's simulation framework:

1. quantise every value to the configured fixed-point format,
2. write the resulting 2's-complement words into the memory (one word per
   value), applying the protection scheme's write transform,
3. corrupt the stored patterns according to the die's fault map,
4. apply the scheme's read transform, and
5. de-quantise back to floats.

Datasets larger than the memory are stored in consecutive *pages*: the same
physical rows (and therefore the same faulty cells) are reused for each chunk
of ``rows`` values, which is how a real system would stream a large training
set through a small on-chip buffer.

Healthy rows round-trip bit-exactly through every scheme (encode and decode
are inverses), and quantisation is elementwise, so a load starts from the
tensor's fault-free de-quantisation (:class:`QuantizedTensor`) and rewrites
only the values that land on faulty rows.  Those go through the batched
datapath: one ``uint64`` array of every affected word of every page, the
scheme's vectorised :meth:`~repro.core.base.ProtectionScheme.encode_words`,
one masked corruption, :meth:`~repro.core.base.ProtectionScheme.decode_words`,
and a patch at the affected indices.  This is bit-exact with the scalar
word-at-a-time model.

Half of that work does not depend on the protection scheme: the die's
row -> columns table, its faulty rows, the affected rows and indices of a
tensor, the AND/OR/XOR masks of the faulty rows, and the 2's-complement
patterns of the affected codes.  :class:`DieDatapath` holds that half.  A
store builds one for itself, or shares the one it is handed (``die=``), so a
sweep that stores one tensor in one die under several schemes derives it once
per die; per scheme only programming, encode, corruption, decode and the
patch remain.  A die memoises what it derives for the last tensor it loaded,
which is safe because a :class:`QuantizedTensor` is read-only.

Ownership contract: the constructor programs the scheme through
:meth:`ProtectionScheme.for_die`.  When the supplied scheme carries
die-specific state (``ProtectionScheme.has_die_state``, e.g. an FM-LUT),
that returns a programmed private copy, so the caller's scheme instance is
never mutated and any number of stores may be built from one shared scheme
object without corrupting each other's FM-LUT state.  Stateless schemes
(plain ECC, no protection) are shared as-is -- programming them is a no-op,
so there is nothing a copy would protect.  The store's (possibly copied)
scheme is available as :attr:`FaultyTensorStore.scheme`.

Access-trace mode: when a :class:`~repro.scenarios.transient.TransientTier`
is attached, every load additionally replays ``access_trace`` read passes of
per-read corruption (soft errors, read-disturb, scrubbing) drawn from a
dedicated ``transient_seed``.  The seed is expanded through a fresh
``SeedSequence``, so every load of one die observes the *same* transient
events -- a die is one sample of the population, and the sweep engine
derives the seed from the die's own seed-sequence child to keep
worker-count/shard-order bit-identity.  Being a pure function of the seed,
the replay is part of the die's shared half.  Transient masks cover only the
data columns (like the static fault map), and the batched application has a
scalar reference path (``transient_vectorized=False``) that is bit-identical.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.core.base import ProtectionScheme
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.memory.words import (
    from_twos_complement,
    from_twos_complement_array,
    to_twos_complement,
    to_twos_complement_array,
)
from repro.quantize.fixedpoint import FixedPointFormat
from repro.scenarios.transient import TransientTier

__all__ = ["DieDatapath", "FaultyTensorStore", "QuantizedTensor"]

_ALL_BITS = (1 << 64) - 1
_EMPTY_INDICES = np.empty(0, dtype=np.int64)
_EMPTY_INDICES.flags.writeable = False


class QuantizedTensor:
    """A tensor's fixed-point codes together with their fault-free values.

    Both arrays are flat, private and read-only; :attr:`shape` is the shape
    of the original tensor.  Sweeps build one per tensor and load it into
    every store of every die, so the full de-quantisation happens once.
    Construction validates the codes against the format's range.
    """

    __slots__ = ("fixed_point", "shape", "codes", "clean")

    def __init__(self, fixed_point: FixedPointFormat, raw: np.ndarray) -> None:
        codes = np.array(raw, dtype=np.int64)
        clean = fixed_point.dequantize_array(codes)
        self.fixed_point = fixed_point
        self.shape: Tuple[int, ...] = codes.shape
        self.codes = codes.reshape(-1)
        self.clean = clean.reshape(-1)
        self.codes.flags.writeable = False
        self.clean.flags.writeable = False

    def __reduce__(self):
        # Workers rebuild the tensor from its codes: the copy is read-only
        # again, and the clean values need not travel.
        return (QuantizedTensor, (self.fixed_point, self.codes.reshape(self.shape)))


class _Plan(NamedTuple):
    """What one die does to one tensor, whatever the scheme."""

    #: Flat indices of the values the datapath rewrites.
    indices: np.ndarray
    #: Physical row of each such value.
    rows: np.ndarray
    #: Each value's slot in the die's mask arrays.
    slots: np.ndarray
    #: 2's-complement patterns of the values' codes (``uint64``).
    patterns: np.ndarray
    #: Per-value XOR masks of the final transient read, if a tier is set.
    transient_masks: Optional[np.ndarray]


class DieDatapath:
    """The scheme-independent half of storing tensors in one faulty die.

    Takes the die-level arguments of :class:`FaultyTensorStore` and
    validates them once.  Holds the die's row -> columns table (what schemes
    are programmed from), its faulty rows in that table's order, and one
    AND/OR/XOR mask slot per faulty row plus an identity slot for healthy
    rows.  For the last tensor loaded it memoises the affected indices, rows
    and slots, the 2's-complement patterns of the affected codes and, with a
    transient tier, the replayed read masks.
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        fault_map: FaultMap,
        fixed_point: Optional[FixedPointFormat] = None,
        *,
        transient: Optional[TransientTier] = None,
        transient_seed: Optional[int] = None,
        access_trace: int = 1,
        transient_vectorized: bool = True,
    ) -> None:
        self._arguments = (
            organization, fault_map, fixed_point, transient, transient_seed,
            access_trace, transient_vectorized,
        )
        if fault_map.organization.rows != organization.rows:
            raise ValueError("fault map row count does not match the memory")
        if fault_map.organization.word_width != organization.word_width:
            raise ValueError("fault map word width does not match the memory")
        fixed_point = (
            fixed_point
            if fixed_point is not None
            else FixedPointFormat(total_bits=organization.word_width, frac_bits=16)
        )
        if fixed_point.total_bits != organization.word_width:
            raise ValueError(
                "fixed-point word width must match the memory word width"
            )
        access_trace = int(access_trace)
        if access_trace < 1:
            raise ValueError(
                f"access_trace must be >= 1, got {access_trace}"
            )
        if transient is None and access_trace != 1:
            raise ValueError(
                "access_trace > 1 requires a transient tier: static faults "
                "do not change between read passes, so a longer trace would "
                "silently run the single-read model"
            )
        if transient is not None and transient_seed is None:
            raise ValueError(
                "a transient tier requires a transient_seed: per-read "
                "corruption must replay deterministically from the die's "
                "seed stream"
            )
        self.organization = organization
        self.fault_map = fault_map
        self.fixed_point = fixed_point
        self.transient = transient
        self.transient_seed = None if transient_seed is None else int(transient_seed)
        self.access_trace = access_trace
        self.transient_vectorized = bool(transient_vectorized)
        self.columns_by_row = fault_map.faulty_columns_by_row()
        masks = fault_map.row_masks()
        self.faulty_rows = np.array(list(masks), dtype=np.int64)
        # The AND masks keep every bit but the stuck-at-zero cells, so the
        # columns a scheme stores above the data word (parity, FM-LUT) pass
        # through untouched: they are fault-free in this model.
        row_masks = masks.values()
        self._and_masks = np.array(
            [_ALL_BITS ^ zero for zero, _one, _flip in row_masks] + [_ALL_BITS],
            dtype=np.uint64,
        )
        self._or_masks = np.array(
            [one for _zero, one, _flip in row_masks] + [0], dtype=np.uint64
        )
        self._xor_masks = np.array(
            [flip for _zero, _one, flip in row_masks] + [0], dtype=np.uint64
        )
        self._tensor: Optional[QuantizedTensor] = None
        self._plan: Optional[_Plan] = None

    def plan(self, tensor: QuantizedTensor) -> _Plan:
        """The die's scheme-independent work on ``tensor`` (memoised per tensor)."""
        if tensor is not self._tensor:
            if self.transient is None:
                self._plan = self._static_plan(tensor)
            else:
                self._plan = self._transient_plan(tensor)
            self._tensor = tensor
        return self._plan

    def corrupt(self, slots: np.ndarray, stored: np.ndarray) -> np.ndarray:
        """Apply each slot's faults to a batch of stored patterns."""
        return ((stored & self._and_masks[slots]) | self._or_masks[slots]) ^ self._xor_masks[slots]

    def affected(self, n_values: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, flat indices, slots)`` of the values landing on faulty rows.

        The same physical row hosts value indices ``row, row + rows,
        row + 2*rows, ...`` (consecutive pages through the memory).
        """
        rows = self.organization.rows
        faulty = self.faulty_rows
        n_pages = (n_values + rows - 1) // rows
        if n_pages == 0 or faulty.size == 0:
            return _EMPTY_INDICES, _EMPTY_INDICES, _EMPTY_INDICES
        indices = (
            faulty[np.newaxis, :]
            + rows * np.arange(n_pages, dtype=np.int64)[:, np.newaxis]
        ).ravel()
        keep = indices < n_values
        slots = np.tile(np.arange(faulty.size, dtype=np.int64), n_pages)[keep]
        return np.tile(faulty, n_pages)[keep], indices[keep], slots

    def _patterns(self, tensor: QuantizedTensor, indices: np.ndarray) -> np.ndarray:
        if indices.size == 0:
            return np.empty(0, dtype=np.uint64)
        return to_twos_complement_array(
            tensor.codes[indices], self.organization.word_width
        )

    def _static_plan(self, tensor: QuantizedTensor) -> _Plan:
        rows, indices, slots = self.affected(tensor.codes.size)
        return _Plan(indices, rows, slots, self._patterns(tensor, indices), None)

    def _transient_plan(self, tensor: QuantizedTensor) -> _Plan:
        """The access-trace plan: static faults plus replayed per-read flips.

        The generator is rebuilt from ``transient_seed`` (seed sequences are
        pure functions of their entropy), so the transient events of this
        die are identical across loads, schemes, worker counts, and shard
        orders.  Values whose transient mask is zero and whose row is
        healthy skip the datapath entirely, exactly like the static-only
        plan.
        """
        n_values = int(tensor.codes.size)
        if n_values == 0:
            empty = _EMPTY_INDICES
            return _Plan(empty, empty, empty, self._patterns(tensor, empty), empty)
        rng = np.random.default_rng(np.random.SeedSequence(self.transient_seed))
        effects = self.transient.sample_read_effects(
            self.organization,
            n_values,
            self.access_trace,
            rng,
            vectorized=self.transient_vectorized,
        )
        total_rows = self.organization.rows
        value_rows = np.arange(n_values, dtype=np.int64) % total_rows
        transient_masks = effects.observed_masks(value_rows)
        hit = transient_masks != np.uint64(0)
        _static_rows, static_indices, _static_slots = self.affected(n_values)
        hit[static_indices] = True
        affected = np.nonzero(hit)[0]
        rows = value_rows[affected]
        slot_of_row = np.full(total_rows, self.faulty_rows.size, dtype=np.int64)
        slot_of_row[self.faulty_rows] = np.arange(self.faulty_rows.size)
        return _Plan(
            affected,
            rows,
            slot_of_row[rows],
            self._patterns(tensor, affected),
            transient_masks[affected],
        )


class FaultyTensorStore:
    """Store-and-load pipeline through a protected, faulty memory.

    Parameters
    ----------
    organization:
        Geometry of the data memory (16 kB / 32-bit words in the paper).
    scheme:
        Protection scheme guarding the memory.  When the scheme carries
        die-specific state the store programs a private copy from the
        supplied fault map (mirroring the BIST flow); the caller's instance
        is left untouched.  Stateless schemes are shared without copying.
    fault_map:
        Persistent fault map of the die's data columns.
    fixed_point:
        Quantisation format used for the stored values (Q15.16 by default).
    transient:
        Optional per-read fault tier (see the module docstring).
    transient_seed:
        Seed the tier's events are replayed from; required with ``transient``.
    access_trace:
        Number of read passes the tier replays per load (>= 1).
    transient_vectorized:
        Apply transient masks through the batched NumPy path (default) or
        the scalar reference loop; both are bit-identical by contract.
    die:
        The scheme-independent half to share, from another store of the same
        die (:attr:`die`).  It must have been built from exactly the
        arguments above; without it the store builds its own.
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        scheme: ProtectionScheme,
        fault_map: FaultMap,
        fixed_point: Optional[FixedPointFormat] = None,
        *,
        transient: Optional[TransientTier] = None,
        transient_seed: Optional[int] = None,
        access_trace: int = 1,
        transient_vectorized: bool = True,
        die: Optional[DieDatapath] = None,
    ) -> None:
        if scheme.word_width != organization.word_width:
            raise ValueError("scheme word width does not match the memory")
        if die is None:
            die = DieDatapath(
                organization,
                fault_map,
                fixed_point,
                transient=transient,
                transient_seed=transient_seed,
                access_trace=access_trace,
                transient_vectorized=transient_vectorized,
            )
        elif die._arguments != (
            organization, fault_map, fixed_point, transient, transient_seed,
            access_trace, transient_vectorized,
        ):
            raise ValueError(
                "the shared die was built for other store arguments"
            )
        self._die = die
        # Program a private copy so the caller's scheme is never mutated and
        # stores sharing one scheme object cannot corrupt each other's LUTs.
        self._scheme = scheme.for_die(organization.rows, die.columns_by_row)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def organization(self) -> MemoryOrganization:
        """Geometry of the modelled memory."""
        return self._die.organization

    @property
    def scheme(self) -> ProtectionScheme:
        """The store's programmed private copy of the protection scheme."""
        return self._scheme

    @property
    def fault_map(self) -> FaultMap:
        """Fault map of the modelled die."""
        return self._die.fault_map

    @property
    def fixed_point(self) -> FixedPointFormat:
        """Quantisation format for stored values."""
        return self._die.fixed_point

    @property
    def die(self) -> DieDatapath:
        """The scheme-independent half, shareable with stores of the same die."""
        return self._die

    # ------------------------------------------------------------------ #
    # Round trip
    # ------------------------------------------------------------------ #
    def store_and_load(self, values: np.ndarray) -> np.ndarray:
        """Round-trip an array through the faulty memory and return what comes back.

        The output has the same shape as the input; values mapped to healthy
        rows return with only quantisation error, values mapped to faulty rows
        exhibit whatever corruption the protection scheme failed to prevent.
        """
        values = np.asarray(values, dtype=np.float64)
        fixed_point = self.fixed_point
        tensor = QuantizedTensor(fixed_point, fixed_point.quantize_array(values))
        return self._load(tensor).reshape(values.shape)

    def load_quantized(self, raw: "np.ndarray | QuantizedTensor") -> np.ndarray:
        """Round-trip already-quantised integer codes; return de-quantised floats.

        ``raw`` holds signed fixed-point codes (as produced by
        :meth:`FixedPointFormat.quantize_array`), or is a
        :class:`QuantizedTensor` of them in this store's format; the result
        has the tensor's shape.  Callers that sweep many fault maps or
        schemes over one tensor build the :class:`QuantizedTensor` once and
        load it into every store.
        """
        if isinstance(raw, QuantizedTensor):
            if raw.fixed_point != self.fixed_point:
                raise ValueError(
                    "the tensor was quantised in another fixed-point format"
                )
            tensor = raw
        else:
            tensor = QuantizedTensor(self.fixed_point, raw)
        return self._load(tensor).reshape(tensor.shape)

    def _load(self, tensor: QuantizedTensor) -> np.ndarray:
        """The flat de-quantised values this die returns for ``tensor``."""
        plan = self._die.plan(tensor)
        values = tensor.clean.copy()
        if plan.indices.size == 0:
            return values
        if self._die.transient is not None and not self._die.transient_vectorized:
            codes = self._scalar_transient_codes(tensor, plan)
        else:
            width = self.organization.word_width
            stored = self._scheme.encode_words(plan.rows, plan.patterns)
            observed = self._die.corrupt(plan.slots, stored)
            if plan.transient_masks is not None:
                # Static masks first (identity on healthy rows), then the
                # transient XOR; both touch only the data columns.
                observed = observed ^ plan.transient_masks
            recovered = self._scheme.decode_words(plan.rows, observed)
            codes = from_twos_complement_array(recovered, width)
        values[plan.indices] = self.fixed_point.dequantize_array(codes)
        return values

    def _scalar_transient_codes(
        self, tensor: QuantizedTensor, plan: _Plan
    ) -> np.ndarray:
        """The word-at-a-time reference of the access-trace datapath."""
        width = self.organization.word_width
        data_mask = (1 << width) - 1
        fault_map = self.fault_map
        codes = np.empty(plan.indices.size, dtype=np.int64)
        for position, (value_index, row, transient_mask) in enumerate(
            zip(
                plan.indices.tolist(),
                plan.rows.tolist(),
                plan.transient_masks.tolist(),
            )
        ):
            pattern = to_twos_complement(int(tensor.codes[value_index]), width)
            stored = int(self._scheme.encode_word(row, pattern))
            observed = (
                fault_map.corrupt_word(row, stored & data_mask)
                | (stored & ~data_mask)
            )
            observed ^= transient_mask
            codes[position] = from_twos_complement(
                int(self._scheme.decode_word(row, observed)), width
            )
        return codes
