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
are inverses), so only the values landing on faulty rows are pushed through
the encode/corrupt/decode datapath -- and that datapath is fully batched: the
store gathers every affected value of every page into one ``uint64`` array,
runs the scheme's vectorised :meth:`~repro.core.base.ProtectionScheme.
encode_words` / :meth:`~repro.core.base.ProtectionScheme.decode_words`, and
corrupts all words at once with the fault map's per-row stuck-at/flip masks.
This is what makes Monte-Carlo sweeps over thousands of fault maps tractable
while remaining bit-exact with the scalar word-at-a-time model.

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
``SeedSequence`` on every load, so repeated loads of one store observe the
*same* transient events -- a die is one sample of the population, and the
sweep engine derives the seed from the die's own seed-sequence child to keep
worker-count/shard-order bit-identity.  Transient masks cover only the data
columns (like the static fault map), and the batched application has a scalar
reference path (``transient_vectorized=False``) that is bit-identical.
"""

from __future__ import annotations

from typing import Optional, Tuple

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

__all__ = ["FaultyTensorStore"]


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
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        scheme: ProtectionScheme,
        fault_map: FaultMap,
        fixed_point: Optional[FixedPointFormat] = None,
        *,
        transient: Optional["TransientTier"] = None,
        transient_seed: Optional[int] = None,
        access_trace: int = 1,
        transient_vectorized: bool = True,
    ) -> None:
        if scheme.word_width != organization.word_width:
            raise ValueError("scheme word width does not match the memory")
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
        self._organization = organization
        self._fault_map = fault_map
        self._fixed_point = fixed_point
        self._transient = transient
        self._transient_seed = (
            None if transient_seed is None else int(transient_seed)
        )
        self._access_trace = access_trace
        self._transient_vectorized = bool(transient_vectorized)
        self._faulty_rows = fault_map.faulty_columns_by_row()
        self._faulty_row_array = np.array(
            sorted(self._faulty_rows), dtype=np.int64
        )
        # Program a private copy so the caller's scheme is never mutated and
        # stores sharing one scheme object cannot corrupt each other's LUTs.
        self._scheme = scheme.for_die(organization.rows, self._faulty_rows)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def organization(self) -> MemoryOrganization:
        """Geometry of the modelled memory."""
        return self._organization

    @property
    def scheme(self) -> ProtectionScheme:
        """The store's programmed private copy of the protection scheme."""
        return self._scheme

    @property
    def fault_map(self) -> FaultMap:
        """Fault map of the modelled die."""
        return self._fault_map

    @property
    def fixed_point(self) -> FixedPointFormat:
        """Quantisation format for stored values."""
        return self._fixed_point

    # ------------------------------------------------------------------ #
    # Round trip
    # ------------------------------------------------------------------ #
    def quantization_roundtrip(self, values: np.ndarray) -> np.ndarray:
        """Quantise and de-quantise without fault effects (the fault-free reference)."""
        values = np.asarray(values, dtype=np.float64)
        raw = self._fixed_point.quantize_array(values)
        return self._fixed_point.dequantize_array(raw).reshape(values.shape)

    def store_and_load(self, values: np.ndarray) -> np.ndarray:
        """Round-trip an array through the faulty memory and return what comes back.

        The output has the same shape as the input; values mapped to healthy
        rows return with only quantisation error, values mapped to faulty rows
        exhibit whatever corruption the protection scheme failed to prevent.
        """
        values = np.asarray(values, dtype=np.float64)
        raw = self._fixed_point.quantize_array(values.ravel())
        restored = self._fixed_point.dequantize_array(self._roundtrip_raw(raw))
        return restored.reshape(values.shape)

    def load_quantized(self, raw: np.ndarray) -> np.ndarray:
        """Round-trip already-quantised integer codes; return de-quantised floats.

        ``raw`` holds signed fixed-point codes (as produced by
        :meth:`FixedPointFormat.quantize_array`); the result has the same
        shape.  This lets callers that sweep many fault maps or schemes over
        the same tensor quantise it once and reuse the codes for every store.
        """
        raw = np.asarray(raw, dtype=np.int64)
        restored = self._fixed_point.dequantize_array(
            self._roundtrip_raw(raw.ravel())
        )
        return restored.reshape(raw.shape)

    def _roundtrip_raw(self, raw: np.ndarray) -> np.ndarray:
        """Push flat signed codes through the batched encode/corrupt/decode path."""
        if self._transient is not None:
            return self._roundtrip_transient(raw)
        corrupted_raw = raw.copy()
        if self._faulty_row_array.size == 0:
            return corrupted_raw
        rows, indices = self._affected(raw.size)
        if indices.size == 0:
            return corrupted_raw
        width = self._organization.word_width
        patterns = to_twos_complement_array(raw[indices], width)
        stored = self._scheme.encode_words(rows, patterns)
        observed = self._corrupt_words(rows, stored)
        recovered = self._scheme.decode_words(rows, observed)
        corrupted_raw[indices] = from_twos_complement_array(recovered, width)
        return corrupted_raw

    def _roundtrip_transient(self, raw: np.ndarray) -> np.ndarray:
        """The access-trace datapath: static masks plus replayed per-read flips.

        Every load rebuilds the generator from ``transient_seed`` (seed
        sequences are pure functions of their entropy), so the transient
        events of this die are identical across loads, schemes, worker
        counts, and shard orders.  Values whose transient mask is zero and
        whose row is healthy skip the datapath entirely, exactly like the
        static-only fast path.
        """
        corrupted_raw = raw.copy()
        n_values = int(raw.size)
        if n_values == 0:
            return corrupted_raw
        rng = np.random.default_rng(
            np.random.SeedSequence(self._transient_seed)
        )
        effects = self._transient.sample_read_effects(
            self._organization,
            n_values,
            self._access_trace,
            rng,
            vectorized=self._transient_vectorized,
        )
        total_rows = self._organization.rows
        value_rows = np.arange(n_values, dtype=np.int64) % total_rows
        transient_masks = effects.observed_masks(value_rows)
        statically_affected = np.zeros(n_values, dtype=bool)
        _static_rows, static_indices = self._affected(n_values)
        statically_affected[static_indices] = True
        affected = np.nonzero(
            statically_affected | (transient_masks != np.uint64(0))
        )[0]
        if affected.size == 0:
            return corrupted_raw
        width = self._organization.word_width
        if self._transient_vectorized:
            rows = value_rows[affected]
            patterns = to_twos_complement_array(raw[affected], width)
            stored = self._scheme.encode_words(rows, patterns)
            # Static masks first (identity on healthy rows), then the
            # transient XOR; both touch only the data columns.
            observed = self._corrupt_words(rows, stored)
            observed = observed ^ transient_masks[affected]
            recovered = self._scheme.decode_words(rows, observed)
            corrupted_raw[affected] = from_twos_complement_array(
                recovered, width
            )
            return corrupted_raw
        data_mask = (1 << width) - 1
        for value_index in affected.tolist():
            row = int(value_rows[value_index])
            pattern = to_twos_complement(int(raw[value_index]), width)
            stored = int(self._scheme.encode_word(row, pattern))
            observed = (
                self._fault_map.corrupt_word(row, stored & data_mask)
                | (stored & ~data_mask)
            )
            observed ^= int(transient_masks[value_index])
            corrupted_raw[value_index] = from_twos_complement(
                int(self._scheme.decode_word(row, observed)), width
            )
        return corrupted_raw

    def _affected(self, n_values: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, flat indices)`` of the values landing on faulty rows.

        The same physical row hosts value indices ``row, row + rows,
        row + 2*rows, ...`` (consecutive pages through the memory).
        """
        rows = self._organization.rows
        faulty = self._faulty_row_array
        n_pages = (n_values + rows - 1) // rows
        if n_pages == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        indices = (
            faulty[np.newaxis, :]
            + rows * np.arange(n_pages, dtype=np.int64)[:, np.newaxis]
        ).ravel()
        keep = indices < n_values
        return np.tile(faulty, n_pages)[keep], indices[keep]

    def _corrupt_words(self, rows: np.ndarray, stored: np.ndarray) -> np.ndarray:
        """Apply each row's fault behaviour to a batch of stored patterns.

        The fault map is defined over the data columns; scheme overhead
        columns (parity, FM-LUT) are fault-free in this model, matching the
        paper's 16 kB fault population.
        """
        data_mask = np.uint64((1 << self._organization.word_width) - 1)
        data_part = stored & data_mask
        upper_part = stored & ~data_mask
        return self._fault_map.corrupt_words(rows, data_part) | upper_part

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def affected_value_indices(self, n_values: int) -> np.ndarray:
        """Flat indices of values that land on faulty rows when storing ``n_values``."""
        if n_values < 0:
            raise ValueError("n_values must be non-negative")
        _rows, indices = self._affected(n_values)
        return np.sort(indices)
