"""Protection schemes: the paper's bit-shuffling contribution and its baselines.

Every scheme implements the :class:`~repro.core.base.ProtectionScheme`
interface with two complementary views:

* an *operational* view used by the bit-accurate
  :class:`~repro.memory.controller.ProtectedMemory`: scalar ``encode_word`` /
  ``decode_word``, plus the bit-exact vectorised batch form ``encode_words`` /
  ``decode_words`` that the simulation datapath runs on, and
* an *analytical* view (``residual_error_positions``) used by the fast
  Monte-Carlo yield model behind Fig. 5 and Fig. 7, which only needs to know
  which logical data bits can still be corrupted for a given set of physical
  fault positions, plus its batch form ``error_energy_tables`` (the Eq. 6
  energy of every lone fault, and an exact function for multi-fault rows)
  that the batched MSE scores whole shards of dies with.

Available schemes:

* :class:`NoProtection` -- raw storage, every fault corrupts its bit.
* :class:`SecdedScheme` -- full-word SECDED Hamming code (H(39,32) for 32-bit
  data), the conventional baseline.
* :class:`PriorityEccScheme` -- priority-based ECC: SECDED on the MSB half of
  each word only (H(22,16) for 32-bit data), the prior-art baseline.
* :class:`BitShuffleScheme` -- the paper's contribution: an FM-LUT records the
  faulty segment of each row and the data word is circularly rotated so only
  the least significant segment can be corrupted.
"""

from repro.core.base import ProtectionScheme
from repro.core.fault_map_lut import FaultMapLut
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.core.segments import (
    error_magnitude_for_fault,
    error_magnitude_profile,
    rotation_amount,
    segment_index,
    segment_size,
    worst_case_error_magnitude,
)
from repro.core.shuffler import BitShuffler

__all__ = [
    "BitShuffleScheme",
    "BitShuffler",
    "FaultMapLut",
    "NoProtection",
    "PriorityEccScheme",
    "ProtectionScheme",
    "SecdedScheme",
    "error_magnitude_for_fault",
    "error_magnitude_profile",
    "rotation_amount",
    "segment_index",
    "segment_size",
    "worst_case_error_magnitude",
]
