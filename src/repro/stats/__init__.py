"""Streaming, mergeable statistics core for the Monte-Carlo reduction path.

Every Monte-Carlo figure in this repository is a weighted reduction over
thousands of independent die evaluations.  Historically each worker shipped
its raw per-die scores back to the parent (an O(dies) payload) and the parent
materialised every score before building a CDF.  This package factors that
reduction into *mergeable streaming summaries* -- objects that absorb batches
of observations, merge with each other associatively, and finalise into the
statistics the figures need -- so a shard's result can be O(bins) instead of
O(dies), and a sweep can stop early once its confidence target is met.

Two summary families coexist:

* **Exact** (:class:`WeightedSampleBuffer`): keeps every observation.  This
  is the reduction behind :meth:`repro.quality.cdf.WeightedEcdf.from_groups`
  and the fixed-budget sweeps, whose pinned golden curves require bit-exact
  per-die values.  O(samples) memory, but mergeable and order-canonical.
* **Sketched** (:class:`StreamingMoments`, :class:`FixedGridEcdfSketch`):
  bounded-memory summaries used by the adaptive-budget sweeps, where shards
  return O(bins) payloads.  :class:`StratifiedYield` folds them per (scheme,
  stratum) into the adaptive round state and answers the stratified yield,
  its confidence half-width and the next round's Neyman allocation.

Merging floats is associative only up to rounding, so reproducibility is a
*protocol*, not a property of the objects: callers must fold summaries in a
canonical order (the sweep engine merges per shard index, never per arrival
order).  Under that discipline results are bit-identical for any worker
count.
"""

from repro.stats.base import StreamingSummary
from repro.stats.buffer import WeightedSampleBuffer
from repro.stats.moments import MomentsResult, StreamingMoments
from repro.stats.sketch import FixedGridEcdfSketch
from repro.stats.strata import (
    StratifiedYield,
    largest_remainder_allocation,
    normal_critical_value,
)

__all__ = [
    "FixedGridEcdfSketch",
    "MomentsResult",
    "StratifiedYield",
    "StreamingMoments",
    "StreamingSummary",
    "WeightedSampleBuffer",
    "largest_remainder_allocation",
    "normal_critical_value",
]
