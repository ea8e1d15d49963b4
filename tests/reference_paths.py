"""Scalar reference paths of the batched fault datapath.

The product code places clustered faults, replays the transient tier and
applies it to a store's words with whole-array NumPy.  Each function here is
the plain per-item Python version of one of those steps.  The differential
tests in ``test_scenarios.py``, ``test_transient.py`` and
``test_die_datapath.py`` compare the product path against them, and
``benchmarks/bench_scenarios.py`` times the product path against them:

* :func:`cluster_cells` -- the burst geometry and rejection rule of
  :meth:`~repro.scenarios.ClusterTransform.sample_cells`, one map and one
  burst at a time.  It consumes the generator differently, so the two agree
  in distribution, not stream by stream;
* :func:`transient_observed_masks` -- the transient tier's canonical pass
  loop.  It makes the draws of
  :meth:`~repro.scenarios.TransientTier.sample_read_effects` in the same order
  and sets one bit at a time, so its masks are bit-identical;
* :func:`transient_load` -- a store load under a transient tier, one word at a
  time through the scheme's scalar encode/decode and
  :meth:`~repro.memory.faults.FaultMap.corrupt_word`.  It shares nothing with
  the store's plan and is bit-identical to
  :meth:`~repro.sim.faulty_storage.FaultyTensorStore.load_quantized`.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.memory.words import from_twos_complement, to_twos_complement
from repro.scenarios import ReadDisturbSource, SoftErrorSource


def cluster_cells(
    transform, organization, fault_count, batch_size, rng, *,
    max_faults_per_word=None, max_rounds=1000,
):
    """``batch_size`` burst layouts of ``fault_count`` (>= 1) cells each.

    Uses the transform's ``row_fraction`` as given, so it covers layouts in
    which both orientations fit.
    """
    size = min(transform.cluster_size, fault_count)
    n_clusters = -(-fault_count // size)
    lengths = [size] * (n_clusters - 1) + [fault_count - size * (n_clusters - 1)]
    rows_n, width = organization.rows, organization.word_width
    layouts = []
    for _ in range(batch_size):
        for _round in range(max_rounds):
            cells = []
            for length in lengths:
                along_row = rng.random() < transform.row_fraction
                u_anchor = rng.random()
                u_start = rng.random()
                if along_row:
                    row = int(u_anchor * rows_n)
                    col0 = int(u_start * (width - length + 1))
                    cells.extend((row, col0 + j) for j in range(length))
                else:
                    col = int(u_anchor * width)
                    row0 = int(u_start * (rows_n - length + 1))
                    cells.extend((row0 + j, col) for j in range(length))
            if len(set(cells)) != fault_count:
                continue
            if max_faults_per_word is None or (
                max(Counter(row for row, _col in cells).values()) <= max_faults_per_word
            ):
                break
        else:
            raise RuntimeError(
                f"could not place a clustered fault map after {max_rounds} rounds"
            )
        layouts.append(
            (
                np.array([row for row, _col in cells], dtype=np.int64),
                np.array([col for _row, col in cells], dtype=np.int64),
            )
        )
    return layouts


def transient_observed_masks(tier, organization, n_values, passes, rng):
    """Per-value XOR masks of the tier's final read (disturb state ^ SER)."""
    rows, width = organization.rows, organization.word_width
    total = n_values * width
    disturb = [0] * rows
    for pass_index in range(1, passes + 1):
        scrubbing = tier.scrubbing
        if scrubbing is not None and pass_index > 1 and (pass_index - 1) % scrubbing.period == 0:
            disturb = [0] * rows
        for source in tier.sources:
            if isinstance(source, ReadDisturbSource):
                count = int(rng.binomial(total, source.disturb_probability))
                if count:
                    for position in rng.choice(total, size=count, replace=False).tolist():
                        disturb[(position // width) % rows] |= 1 << (position % width)
    read = [0] * n_values
    for source in tier.sources:
        if not isinstance(source, SoftErrorSource):
            continue
        if source.distribution == "bernoulli":
            count = int(rng.binomial(total, source.flip_probability))
            positions = rng.choice(total, size=count, replace=False) if count else []
        else:
            count = int(rng.poisson(source.flip_probability * total))
            positions = rng.integers(0, total, size=count) if count else []
        for position in map(int, positions):
            read[position // width] ^= 1 << (position % width)
    return np.array(
        [disturb[index % rows] ^ read[index] for index in range(n_values)],
        dtype=np.uint64,
    )


def transient_load(
    organization, scheme, fault_map, fixed_point, codes, *,
    transient, transient_seed, access_trace=1,
):
    """De-quantised values of a store load under a transient tier.

    Takes the arguments of :class:`~repro.sim.faulty_storage.FaultyTensorStore`
    and the signed codes to load; walks every value, faulty row or not.
    """
    width, rows = organization.word_width, organization.rows
    data_mask = (1 << width) - 1
    scheme = scheme.for_die(rows, fault_map.faulty_columns_by_row())
    flat = np.asarray(codes, dtype=np.int64).reshape(-1)
    rng = np.random.default_rng(np.random.SeedSequence(transient_seed))
    masks = transient_observed_masks(
        transient, organization, flat.size, access_trace, rng
    ).tolist()
    out = np.empty(flat.size, dtype=np.int64)
    for index, code in enumerate(flat.tolist()):
        row = index % rows
        stored = int(scheme.encode_word(row, to_twos_complement(code, width)))
        observed = fault_map.corrupt_word(row, stored & data_mask) | (stored & ~data_mask)
        recovered = int(scheme.decode_word(row, observed ^ masks[index]))
        out[index] = from_twos_complement(recovered, width)
    return fixed_point.dequantize_array(out).reshape(np.shape(codes))
