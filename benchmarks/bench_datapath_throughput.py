"""Speed gates of the protection-scheme datapath and the MSE evaluation.

``test_bit_shuffle_batch_speedup`` pins down the headline win of the
vectorised datapath: the batch ``encode_words``/``decode_words`` round trip
must beat the scalar word-at-a-time loop by at least 10x on the bit-shuffle
scheme (in practice the margin is two orders of magnitude).
``test_mse_evaluation_throughput`` likewise gates the table-driven Eq. 6
evaluation against the per-row ``residual_error_positions`` oracle, and
``test_die_datapath_speedup`` gates a die's stores sharing one
``DieDatapath`` against one fresh store per scheme.  All three time the two
paths back to back in one process, so the ratios do not depend on host
speed.  Batch-versus-scalar equality over every scheme is tier-1's
``tests/test_batch_equivalence.py``, and shared-versus-fresh equality is
``tests/test_die_datapath.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.faultmodel.montecarlo import FaultMapSampler
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.quality.mse import mse_from_error_positions, mse_of_fault_map
from repro.quantize.fixedpoint import FixedPointFormat
from repro.scenarios import default_scenario
from repro.sim.config import build_scheme
from repro.sim.experiment import benchmark_by_name
from repro.sim.faulty_storage import FaultyTensorStore, QuantizedTensor

BATCH_ROWS = 256
BATCH_WORDS = (
    np.arange(1, 65537, dtype=np.uint64) * np.uint64(0x9E3779B9)
) & np.uint64(0xFFFFFFFF)
BATCH_ROW_INDICES = (np.arange(BATCH_WORDS.size) % BATCH_ROWS).astype(np.int64)


def _scalar_roundtrip(scheme, rows, words):
    total = 0
    for row, word in zip(rows.tolist(), words.tolist()):
        stored = scheme.encode_word(row, int(word))
        total += scheme.decode_word(row, stored)
    return total


def _batch_roundtrip(scheme, rows, words):
    stored = scheme.encode_words(rows, words)
    return int(scheme.decode_words(rows, stored).sum())


def test_bit_shuffle_batch_speedup(json_summary):
    """Batch datapath must be >= 10x faster than the scalar seed path."""
    scheme = BitShuffleScheme(32, 2, rows=BATCH_ROWS)
    scheme.program({row: [(row * 7) % 32] for row in range(0, BATCH_ROWS, 3)})
    n = 65536

    start = time.perf_counter()
    _scalar_roundtrip(scheme, BATCH_ROW_INDICES[:n], BATCH_WORDS[:n])
    scalar_seconds = time.perf_counter() - start

    batch_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _batch_roundtrip(scheme, BATCH_ROW_INDICES[:n], BATCH_WORDS[:n])
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

    speedup = scalar_seconds / batch_seconds
    print(
        f"\nbit-shuffle batch speedup: {speedup:.1f}x "
        f"(scalar {n / scalar_seconds:,.0f} words/s, "
        f"batch {n / batch_seconds:,.0f} words/s)"
    )
    json_summary(
        "datapath_batch_speedup",
        {
            "scheme": "bit-shuffle-nfm2",
            "speedup_vs_scalar": speedup,
            "scalar_words_per_second": n / scalar_seconds,
            "batch_words_per_second": n / batch_seconds,
        },
    )
    assert speedup >= 10.0


def _positions_oracle_mse(fault_map, scheme):
    """Eq. 6 through the scalar ``residual_error_positions`` contract."""
    positions = [
        scheme.residual_error_positions(row, columns)
        for row, columns in fault_map.faulty_columns_by_row().items()
    ]
    return mse_from_error_positions(positions, fault_map.organization.rows)


def test_mse_evaluation_throughput(json_summary):
    """Analytical MSE evaluation rate over random 16 kB fault maps.

    Times the table-driven ``mse_of_fault_map`` and the positions oracle back
    to back on the same 100-fault maps for all seven Fig. 5 schemes.  The
    values must be bit-identical and the table path >= 5x faster; both
    timings come from one process, so the ratio does not depend on host
    speed.
    """
    org = MemoryOrganization.paper_16kb()
    sampler = FaultMapSampler(
        org, np.random.default_rng(5), default_scenario()
    )
    fault_maps = sampler.sample_batch(100, 20)
    schemes = [NoProtection(32), PriorityEccScheme(32)] + [
        BitShuffleScheme(32, n_fm) for n_fm in range(1, 6)
    ]
    evaluations = len(fault_maps) * len(schemes)

    def evaluate(mse):
        return [mse(m, scheme) for scheme in schemes for m in fault_maps]

    oracle_seconds = table_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        oracle_values = evaluate(_positions_oracle_mse)
        middle = time.perf_counter()
        table_values = evaluate(mse_of_fault_map)
        oracle_seconds = min(oracle_seconds, middle - start)
        table_seconds = min(table_seconds, time.perf_counter() - middle)

    assert [v.hex() for v in table_values] == [v.hex() for v in oracle_values]
    speedup = oracle_seconds / table_seconds
    print(
        f"\nMSE evaluation speedup: {speedup:.1f}x "
        f"(oracle {evaluations / oracle_seconds:,.0f} maps/s, "
        f"table {evaluations / table_seconds:,.0f} maps/s)"
    )
    json_summary(
        "mse_evaluation_throughput",
        {
            "schemes": len(schemes),
            "maps_per_second": evaluations / table_seconds,
            "positions_oracle_maps_per_second": evaluations / oracle_seconds,
            "speedup_vs_positions_oracle": speedup,
        },
    )
    assert speedup >= 5.0


def test_die_datapath_speedup(json_summary):
    """A die's schemes sharing one datapath beat one fresh store per scheme.

    The 1024 x 32 memory, the five schemes and the ElasticNet tensor at
    scale 0.25 are those of the ``dse-optimize`` perfbench workload; the 40
    dies hold 10 to 200 faults.  Both paths must return identical tensors.
    On a 2-vCPU x86-64 VM the shared path measured 1.5-1.6x with the NumPy
    kernels and 1.85-1.95x with the C kernels; the gate leaves margin below
    the lower figure.
    """
    organization = MemoryOrganization(rows=1024, word_width=32)
    fixed_point = FixedPointFormat(total_bits=32, frac_bits=16)
    features = benchmark_by_name("elasticnet", scale=0.25).train_features
    raw = fixed_point.quantize_array(np.asarray(features, dtype=np.float64))
    schemes = [
        build_scheme(spec, 32)
        for spec in (
            "no-protection", "p-ecc", "bit-shuffle-nfm1", "bit-shuffle-nfm2", "secded",
        )
    ]
    rng = np.random.default_rng(29)
    fault_maps = [
        FaultMap.random_with_count(organization, int(count), rng)
        for count in np.linspace(10, 200, 40)
    ]
    loads = len(fault_maps) * len(schemes)

    def per_scheme():
        return [
            FaultyTensorStore(organization, scheme, fault_map, fixed_point).load_quantized(raw)
            for fault_map in fault_maps
            for scheme in schemes
        ]

    def shared():
        tensor = QuantizedTensor(fixed_point, raw)
        out = []
        for fault_map in fault_maps:
            die = None
            for scheme in schemes:
                store = FaultyTensorStore(
                    organization, scheme, fault_map, fixed_point, die=die
                )
                die = store.die
                out.append(store.load_quantized(tensor))
        return out

    per_scheme_seconds = shared_seconds = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        reference = per_scheme()
        middle = time.perf_counter()
        candidate = shared()
        per_scheme_seconds = min(per_scheme_seconds, middle - start)
        shared_seconds = min(shared_seconds, time.perf_counter() - middle)

    assert [a.tobytes() for a in candidate] == [a.tobytes() for a in reference]
    speedup = per_scheme_seconds / shared_seconds
    print(
        f"\ndie datapath speedup: {speedup:.2f}x "
        f"(per-scheme stores {loads / per_scheme_seconds:,.0f} loads/s, "
        f"shared die {loads / shared_seconds:,.0f} loads/s)"
    )
    json_summary(
        "die_datapath_speedup",
        {
            "schemes": len(schemes),
            "dies": len(fault_maps),
            "speedup_vs_per_scheme_stores": speedup,
            "per_scheme_loads_per_second": loads / per_scheme_seconds,
            "shared_loads_per_second": loads / shared_seconds,
        },
    )
    assert speedup >= 1.3
