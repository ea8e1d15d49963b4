"""Per-kernel microbenchmarks of the pluggable kernel backends.

Times every kernel of :mod:`repro.kernels` (SECDED encode / syndrome /
decode, FM-LUT apply, corruption masks, 2's-complement codecs, the rejection
sampler's validity check) on each backend that builds on this machine, in
words per second, at the datapath's per-die call sizes (41 and 600 words)
and on a bulk 131 072-word array.  The ``c`` backend compiles only SECDED
encode/decode and FM-LUT, the kernels it wins at datapath sizes; its other
rows time the NumPy code it inherits.  Two invariants are gated:

* **bit identity** -- every backend returns exactly the reference result on
  the timed inputs (the deep property suite is ``tests/test_kernels.py``;
  this is a last-line check on the very arrays being timed);
* **>= 3x on XOR-popcount decode** -- where a C compiler is available, the
  compiled ``secded_decode`` must beat the NumPy reference by at least 3x
  (the headline win of the compiled tier; in practice the margin is larger).

With ``REPRO_BENCH_JSON`` set, one record per (kernel, backend, size) is
appended for CI artifacts; the ``kernel_backend`` field names the backend so
perf trends can be split by tier.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.ecc.hamming import secded_code_for_data_bits
from repro.kernels import available_backends
from repro.kernels import _build as build_backend
from repro.kernels.numpy_backend import NumpyKernelBackend

REFERENCE = NumpyKernelBackend()
BACKENDS = available_backends()
COMPILED = [name for name in BACKENDS if name != "numpy"]

N_WORDS = 1 << 17
SPEC = secded_code_for_data_bits(32).kernel_spec

_rng = np.random.default_rng(0xDAC15)
DATA32 = _rng.integers(0, 1 << 32, size=N_WORDS).astype(np.uint64)
CODEWORDS = REFERENCE.secded_encode(DATA32, SPEC)
CORRUPTED = CODEWORDS ^ (
    np.uint64(1) << _rng.integers(0, SPEC.codeword_bits, size=N_WORDS).astype(np.uint64)
)

N_ROWS = 256
ROWS = _rng.integers(0, N_ROWS, size=N_WORDS).astype(np.int64)
ENTRIES = _rng.integers(0, 4, size=N_ROWS).astype(np.int64)
ROTATIONS = ((4 - ENTRIES) * 8) % 32
AND_MASKS = _rng.integers(0, 1 << 32, size=N_ROWS).astype(np.uint64)
OR_MASKS = _rng.integers(0, 1 << 32, size=N_ROWS).astype(np.uint64) & ~AND_MASKS
XOR_MASKS = np.zeros(N_ROWS, dtype=np.uint64)
STORED = REFERENCE.fmlut_encode(DATA32, ROWS, ENTRIES, ROTATIONS, 32)
SIGNED = _rng.integers(-(1 << 31), 1 << 31, size=N_WORDS).astype(np.int64)
DRAWS = _rng.integers(0, N_ROWS * 32, size=(N_WORDS // 8, 4)).astype(np.int64)

#: Words per call: the datapath's median and largest per-die calls (the
#: Fig. 7 and DSE workloads make 28-652-word calls), then a bulk array.
CALL_SIZES = (41, 600, N_WORDS)


def _kernel_cases(n: int):
    """``{kernel: (call, words)}`` on the first ``n`` words of the fixed inputs."""
    data, corrupted, rows = DATA32[:n], CORRUPTED[:n], ROWS[:n]
    stored, signed, draws = STORED[:n], SIGNED[:n], DRAWS[: max(1, n // 8)]
    calls = {
        "secded_encode": lambda b: b.secded_encode(data, SPEC),
        "secded_syndrome": lambda b: b.secded_syndrome(corrupted, SPEC),
        "secded_decode": lambda b: b.secded_decode(corrupted, SPEC),
        "fmlut_encode": lambda b: b.fmlut_encode(data, rows, ENTRIES, ROTATIONS, 32),
        "fmlut_decode": lambda b: b.fmlut_decode(stored, rows, ROTATIONS, 32),
        "apply_corruption_masks": lambda b: b.apply_corruption_masks(
            data, rows, AND_MASKS, OR_MASKS, XOR_MASKS
        ),
        "to_twos_complement": lambda b: b.to_twos_complement(signed, 32),
        "from_twos_complement": lambda b: b.from_twos_complement(data, 32),
        "invalid_map_mask": lambda b: b.invalid_map_mask(draws, 32, 2),
    }
    return {
        kernel: (call, draws.size if kernel == "invalid_map_mask" else n)
        for kernel, call in calls.items()
    }


def _best_seconds(callable_, repeats: int = 5, loops: int = 1) -> float:
    """Best per-call time over ``repeats`` rounds of ``loops`` calls each."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            callable_()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def _as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("words", CALL_SIZES)
@pytest.mark.parametrize("kernel", sorted(_kernel_cases(1)))
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_kernel_throughput(kernel, backend_name, words, json_summary):
    """words/s per kernel per backend per call size, with bit identity on the timed inputs."""
    backend = build_backend(backend_name)
    run, counted = _kernel_cases(words)[kernel]
    for want, got in zip(_as_tuple(run(REFERENCE)), _as_tuple(run(backend))):
        assert np.array_equal(want, got), f"{backend_name} diverges on {kernel}"
    # Small calls are timed in batches so the clock resolves them.
    seconds = _best_seconds(lambda: run(backend), loops=max(1, min(1000, N_WORDS // words)))
    json_summary(
        "kernel_throughput",
        {
            "kernel": kernel,
            "backend": backend_name,
            "words": counted,
            "seconds": seconds,
            "words_per_second": counted / seconds,
        },
    )


@pytest.mark.skipif(not COMPILED, reason="no compiled backend available")
@pytest.mark.parametrize("backend_name", COMPILED)
def test_compiled_secded_decode_speedup(backend_name, json_summary):
    """The compiled XOR-popcount decode must beat the NumPy reference >= 3x."""
    backend = build_backend(backend_name)
    assert np.array_equal(
        backend.secded_decode(CORRUPTED, SPEC), REFERENCE.secded_decode(CORRUPTED, SPEC)
    )
    numpy_seconds = _best_seconds(lambda: REFERENCE.secded_decode(CORRUPTED, SPEC))
    compiled_seconds = _best_seconds(lambda: backend.secded_decode(CORRUPTED, SPEC))
    speedup = numpy_seconds / compiled_seconds
    print(
        f"\nsecded_decode speedup [{backend_name}]: {speedup:.1f}x "
        f"(numpy {N_WORDS / numpy_seconds:,.0f} words/s, "
        f"{backend_name} {N_WORDS / compiled_seconds:,.0f} words/s)"
    )
    json_summary(
        "kernel_speedup",
        {
            "kernel": "secded_decode",
            "backend": backend_name,
            "speedup_vs_numpy": speedup,
        },
    )
    assert speedup >= 3.0
