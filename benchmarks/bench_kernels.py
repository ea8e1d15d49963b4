"""Per-kernel microbenchmarks of the pluggable kernel backends.

Times every kernel of :mod:`repro.kernels` (SECDED encode / syndrome /
decode, FM-LUT apply, corruption masks, 2's-complement codecs, the rejection
sampler's validity check) on each backend that builds on this machine, in
words per second.  Two invariants are gated:

* **bit identity** -- every backend returns exactly the reference result on
  the timed inputs (the deep property suite is ``tests/test_kernels.py``;
  this is a last-line check on the very arrays being timed);
* **>= 3x on XOR-popcount decode** -- where a C compiler is available, the
  compiled ``secded_decode`` must beat the NumPy reference by at least 3x
  (the headline win of the compiled tier; in practice the margin is larger).

With ``REPRO_BENCH_JSON`` set, one record per (kernel, backend) pair is
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

KERNEL_CASES = {
    "secded_encode": lambda b: b.secded_encode(DATA32, SPEC),
    "secded_syndrome": lambda b: b.secded_syndrome(CORRUPTED, SPEC),
    "secded_decode": lambda b: b.secded_decode(CORRUPTED, SPEC),
    "fmlut_encode": lambda b: b.fmlut_encode(DATA32, ROWS, ENTRIES, ROTATIONS, 32),
    "fmlut_decode": lambda b: b.fmlut_decode(STORED, ROWS, ROTATIONS, 32),
    "apply_corruption_masks": lambda b: b.apply_corruption_masks(
        DATA32, ROWS, AND_MASKS, OR_MASKS, XOR_MASKS
    ),
    "to_twos_complement": lambda b: b.to_twos_complement(SIGNED, 32),
    "from_twos_complement": lambda b: b.from_twos_complement(DATA32, 32),
    "invalid_map_mask": lambda b: b.invalid_map_mask(DRAWS, 32, 2),
}

_WORDS_PER_CALL = {name: N_WORDS for name in KERNEL_CASES}
_WORDS_PER_CALL["invalid_map_mask"] = DRAWS.size


def _best_seconds(callable_, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("kernel", sorted(KERNEL_CASES))
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_kernel_throughput(kernel, backend_name, json_summary):
    """words/s per kernel per backend, with bit identity on the timed inputs."""
    backend = build_backend(backend_name)
    run = KERNEL_CASES[kernel]
    for want, got in zip(_as_tuple(run(REFERENCE)), _as_tuple(run(backend))):
        assert np.array_equal(want, got), f"{backend_name} diverges on {kernel}"
    seconds = _best_seconds(lambda: run(backend))
    words_per_second = _WORDS_PER_CALL[kernel] / seconds
    json_summary(
        "kernel_throughput",
        {
            "kernel": kernel,
            "backend": backend_name,
            "words": _WORDS_PER_CALL[kernel],
            "seconds": seconds,
            "words_per_second": words_per_second,
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
