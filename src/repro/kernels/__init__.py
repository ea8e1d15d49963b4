"""Kernel-backend registry and capability probe.

The five kernels of the hot Monte-Carlo loops (SECDED encode/decode, FM-LUT
encode/decode and the ElasticNet coordinate-descent sweeps) run through
whichever
:class:`~repro.kernels.api.KernelBackend` this module selects at first use:

* ``REPRO_KERNEL_BACKEND={numpy,c}`` forces a backend.  If the forced
  backend cannot be built (no compiler, failed self-test) or the name is
  unknown, a single :class:`RuntimeWarning` is emitted and the ``numpy``
  reference is used instead — the run still completes, just slower.
* Unset, the probe tries ``c`` and falls back to ``numpy`` **silently**:
  machines without a toolchain behave exactly as before this registry
  existed.

Every candidate is self-tested against the NumPy reference on deterministic
inputs before it can be selected, so a miscompiled kernel can never leak
non-identical results into a run.  Backend choice changes throughput only —
never results (the rng draws themselves always stay in NumPy).
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.kernels.api import KernelBackend, KernelUnavailableError, SecdedKernelSpec
from repro.kernels.numpy_backend import NumpyKernelBackend

__all__ = [
    "KernelBackend",
    "KernelUnavailableError",
    "SecdedKernelSpec",
    "active_backend",
    "available_backends",
    "reset_active_backend",
    "set_backend",
    "use_backend",
]

ENV_BACKEND = "REPRO_KERNEL_BACKEND"

_REFERENCE = NumpyKernelBackend()
_active: Optional[KernelBackend] = None


def _make_c_backend() -> KernelBackend:
    from repro.kernels.c_backend import CKernelBackend

    return CKernelBackend()


_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {
    "numpy": lambda: _REFERENCE,
    "c": _make_c_backend,
}

#: Auto-probe preference: fastest first, reference last (always succeeds).
_AUTO_ORDER = ("c", "numpy")


def _self_test(candidate: KernelBackend) -> None:
    """Compare the candidate against the NumPy reference on fixed inputs.

    Raises :class:`KernelUnavailableError` on the first mismatch; the probe
    then discards the candidate.  Cases cover all five interface kernels
    (SECDED encode/decode, FM-LUT encode/decode, ElasticNet sweeps),
    including the boundary patterns (all-zeros, all-ones) and, for the
    sweeps, a zero-norm column, a column the L1 penalty holds at zero and
    both intercept modes, compared bit for bit.
    """
    if candidate is _REFERENCE:
        return
    rng = np.random.default_rng(20150607)  # DAC'15 publication date

    # SECDED over an 8-bit data word (the paper's configuration).
    positions = [p for p in range(1, 14) if (p & (p - 1)) != 0]
    parity_pos = [1 << j for j in range(4)]
    masks = [
        np.uint64(sum(1 << p for p in range(1, 14) if (p >> j) & 1))
        for j in range(4)
    ]
    spec = SecdedKernelSpec(
        data_bits=8,
        parity_bits=4,
        codeword_bits=14,
        data_positions=np.array(positions, dtype=np.int64),
        parity_positions=np.array(parity_pos, dtype=np.int64),
        check_masks=np.array(masks, dtype=np.uint64),
    )
    data = np.concatenate(
        [np.array([0, 255, 1, 128], dtype=np.uint64),
         rng.integers(0, 256, size=64).astype(np.uint64)]
    )
    want_cw = _REFERENCE.secded_encode(data, spec)
    got_cw = candidate.secded_encode(data, spec)
    if not np.array_equal(want_cw, got_cw):
        raise KernelUnavailableError(f"{candidate.name}: secded_encode self-test failed")
    flips = np.uint64(1) << rng.integers(0, 14, size=data.size).astype(np.uint64)
    corrupted = want_cw ^ flips
    if not np.array_equal(
        _REFERENCE.secded_decode(corrupted, spec),
        candidate.secded_decode(corrupted, spec),
    ):
        raise KernelUnavailableError(f"{candidate.name}: secded_decode self-test failed")

    # FM-LUT apply over a 7-row, width-8, 2-segment LUT.
    width = 8
    entries = rng.integers(0, 4, size=7).astype(np.int64)
    rotations = ((2 - entries) * 4) % width
    rows = rng.integers(0, 7, size=40).astype(np.int64)
    words = rng.integers(0, 1 << width, size=40).astype(np.uint64)
    words[:2] = (0, (1 << width) - 1)
    stored = _REFERENCE.fmlut_encode(words, rows, entries, rotations, width)
    if not np.array_equal(stored, candidate.fmlut_encode(words, rows, entries, rotations, width)):
        raise KernelUnavailableError(f"{candidate.name}: fmlut_encode self-test failed")
    if not np.array_equal(
        _REFERENCE.fmlut_decode(stored, rows, rotations, width),
        candidate.fmlut_decode(stored, rows, rotations, width),
    ):
        raise KernelUnavailableError(f"{candidate.name}: fmlut_decode self-test failed")

    # ElasticNet sweeps on a 48x5 regression: column 2 is all zeros (zero
    # norm with or without centring), column 4 is weak noise the L1 penalty
    # keeps at zero.
    features = rng.normal(size=(48, 5))
    features[:, 2] = 0.0
    features[:, 4] *= 1e-3
    targets = features @ np.array([1.5, -2.0, 0.0, 0.75, 0.0]) + 0.25
    for centre in (True, False):
        x_centered = features - features.mean(axis=0) if centre else features.copy()
        outputs = []
        for backend in (_REFERENCE, candidate):
            residual = targets - targets.mean() if centre else targets.copy()
            weights, n_iter = backend.elasticnet_sweeps(
                x_centered,
                np.asfortranarray(x_centered),
                residual,
                (x_centered ** 2).sum(axis=0) / x_centered.shape[0],
                0.05,
                0.05,
                50,
                1e-9,
            )
            outputs.append((weights.view(np.uint64), residual.view(np.uint64), n_iter))
        (want_w, want_r, want_n), (got_w, got_r, got_n) = outputs
        if not (
            np.array_equal(want_w, got_w) and np.array_equal(want_r, got_r) and want_n == got_n
        ):
            raise KernelUnavailableError(
                f"{candidate.name}: elasticnet_sweeps self-test failed"
            )


def _build(name: str) -> KernelBackend:
    """Instantiate and self-test one named backend."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KernelUnavailableError(
            f"unknown kernel backend {name!r}; known: {', '.join(sorted(_FACTORIES))}"
        )
    backend = factory()
    _self_test(backend)
    return backend


def _probe() -> KernelBackend:
    forced = os.environ.get(ENV_BACKEND)
    if forced:
        try:
            return _build(forced.strip().lower())
        except KernelUnavailableError as exc:
            warnings.warn(
                f"{ENV_BACKEND}={forced!r} unavailable ({exc}); "
                "falling back to the numpy reference backend",
                RuntimeWarning,
                stacklevel=3,
            )
            return _REFERENCE
    for name in _AUTO_ORDER:
        try:
            return _build(name)
        except KernelUnavailableError:
            continue
    return _REFERENCE


def active_backend() -> KernelBackend:
    """The process-wide backend, probing (once) on first use."""
    global _active
    if _active is None:
        _active = _probe()
    return _active


def set_backend(backend) -> KernelBackend:
    """Force the process-wide backend; accepts a name or an instance."""
    global _active
    if isinstance(backend, str):
        backend = _build(backend.strip().lower())
    elif not isinstance(backend, KernelBackend):
        raise TypeError(f"expected backend name or KernelBackend, got {type(backend)!r}")
    _active = backend
    return backend


def reset_active_backend() -> None:
    """Drop the cached selection so the next use re-probes (test hook)."""
    global _active
    _active = None


@contextlib.contextmanager
def use_backend(backend) -> Iterator[KernelBackend]:
    """Temporarily switch the process-wide backend (test/bench hook)."""
    global _active
    previous = _active
    try:
        yield set_backend(backend)
    finally:
        _active = previous


def available_backends() -> List[str]:
    """Names of backends that build and pass the self-test on this machine."""
    names = []
    for name in _FACTORIES:
        try:
            _build(name)
        except KernelUnavailableError:
            continue
        names.append(name)
    return names
