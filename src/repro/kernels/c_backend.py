"""Compiled C kernel backend (ctypes over a runtime-built shared library).

The extension is built the same way the project installs itself: offline,
with nothing but the standard library (see ``_local_build_backend.py`` at the
repo root for the same philosophy applied to wheels).  The first use invokes
the system C compiler on ``_kernels.c`` and caches the shared object under a
content-addressed name — keyed by the source bytes, the compiler, and the
flags — so later processes (pytest workers, sweep-engine shards) load the
cached binary without recompiling.  ``os.replace`` installs the finished
object atomically, so concurrent first builds cannot observe a torn file.

Environment knobs:

``REPRO_KERNEL_CC``
    Compiler executable to use (default: first of ``cc``, ``gcc``, ``clang``
    found on PATH).  Pointing this at a broken compiler is how the test suite
    forces the capability probe down its fallback path.
``REPRO_KERNEL_CACHE``
    Directory for built objects (default ``~/.cache/repro-kernels``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.kernels.api import KernelUnavailableError, SecdedKernelSpec
from repro.kernels.numpy_backend import NumpyKernelBackend
from repro.memory.words import bit_mask

__all__ = ["CKernelBackend", "compile_kernels"]

_SOURCE_PATH = Path(__file__).with_name("_kernels.c")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c11")
# The library is compiled on - and cached per - this machine, so tuning for
# the local CPU is safe and matters: -march=native turns the popcount
# fallback sequence into the single POPCNT instruction on x86-64.  Compilers
# without the flag (some cc shims) get the portable build.
_ARCH_FLAGS = ("-march=native",)

# Buffers travel as plain addresses: a typed pointer built per argument
# (``ndarray.ctypes.data_as``) cost about as much as the kernel itself on the
# few hundred words a die stores.  The C prototypes keep the element types.
_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64

#: Argument types of every exported kernel (all return ``int``), in the
#: order of the C prototypes in ``_kernels.c``.
_SIGNATURES = {
    "rk_secded_encode": (_PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR),
    "rk_secded_decode": (_PTR, _PTR, _I64, _I64, _I64, _I64, _PTR, _PTR),
    "rk_fmlut_encode": (_PTR, _PTR, _PTR, _I64, _PTR, _PTR, _I64),
    "rk_fmlut_decode": (_PTR, _PTR, _PTR, _I64, _PTR, _I64),
}


def _find_compiler() -> str:
    """The compiler executable, honouring ``REPRO_KERNEL_CC``."""
    override = os.environ.get("REPRO_KERNEL_CC")
    if override:
        return override
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    raise KernelUnavailableError("no C compiler found on PATH (cc/gcc/clang)")


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def compile_kernels() -> Path:
    """Compile (or reuse a cached build of) the kernel shared library.

    Raises :class:`KernelUnavailableError` when no compiler is available or
    the compile fails; the error carries the compiler diagnostics so a forced
    failure is debuggable from the probe warning.
    """
    compiler = _find_compiler()
    source = _SOURCE_PATH.read_bytes()
    last_error: Optional[KernelUnavailableError] = None
    for flags in ((*_CFLAGS, *_ARCH_FLAGS), _CFLAGS):
        digest = hashlib.sha256(
            b"\x00".join([source, compiler.encode(), " ".join(flags).encode()])
        ).hexdigest()[:16]
        cache = _cache_dir()
        target = cache / f"repro_kernels_{digest}.so"
        if target.exists():
            return target
        try:
            cache.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise KernelUnavailableError(
                f"cannot create kernel cache dir {cache}: {exc}"
            )
        # Build into a private temp name, then atomically install: concurrent
        # first builds race harmlessly (last rename wins, both files identical).
        fd, temp_name = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            result = subprocess.run(
                [compiler, *flags, "-o", temp_name, str(_SOURCE_PATH)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if result.returncode != 0:
                last_error = KernelUnavailableError(
                    f"C kernel compile failed ({compiler}): "
                    f"{result.stderr.strip() or result.stdout.strip()}"
                )
                continue
            os.replace(temp_name, target)
            return target
        except (OSError, subprocess.SubprocessError) as exc:
            last_error = KernelUnavailableError(
                f"C kernel compile failed ({compiler}): {exc}"
            )
        finally:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
    assert last_error is not None
    raise last_error


def _as_u64(array: np.ndarray):
    return np.ascontiguousarray(array, dtype=np.uint64)


def _as_i64(array: np.ndarray):
    return np.ascontiguousarray(array, dtype=np.int64)


def _ptr(array: np.ndarray) -> int:
    """Address of a contiguous array's data; the caller keeps the array alive."""
    return array.ctypes.data


class CKernelBackend(NumpyKernelBackend):
    """ctypes bindings over the compiled SECDED and FM-LUT kernels.

    Only the kernels that beat NumPy at the datapath's call sizes (tens to a
    few hundred words per call) are compiled.  The corruption masks, the
    2's-complement codecs, the sampler's validity check and the bare SECDED
    syndrome are inherited from the NumPy reference: at those sizes the
    ctypes call costs as much as the NumPy expression, so a compiled copy
    buys nothing.
    """

    name = "c"

    def __init__(self) -> None:
        library_path = compile_kernels()
        try:
            lib = ctypes.CDLL(str(library_path))
        except OSError as exc:
            raise KernelUnavailableError(f"cannot load {library_path}: {exc}")
        for symbol, argtypes in _SIGNATURES.items():
            if not hasattr(lib, symbol):
                raise KernelUnavailableError(f"{library_path} lacks symbol {symbol}")
            function = getattr(lib, symbol)
            function.argtypes = argtypes
            function.restype = ctypes.c_int
        self._lib = lib
        self.library_path = library_path

    # ------------------------------------------------------------------ #
    # XOR-popcount SECDED
    # ------------------------------------------------------------------ #
    def secded_encode(self, data: np.ndarray, spec: SecdedKernelSpec) -> np.ndarray:
        data = _as_u64(data)
        out = np.empty_like(data)
        self._lib.rk_secded_encode(
            _ptr(data),
            _ptr(out),
            ctypes.c_int64(data.size),
            ctypes.c_int64(spec.data_bits),
            ctypes.c_int64(spec.parity_bits),
            _ptr(spec.data_positions),
            _ptr(spec.parity_positions),
            _ptr(spec.check_masks),
        )
        return out

    def secded_decode(self, codewords: np.ndarray, spec: SecdedKernelSpec) -> np.ndarray:
        codewords = _as_u64(codewords)
        out = np.empty_like(codewords)
        status = self._lib.rk_secded_decode(
            _ptr(codewords),
            _ptr(out),
            ctypes.c_int64(codewords.size),
            ctypes.c_int64(spec.data_bits),
            ctypes.c_int64(spec.parity_bits),
            ctypes.c_int64(spec.codeword_bits),
            _ptr(spec.data_positions),
            _ptr(spec.check_masks),
        )
        if status != 0:
            raise ValueError(f"codeword does not fit in {spec.codeword_bits} bits")
        return out

    # ------------------------------------------------------------------ #
    # FM-LUT rotation apply
    # ------------------------------------------------------------------ #
    def fmlut_encode(
        self,
        data: np.ndarray,
        rows: np.ndarray,
        entries: np.ndarray,
        rotations: np.ndarray,
        width: int,
    ) -> np.ndarray:
        self._check_rotation_width(width)
        data = _as_u64(data)
        rows = _as_i64(rows)
        entries = _as_i64(entries)
        rotations = _as_i64(rotations)
        self._check_patterns(data, width)
        out = np.empty_like(data)
        self._lib.rk_fmlut_encode(
            _ptr(data),
            _ptr(rows),
            _ptr(out),
            ctypes.c_int64(data.size),
            _ptr(entries),
            _ptr(rotations),
            ctypes.c_int64(width),
        )
        return out

    def fmlut_decode(
        self,
        stored: np.ndarray,
        rows: np.ndarray,
        rotations: np.ndarray,
        width: int,
    ) -> np.ndarray:
        self._check_rotation_width(width)
        stored = _as_u64(stored)
        rows = _as_i64(rows)
        rotations = _as_i64(rotations)
        out = np.empty_like(stored)
        self._lib.rk_fmlut_decode(
            _ptr(stored),
            _ptr(rows),
            _ptr(out),
            ctypes.c_int64(stored.size),
            _ptr(rotations),
            ctypes.c_int64(width),
        )
        return out

    @staticmethod
    def _check_rotation_width(width: int) -> None:
        # Mirrors repro.memory.words.rotate_*_array, which the NumPy
        # reference path raises through.
        if width <= 0:
            raise ValueError(f"word width must be positive, got {width}")
        if width > 63:
            raise ValueError("vectorised rotation supports widths up to 63 bits")

    @staticmethod
    def _check_patterns(patterns: np.ndarray, width: int) -> None:
        if patterns.size and patterns.max() > np.uint64(bit_mask(width)):
            raise ValueError(f"pattern exceeds {width}-bit range")
