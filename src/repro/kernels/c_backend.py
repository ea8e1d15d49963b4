"""Compiled C kernel backend (ctypes over a runtime-built shared library).

The extension is built the same way the project installs itself: offline,
with nothing but the standard library (see ``_local_build_backend.py`` at the
repo root for the same philosophy applied to wheels).  The first use invokes
the system C compiler on ``_kernels.c`` and caches the shared object under a
content-addressed name — keyed by the source bytes, the compiler, and the
flags — so later processes (pytest workers, sweep-engine shards) load the
cached binary without recompiling.  ``os.replace`` installs the finished
object atomically, so concurrent first builds cannot observe a torn file.

The flags include ``-ffp-contract=off``: a multiply-add fused into one FMA
(GCC's default outside ISO C modes, and what ``-march=native`` makes
available) rounds once instead of twice and would change a bit of the
ElasticNet sweep.

The compiled ElasticNet sweep sums each ``x[:, j] @ residual`` with the
``cblas_ddot`` that NumPy's own ``np.dot`` calls, so the BLAS summation order
is NumPy's.  :func:`locate_numpy_ddot` accepts only that function: NumPy must
report a ``scipy-openblas`` build (``USE64BITINT`` selects
``scipy_cblas_ddot64_`` with int64 arguments, otherwise ``scipy_cblas_ddot``
with int32 ones), and the library must be the single ``libscipy_openblas*``
in NumPy's own ``numpy.libs`` that the process has already loaded.  Another
OpenBLAS copy in the process (SciPy ships its own) is never used.  Anything
else makes the backend unavailable, and the probe falls back to NumPy.

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
from typing import Optional, Tuple

import numpy as np

from repro.kernels.api import KernelBackend, KernelUnavailableError, SecdedKernelSpec
from repro.kernels.numpy_backend import NumpyKernelBackend
from repro.memory.words import bit_mask

__all__ = ["CKernelBackend", "compile_kernels", "locate_numpy_ddot"]

_SOURCE_PATH = Path(__file__).with_name("_kernels.c")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c11", "-ffp-contract=off")
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
_F64 = ctypes.c_double
_INT = ctypes.c_int

#: Return and argument types of every exported kernel, in the order of the
#: C prototypes in ``_kernels.c``.
_SIGNATURES = {
    "rk_secded_encode": (_INT, (_PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR)),
    "rk_secded_decode": (_INT, (_PTR, _PTR, _I64, _I64, _I64, _I64, _PTR, _PTR)),
    "rk_fmlut_encode": (_INT, (_PTR, _PTR, _PTR, _I64, _PTR, _PTR, _I64)),
    "rk_fmlut_decode": (_INT, (_PTR, _PTR, _PTR, _I64, _PTR, _I64)),
    "rk_cd_sweeps": (
        _I64,
        (_PTR, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _I64,
         _F64, _F64, _I64, _F64, _PTR, _I64),
    ),
}

#: Largest element count or stride NumPy hands to a 32-bit-integer
#: ``cblas_ddot`` in one call (``NPY_CBLAS_CHUNK``); beyond it NumPy splits
#: the sum, which the compiled sweep does not mirror.
_CBLAS_CHUNK_32 = 2 ** 30


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


def _numpy_blas_config() -> dict:
    """NumPy's build record of the BLAS it links."""
    return np.__config__.CONFIG["Build Dependencies"]["blas"]


def _numpy_libs_dir() -> Path:
    """Where a NumPy wheel keeps the shared libraries it links."""
    return Path(np.__file__).resolve().parent.parent / "numpy.libs"


def locate_numpy_ddot() -> Tuple[int, bool]:
    """Address of the ``cblas_ddot`` that ``np.dot`` calls, and whether it
    takes int64 arguments.

    Raises :class:`KernelUnavailableError` unless NumPy links
    ``scipy-openblas`` from a single, already loaded library in its own
    ``numpy.libs`` that exports the expected symbol.
    """
    try:
        blas = _numpy_blas_config()
        name = blas["name"]
    except (AttributeError, KeyError, TypeError) as exc:
        raise KernelUnavailableError(f"numpy does not record its BLAS build: {exc!r}")
    if name != "scipy-openblas":
        raise KernelUnavailableError(
            f"numpy links BLAS {name!r}, not scipy-openblas; cannot call its ddot"
        )
    use_int64 = "USE64BITINT" in str(blas.get("openblas configuration", ""))
    symbol = "scipy_cblas_ddot64_" if use_int64 else "scipy_cblas_ddot"
    libs_dir = _numpy_libs_dir()
    candidates = sorted(libs_dir.glob("libscipy_openblas*"))
    if len(candidates) != 1:
        raise KernelUnavailableError(
            f"expected one libscipy_openblas* in {libs_dir}, found {len(candidates)}"
        )
    no_load = getattr(os, "RTLD_NOLOAD", None)
    if no_load is None:
        raise KernelUnavailableError("cannot check which BLAS numpy loaded on this platform")
    try:
        library = ctypes.CDLL(str(candidates[0]), mode=no_load)
    except OSError as exc:
        raise KernelUnavailableError(f"numpy has not loaded {candidates[0]}: {exc}")
    try:
        function = getattr(library, symbol)
    except AttributeError:
        raise KernelUnavailableError(f"{candidates[0]} lacks symbol {symbol}")
    return ctypes.cast(function, ctypes.c_void_p).value, use_int64


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


_REFERENCE = NumpyKernelBackend()


def _as_u64(array: np.ndarray):
    return np.ascontiguousarray(array, dtype=np.uint64)


def _as_i64(array: np.ndarray):
    return np.ascontiguousarray(array, dtype=np.int64)


def _ptr(array: np.ndarray) -> int:
    """Address of a contiguous array's data; the caller keeps the array alive."""
    return array.ctypes.data


class CKernelBackend(KernelBackend):
    """ctypes bindings over the compiled SECDED, FM-LUT and ElasticNet kernels.

    Every :class:`KernelBackend` method is compiled; the interface holds only
    the loops that beat NumPy at their call sizes (tens to a few hundred words
    per datapath call, one whole fit per sweep call), so a kernel left
    uncompiled fails at construction instead of silently running the
    reference.
    """

    name = "c"

    def __init__(self) -> None:
        self._ddot, self._ddot_int64 = locate_numpy_ddot()
        library_path = compile_kernels()
        try:
            lib = ctypes.CDLL(str(library_path))
        except OSError as exc:
            raise KernelUnavailableError(f"cannot load {library_path}: {exc}")
        for symbol, (restype, argtypes) in _SIGNATURES.items():
            if not hasattr(lib, symbol):
                raise KernelUnavailableError(f"{library_path} lacks symbol {symbol}")
            function = getattr(lib, symbol)
            function.argtypes = argtypes
            function.restype = restype
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

    # ------------------------------------------------------------------ #
    # ElasticNet coordinate descent
    # ------------------------------------------------------------------ #
    def elasticnet_sweeps(
        self,
        x_centered: np.ndarray,
        x_update: np.ndarray,
        residual: np.ndarray,
        column_norms: np.ndarray,
        l1_penalty: float,
        l2_penalty: float,
        max_iter: int,
        tol: float,
    ) -> Tuple[np.ndarray, int]:
        n_samples, n_features = x_centered.shape
        if (
            x_update.shape != x_centered.shape
            or residual.shape != (n_samples,)
            or column_norms.shape != (n_features,)
        ):
            raise ValueError("x_update, residual and column_norms must match x_centered")
        if not self._sweeps_in_place(x_centered, residual):
            return _REFERENCE.elasticnet_sweeps(
                x_centered, x_update, residual, column_norms,
                l1_penalty, l2_penalty, max_iter, tol,
            )
        row_stride, column_stride = (
            stride // x_centered.itemsize for stride in x_centered.strides
        )
        x_update = np.asfortranarray(x_update, dtype=np.float64)
        column_norms = np.ascontiguousarray(column_norms, dtype=np.float64)
        weights = np.zeros(n_features)
        n_iter = self._lib.rk_cd_sweeps(
            _ptr(x_centered),
            row_stride,
            column_stride,
            _ptr(x_update),
            _ptr(residual),
            _ptr(column_norms),
            _ptr(weights),
            n_samples,
            n_features,
            l1_penalty,
            l2_penalty,
            max_iter,
            tol,
            self._ddot,
            self._ddot_int64,
        )
        return weights, n_iter

    def _sweeps_in_place(self, x_centered: np.ndarray, residual: np.ndarray) -> bool:
        """Whether the C loop can read ``x_centered`` with ``np.dot``'s own
        pointers and strides and update ``residual`` in place.

        ``np.dot`` copies a column with zero, negative or unaligned strides
        before calling BLAS, and splits a sum too long for a 32-bit-integer
        ``cblas_ddot``; the C loop mirrors neither, so those inputs run the
        reference loop.
        """
        itemsize = x_centered.itemsize
        return (
            x_centered.dtype == np.float64
            and x_centered.flags.aligned
            and min(x_centered.strides) > 0
            and not any(stride % itemsize for stride in x_centered.strides)
            and (
                self._ddot_int64
                or max(x_centered.shape[0], *x_centered.strides) // itemsize
                <= _CBLAS_CHUNK_32
            )
            and residual.dtype == np.float64
            and residual.flags.c_contiguous
        )

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
