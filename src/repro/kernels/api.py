"""Kernel-backend interface of the hot Monte-Carlo loops.

:class:`KernelBackend` names the five loops that a compiled implementation
runs faster than NumPy at the call sizes of a sweep: SECDED encode and
decode (XOR-popcount over a parity-check matrix), the FM-LUT encode and
decode of the bit-shuffling scheme, and the coordinate-descent sweeps of an
ElasticNet fit (Fig. 7 refits the application on every die's corrupted
training set).  Each has a NumPy reference implementation and a C one (via
ctypes); swapping them changes nothing but speed.  The datapath's other
array loops have one NumPy body each and live next to their only caller:
the stuck-at corruption masks in
:meth:`repro.sim.faulty_storage.DieDatapath.corrupt`, the 2's-complement
array codecs in :mod:`repro.memory.words`, and the rejection sampler's
validity check in :mod:`repro.memory.faults`.

The contract every backend must honour:

* **Bit identity.**  For identical inputs, every method returns arrays that
  are bit-for-bit equal to the ``numpy`` reference backend — including the
  data-dependent :class:`ValueError` cases (3+-error SECDED codewords,
  FM-LUT data wider than the word).  Backend choice may change throughput, never results.
* **Same BLAS.**  A floating-point sum whose order BLAS decides stays a call
  into the very BLAS function NumPy calls, with NumPy's arguments: the
  compiled ElasticNet sweep calls the ``cblas_ddot`` of the library NumPy
  itself loaded, on the same column pointer and stride, because a strided
  and a contiguous ``ddot`` (or two BLAS builds) sum in different orders.
* **Validated inputs.**  Callers (the scheme/fault-map wrappers) perform the
  structural validation they always performed — dtypes, shapes, row bounds,
  width limits.  Kernels only re-check what is data-dependent and therefore
  only discoverable mid-loop.
* **No hidden state.**  Kernels are pure functions of their arguments; all
  per-die state (LUT tables, parity-check masks) is hoisted into
  construction-time arrays by the callers and passed in explicitly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = ["KernelBackend", "KernelUnavailableError", "SecdedKernelSpec"]


class KernelUnavailableError(RuntimeError):
    """A backend cannot be used here (no compiler, missing import, failed self-test)."""


@dataclass(frozen=True)
class SecdedKernelSpec:
    """Construction-time description of one SECDED code for the kernels.

    Mirrors the layout of :class:`repro.ecc.hamming.SecdedCode`: bit 0 of the
    codeword is the overall parity, parity bits sit at power-of-two positions
    ``1, 2, 4, ...``, data bits fill the remaining positions in increasing
    order.  All arrays are precomputed once per code (the codes themselves are
    cached per data width), so no per-call setup survives in the hot loop.
    """

    data_bits: int
    parity_bits: int  # Hamming parity bits r (the overall bit is extra)
    codeword_bits: int
    data_positions: np.ndarray = field(repr=False)  # int64[data_bits]
    parity_positions: np.ndarray = field(repr=False)  # int64[parity_bits]
    check_masks: np.ndarray = field(repr=False)  # uint64[parity_bits]

    def __post_init__(self) -> None:
        if self.codeword_bits > 64:
            raise ValueError(
                "kernel-backed SECDED supports codewords up to 64 bits, got "
                f"{self.codeword_bits}"
            )
        object.__setattr__(
            self,
            "data_positions",
            np.ascontiguousarray(self.data_positions, dtype=np.int64),
        )
        object.__setattr__(
            self,
            "parity_positions",
            np.ascontiguousarray(self.parity_positions, dtype=np.int64),
        )
        object.__setattr__(
            self,
            "check_masks",
            np.ascontiguousarray(self.check_masks, dtype=np.uint64),
        )


class KernelBackend(ABC):
    """One implementation of the hot loops (see module docstring)."""

    #: Registry name; also what ``REPRO_KERNEL_BACKEND`` selects.
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # XOR-popcount SECDED (parity-check matrix over uint64 arrays)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def secded_encode(self, data: np.ndarray, spec: SecdedKernelSpec) -> np.ndarray:
        """Encode ``uint64`` data words (< 2**k, validated by caller) into codewords."""

    @abstractmethod
    def secded_decode(self, codewords: np.ndarray, spec: SecdedKernelSpec) -> np.ndarray:
        """Single-error-corrected data words.

        Must raise ``ValueError(f"codeword does not fit in {n} bits")`` when a
        corrected codeword leaves the code's range (only possible with three
        or more errors), exactly like the scalar decoder.
        """

    # ------------------------------------------------------------------ #
    # FM-LUT rotation apply (bit-shuffling scheme)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def fmlut_encode(
        self,
        data: np.ndarray,
        rows: np.ndarray,
        entries: np.ndarray,
        rotations: np.ndarray,
        width: int,
    ) -> np.ndarray:
        """Write path: gather each row's rotation, right-rotate, append the entry.

        ``entries``/``rotations`` are the full per-row LUT tables (int64,
        indexed by ``rows``); ``width`` is the data word width (<= 63).
        """

    @abstractmethod
    def fmlut_decode(
        self,
        stored: np.ndarray,
        rows: np.ndarray,
        rotations: np.ndarray,
        width: int,
    ) -> np.ndarray:
        """Read path: strip the LUT columns and left-rotate each data part back."""

    # ------------------------------------------------------------------ #
    # ElasticNet coordinate descent
    # ------------------------------------------------------------------ #
    @abstractmethod
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
        """Cyclic coordinate-descent sweeps of one ElasticNet fit.

        ``x_centered`` is the ``(n, p)`` float64 design matrix the dot
        products read, ``x_update`` its Fortran-ordered copy for the residual
        updates, ``residual`` the centred targets (updated in place) and
        ``column_norms`` the ``p`` mean squared column values; zero-norm
        columns keep a zero weight.  Sweeps stop once the largest weight
        change of a sweep falls below ``tol`` or after ``max_iter`` sweeps.
        Returns the float64 weights and the number of sweeps run.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name!r}>"
