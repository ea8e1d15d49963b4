"""Property suite for the kernel-backend registry.

Every backend that builds on this machine is driven through randomized
width/nFM/boundary-pattern cases of the four interface kernels and must be
bit-identical to the ``numpy`` reference — including the data-dependent
``ValueError`` cases.  The datapath's plain-NumPy loops (corruption masks,
2's-complement codecs, the sampler's validity check) are checked with each
backend active against independent scalar references.  The capability probe
itself is exercised too: a forced compile failure must fall back to
``numpy`` with exactly one warning when the backend was requested
explicitly, and silently when it was only an auto-probe candidate.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.ecc.hamming import secded_code_for_data_bits
from repro.kernels import (
    KernelBackend,
    KernelUnavailableError,
    active_backend,
    available_backends,
    reset_active_backend,
    set_backend,
    use_backend,
)
from repro.kernels.c_backend import CKernelBackend
from repro.kernels.numpy_backend import NumpyKernelBackend
from repro.memory.faults import FaultKind, FaultMap, FaultSite, _invalid_map_mask
from repro.memory.organization import MemoryOrganization
from repro.memory.words import (
    from_twos_complement_array,
    to_twos_complement,
    to_twos_complement_array,
)
from repro.sim.faulty_storage import DieDatapath

REFERENCE = NumpyKernelBackend()
BACKENDS = available_backends()
NON_REFERENCE = [name for name in BACKENDS if name != "numpy"]
#: Kernels the C backend compiles: the whole interface.
C_KERNELS = sorted(KernelBackend.__abstractmethods__)


@pytest.fixture(autouse=True)
def _restore_backend_selection():
    """Tests mutate the process-wide selection; always restore it."""
    yield
    reset_active_backend()


def _backend(name: str):
    return kernels._build(name)


# --------------------------------------------------------------------- #
# SECDED kernels
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("data_bits", [4, 8, 16, 32, 57])
class TestSecdedKernels:
    def test_boundary_and_random_roundtrip(self, backend_name, data_bits):
        backend = _backend(backend_name)
        spec = secded_code_for_data_bits(data_bits).kernel_spec
        rng = np.random.default_rng(7 * data_bits)
        data = np.concatenate(
            [
                np.array([0, 1, (1 << data_bits) - 1, 1 << (data_bits - 1)],
                         dtype=np.uint64),
                rng.integers(0, 1 << min(data_bits, 63), size=200).astype(np.uint64),
            ]
        ) & np.uint64((1 << data_bits) - 1)
        want = REFERENCE.secded_encode(data, spec)
        assert np.array_equal(backend.secded_encode(data, spec), want)
        # Corrupt with 0/1 random flips per word and compare the corrected
        # data bit-for-bit.
        n = spec.codeword_bits
        flips = np.uint64(1) << rng.integers(0, n, size=want.size).astype(np.uint64)
        single = want ^ flips
        for codewords in (want, single):
            assert np.array_equal(
                REFERENCE.secded_decode(codewords, spec),
                backend.secded_decode(codewords, spec),
            )

    def test_triple_error_raises_identically(self, backend_name, data_bits):
        backend = _backend(backend_name)
        code = secded_code_for_data_bits(data_bits)
        spec = code.kernel_spec
        n = spec.codeword_bits
        if n >= 64:
            pytest.skip("no out-of-range syndrome possible at 64 bits")
        # Find a 3-bit corruption whose corrected word overflows the code.
        base = REFERENCE.secded_encode(np.array([3], dtype=np.uint64), spec)[0]
        bad = None
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    corrupted = base ^ np.uint64((1 << a) | (1 << b) | (1 << c))
                    try:
                        REFERENCE.secded_decode(
                            np.array([corrupted], dtype=np.uint64), spec
                        )
                    except ValueError:
                        bad = corrupted
                        break
                if bad is not None:
                    break
            if bad is not None:
                break
        if bad is None:
            pytest.skip("no overflowing triple error for this code")
        with pytest.raises(ValueError, match=f"codeword does not fit in {n} bits"):
            backend.secded_decode(np.array([bad], dtype=np.uint64), spec)


# --------------------------------------------------------------------- #
# FM-LUT, corruption-mask, codec, and sampler kernels
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", BACKENDS)
class TestDatapathKernels:
    @given(
        width_exp=st.integers(min_value=2, max_value=5),
        n_fm=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_fmlut_matches_reference(self, backend_name, width_exp, n_fm, seed):
        backend = _backend(backend_name)
        width = 1 << width_exp
        rng = np.random.default_rng(seed)
        n_rows = 9
        entries = rng.integers(0, 1 << n_fm, size=n_rows).astype(np.int64)
        segments = 1 << n_fm
        rotations = ((segments - entries) * (width // segments)) % width
        rows = rng.integers(0, n_rows, size=64).astype(np.int64)
        data = rng.integers(0, 1 << width, size=64).astype(np.uint64)
        data[:2] = (0, (1 << width) - 1)
        want = REFERENCE.fmlut_encode(data, rows, entries, rotations, width)
        assert np.array_equal(
            backend.fmlut_encode(data, rows, entries, rotations, width), want
        )
        assert np.array_equal(
            REFERENCE.fmlut_decode(want, rows, rotations, width),
            backend.fmlut_decode(want, rows, rotations, width),
        )
        assert np.array_equal(
            backend.fmlut_decode(want, rows, rotations, width), data
        )

    # The tests below run a plain-NumPy datapath loop with the backend
    # active and compare it with an independent scalar reference: backend
    # choice must not reach them.
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_corruption_masks_match_reference(self, backend_name, seed):
        rng = np.random.default_rng(seed)
        org = MemoryOrganization(rows=16, word_width=32)
        kinds = list(FaultKind)
        sites = {
            (int(row), int(column)): kinds[int(kind)]
            for row, column, kind in zip(
                rng.integers(0, 16, size=12),
                rng.integers(0, 32, size=12),
                rng.integers(0, len(kinds), size=12),
            )
        }
        fault_map = FaultMap(org, [FaultSite(r, c, k) for (r, c), k in sites.items()])
        die = DieDatapath(org, fault_map)
        # Slot ``faulty_rows.size`` is the die's identity (healthy) slot.
        slots = rng.integers(0, die.faulty_rows.size + 1, size=128)
        pats = rng.integers(0, 1 << 32, size=128).astype(np.uint64)
        with use_backend(backend_name):
            got = die.corrupt(slots, pats)
        rows = np.append(die.faulty_rows, -1)[slots]
        assert got.tolist() == [
            pat if row < 0 else fault_map.corrupt_word(row, pat)
            for row, pat in zip(rows.tolist(), pats.tolist())
        ]

    @pytest.mark.parametrize("width", [2, 8, 16, 32, 63])
    def test_twos_complement_roundtrip(self, backend_name, width):
        rng = np.random.default_rng(width)
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        values = np.concatenate(
            [
                np.array([lo, hi, 0, -1, 1], dtype=np.int64),
                rng.integers(lo, hi + 1, size=100).astype(np.int64),
            ]
        )
        with use_backend(backend_name):
            patterns = to_twos_complement_array(values, width)
            back = from_twos_complement_array(patterns, width)
        assert patterns.tolist() == [to_twos_complement(v, width) for v in values.tolist()]
        assert np.array_equal(back, values)

    @pytest.mark.parametrize("width", [8, 32])
    def test_twos_complement_errors_match(self, backend_name, width):
        out_of_range = np.array([1 << (width - 1)], dtype=np.int64)
        oversized = np.array([1 << width], dtype=np.uint64)
        with use_backend(backend_name):
            with pytest.raises(
                ValueError, match=f"values out of range for {width}-bit 2's complement"
            ):
                to_twos_complement_array(out_of_range, width)
            with pytest.raises(ValueError, match=f"pattern exceeds {width}-bit range"):
                from_twos_complement_array(oversized, width)

    @given(
        fault_count=st.integers(min_value=1, max_value=6),
        max_fpw=st.sampled_from([None, 1, 2, 3]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_invalid_map_mask_matches_reference(
        self, backend_name, fault_count, max_fpw, seed
    ):
        rng = np.random.default_rng(seed)
        width = 8
        draws = rng.integers(0, 40, size=(50, fault_count)).astype(np.int64)
        draws[0, -1] = draws[0, 0]  # duplicate cell (for fault_count >= 2)
        draws[1] = np.arange(fault_count)  # packed into the first word(s)
        with use_backend(backend_name):
            got = _invalid_map_mask(draws, width, max_fpw)
        want = [
            len(set(cells)) < len(cells)
            or (
                max_fpw is not None
                and max(np.bincount(np.array(cells) // width)) > max_fpw
            )
            for cells in draws.tolist()
        ]
        assert got.tolist() == want


# --------------------------------------------------------------------- #
# End-to-end: scheme datapaths per backend
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", NON_REFERENCE)
class TestEndToEndIdentity:
    def _scheme_cases(self):
        shuffle = BitShuffleScheme(32, 2, rows=64)
        shuffle.program({3: [31], 7: [0, 17], 12: [5]})
        return [shuffle, SecdedScheme(32), PriorityEccScheme(32)]

    def test_scheme_batches_identical(self, backend_name):
        rng = np.random.default_rng(99)
        rows = rng.integers(0, 64, size=256).astype(np.int64)
        data = rng.integers(0, 1 << 32, size=256).astype(np.uint64)
        for scheme in self._scheme_cases():
            with use_backend("numpy"):
                stored_ref = scheme.encode_words(rows, data)
                back_ref = scheme.decode_words(rows, stored_ref)
            with use_backend(backend_name):
                stored = scheme.encode_words(rows, data)
                back = scheme.decode_words(rows, stored)
            assert np.array_equal(stored, stored_ref), scheme.name
            assert np.array_equal(back, back_ref), scheme.name


# --------------------------------------------------------------------- #
# Probe, override, and fallback behaviour
# --------------------------------------------------------------------- #
class TestBackendSelection:
    def test_env_pin_numpy(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_BACKEND, "numpy")
        reset_active_backend()
        assert active_backend().name == "numpy"

    def test_forced_compile_failure_warns_once_and_falls_back(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(kernels.ENV_BACKEND, "c")
        monkeypatch.setenv("REPRO_KERNEL_CC", "/nonexistent-compiler")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        reset_active_backend()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = active_backend()
            active_backend()  # second use must not warn again
        assert backend.name == "numpy"
        relevant = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1
        assert "falling back to the numpy reference" in str(relevant[0].message)

    def test_auto_probe_without_compiler_is_silent(self, monkeypatch, tmp_path):
        monkeypatch.delenv(kernels.ENV_BACKEND, raising=False)
        monkeypatch.setenv("REPRO_KERNEL_CC", "/nonexistent-compiler")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        reset_active_backend()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = active_backend()
        assert backend.name == "numpy"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_unknown_backend_name_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_BACKEND, "fortran")
        reset_active_backend()
        with pytest.warns(RuntimeWarning, match="unknown kernel backend"):
            backend = active_backend()
        assert backend.name == "numpy"

    def test_set_and_use_backend_roundtrip(self):
        set_backend("numpy")
        assert active_backend().name == "numpy"
        for name in NON_REFERENCE:
            with use_backend(name) as backend:
                assert backend.name == name
                assert active_backend() is backend
            assert active_backend().name == "numpy"

    def test_build_rejects_unknown_name(self):
        with pytest.raises(KernelUnavailableError, match="unknown kernel backend"):
            kernels._build("fortran")

    def test_available_backends_always_includes_reference(self):
        assert "numpy" in available_backends()


@pytest.mark.skipif("c" not in BACKENDS, reason="no C compiler available")
class TestCompiledCache:
    def test_compiled_library_is_cached_on_disk(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        from repro.kernels.c_backend import compile_kernels

        first = compile_kernels()
        assert first.parent == tmp_path
        mtime = first.stat().st_mtime_ns
        assert compile_kernels() == first
        assert first.stat().st_mtime_ns == mtime  # reused, not rebuilt


def test_interface_is_the_four_compiled_kernels():
    assert KernelBackend.__abstractmethods__ == {
        "secded_encode", "secded_decode", "fmlut_encode", "fmlut_decode",
    }
    # Built on the interface itself, so an uncompiled kernel cannot hide
    # behind an inherited reference method.
    assert CKernelBackend.__bases__ == (KernelBackend,)


@pytest.mark.skipif("c" not in BACKENDS, reason="no C compiler available")
class TestSelfTestCoverage:
    """The probe's self-test exercises every kernel the C backend compiles."""

    @pytest.mark.parametrize("kernel", C_KERNELS)
    def test_one_flipped_output_bit_fails_the_self_test(self, kernel):
        compiled = getattr(CKernelBackend, kernel)

        def flipped(self, *args):
            out = compiled(self, *args)
            out[0] ^= np.uint64(1)
            return out

        broken = type("BrokenCKernelBackend", (CKernelBackend,), {kernel: flipped})()
        with pytest.raises(KernelUnavailableError, match=f"{kernel} self-test failed"):
            kernels._self_test(broken)
