"""Quickstart: protect a faulty SRAM with the bit-shuffling scheme.

This script walks through the core flow of the library on a single die:

1. describe the memory geometry (the paper's 16 kB / 32-bit configuration),
2. "manufacture" a die with random persistent bit-cell faults,
3. operate it behind several protection schemes (none, SECDED ECC, P-ECC,
   bit-shuffling), and
4. compare the worst-case data corruption each scheme lets through.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BitShuffleScheme,
    FaultMap,
    MemoryOrganization,
    NoProtection,
    PriorityEccScheme,
    ProtectedMemory,
    SecdedScheme,
)


def main() -> None:
    rng = np.random.default_rng(7)

    # 1. The paper's data memory: 4096 rows of 32-bit words (16 kB).
    organization = MemoryOrganization.paper_16kb()
    print(f"Memory under test: {organization}")

    # 2. Manufacture a die operating at a scaled supply voltage: every cell
    #    fails independently with probability 2e-4 (roughly the 0.73 V point of
    #    Fig. 2, where the traditional zero-failure yield has already collapsed).
    #    At this fault density each faulty row holds a single faulty cell --
    #    the regime the paper's single-entry FM-LUT targets; see
    #    test_ablation_multifault_policy in tests/test_paper_claims.py for what
    #    happens beyond it.
    fault_map = FaultMap.random_with_pcell(organization, p_cell=2e-4, rng=rng)
    print(
        f"Manufactured die has {fault_map.fault_count} faulty cells "
        f"across {len(fault_map.faulty_rows())} rows "
        f"(max faults per row: {fault_map.max_faults_per_row()})"
    )

    # 3. Some data to protect: signed 32-bit samples.
    data = rng.integers(-(2 ** 30), 2 ** 30, size=organization.rows, dtype=np.int64)

    schemes = [
        NoProtection(organization.word_width),
        SecdedScheme(organization.word_width),
        PriorityEccScheme(organization.word_width),
        BitShuffleScheme(organization.word_width, n_fm=1),
        BitShuffleScheme(organization.word_width, n_fm=2),
        BitShuffleScheme(organization.word_width, n_fm=5),
    ]

    print()
    print(f"{'scheme':<22} {'extra bits/word':>16} {'worst error':>14} {'mean |error|':>14}")
    print("-" * 70)
    for scheme in schemes:
        # ProtectedMemory runs BIST on the die and programs the scheme's
        # FM-LUT before serving accesses -- the full production flow.
        memory = ProtectedMemory(organization, scheme, fault_map)
        memory.write_ints(0, data)
        readback = memory.read_ints(0, organization.rows)
        errors = np.abs(readback - data)
        print(
            f"{scheme.name:<22} {scheme.extra_columns:>16} "
            f"{int(errors.max()):>14} {float(errors.mean()):>14.3f}"
        )

    print()
    print(
        "Bit-shuffling bounds every error to 2**(S-1) with S = 32 / 2**nFM: the\n"
        "faulty cells only ever hold low-significance bits, so the worst-case\n"
        "corruption shrinks from ~2**31 (unprotected) to 1 (nFM=5) at a fraction\n"
        "of the ECC overhead."
    )


if __name__ == "__main__":
    main()
