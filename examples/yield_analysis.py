"""Quality-aware yield analysis (Fig. 5): MSE distributions per scheme.

Estimates the distribution of the local MSE metric (Eq. 6) for a 16 kB memory
at the Fig. 5 operating point (Pcell = 5e-6) under every protection option and
reports the yield achieved at several MSE targets, plus the MSE tolerance each
scheme needs to reach a 99.99 % yield.

Run with::

    python examples/yield_analysis.py          # default Monte-Carlo budget
    python examples/yield_analysis.py 1000     # raise samples per failure count
"""

from __future__ import annotations

import sys

import numpy as np

from repro import (
    BitShuffleScheme,
    MemoryOrganization,
    NoProtection,
    PriorityEccScheme,
)
from repro.analysis import figure5_mse_cdf


def main(samples_per_count: int = 300) -> None:
    organization = MemoryOrganization.paper_16kb()
    p_cell = 5e-6
    schemes = [
        NoProtection(32),
        PriorityEccScheme(32),
        BitShuffleScheme(32, 1),
        BitShuffleScheme(32, 2),
        BitShuffleScheme(32, 5),
    ]
    # Every scheme is scored against the same dies (a paired comparison).
    results = figure5_mse_cdf(
        organization=organization,
        p_cell=p_cell,
        samples_per_count=samples_per_count,
        coverage=0.9999999,
        schemes=schemes,
        rng=np.random.default_rng(2015),
    )
    max_failures = results["no-protection"].max_failures
    print(
        f"Quality-aware yield for {organization} at Pcell = {p_cell:g} "
        f"(Nmax = {max_failures}, {samples_per_count} samples/count)"
    )

    mse_targets = [1e0, 1e3, 1e6, 1e9]
    header = f"{'scheme':<22}" + "".join(
        f"  yield@MSE<={t:<8.0e}" for t in mse_targets
    ) + "  MSE@99.99% yield"
    print()
    print(header)
    print("-" * len(header))
    for name, dist in results.items():
        row = f"{name:<22}"
        for target in mse_targets:
            row += f"  {dist.yield_at_mse(target):<18.6f}"
        row += f"  {dist.mse_at_yield(0.9999):.3g}"
        print(row)

    unprotected = results["no-protection"]
    nfm1 = results["bit-shuffle-nfm1"]
    reduction = unprotected.mse_at_yield(0.9999) / max(nfm1.mse_at_yield(0.9999), 1e-12)
    print()
    print(
        "MSE tolerance required for 99.99 % yield shrinks by "
        f"{reduction:,.0f}x when going from an unprotected memory to "
        "bit-shuffling with a single LUT bit (paper quotes a minimum 30x)."
    )


if __name__ == "__main__":
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    main(budget)
