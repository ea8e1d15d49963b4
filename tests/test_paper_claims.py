"""The paper's claims, one test each, at smoke-scale Monte-Carlo budgets.

Every test names the figure, table or section it reproduces and quotes the
claim it checks.  Budgets, seeds, thresholds and tolerances are fixed: a
claim that stops holding is a regression in the model, never a reason to
move a bound.  The paper's own budgets (1e7 fault maps for Fig. 5, 500 maps
per failure count for Fig. 7) are far larger; these budgets resolve the
curves well enough to decide each claim in a few seconds.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from repro.analysis.figures import (
    figure2_pcell_vs_vdd,
    figure4_error_magnitude,
    figure5_mse_cdf,
    figure6_overhead,
    figure7_quality,
    standard_figure7_schemes,
)
from repro.analysis.tables import table1_applications
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.segments import worst_case_error_magnitude
from repro.faultmodel.pcell import PcellModel
from repro.hardware.energy import VoltageScalingModel
from repro.memory.organization import MemoryOrganization
from repro.memory.redundancy import spares_for_yield_target
from repro.sim.experiment import standard_benchmarks
from repro.sim.results import QualityDistribution

PAPER_ORG = MemoryOrganization.paper_16kb()


# --------------------------------------------------------------------------- #
# Fig. 2: bit-cell failure probability and classical yield under VDD scaling
# --------------------------------------------------------------------------- #
def test_fig2_pcell_vs_vdd():
    """Fig. 2: "``Pcell`` rises by many orders of magnitude as the supply is
    scaled from the nominal 1.0 V down to ~0.6 V; the traditional
    zero-failure yield collapses to ~0 around 0.73 V" (28 nm, 16 kB)."""
    data = figure2_pcell_vs_vdd(vdd_values=np.linspace(0.60, 1.00, 21))
    p_cell = data["p_cell"]
    memory_yield = data["classical_yield"]
    assert np.all(np.diff(p_cell) < 0)
    assert np.all(np.diff(memory_yield) >= 0)
    # Several orders of magnitude between 1.0 V and 0.6 V.
    assert p_cell[0] / p_cell[-1] > 1e5
    # Yield collapse for the 16 kB array at 0.73 V.
    model = PcellModel.calibrated_28nm()
    assert (1 - model.p_cell(0.73)) ** PAPER_ORG.total_cells < 1e-6
    # Near-perfect zero-failure yield at the nominal voltage.
    assert memory_yield[-1] > 0.999


def test_fig2_operating_points():
    """Fig. 2: the Fig. 5 / Fig. 7 operating points map back to supply
    voltages in order, and Pcell = 1e-9 sits at the nominal 1.0 V supply."""
    model = PcellModel.calibrated_28nm()
    points = {p: model.vdd_for_p_cell(p) for p in (1e-9, 5e-6, 1e-3, 1e-2)}
    assert points[5e-6] > points[1e-3] > points[1e-2]
    assert 0.95 < points[1e-9] <= 1.05


# --------------------------------------------------------------------------- #
# Fig. 4: worst-case error magnitude per faulty bit position
# --------------------------------------------------------------------------- #
def test_fig4_error_magnitude_profiles():
    """Fig. 4: "the error magnitude of a fault at bit position ``b`` is
    ``2**(b mod S)`` with ``S = 32 / 2**nFM``; the maximum error for
    ``nFM = 5`` is ``2**0 = 1`` and the worst case for every ``nFM`` is
    bounded by ``2**(S-1)``"."""
    series = figure4_error_magnitude(word_width=32)
    assert np.all(series["nfm=5"] == 1.0)
    for n_fm in range(1, 6):
        values = series[f"nfm={n_fm}"]
        assert values.max() == worst_case_error_magnitude(32, n_fm)
        assert np.all(values <= series["no-correction"])
    # Increasing granularity is monotonically better at every position.
    for position in range(32):
        magnitudes = [series[f"nfm={n}"][position] for n in range(1, 6)]
        assert magnitudes == sorted(magnitudes, reverse=True)


# --------------------------------------------------------------------------- #
# Fig. 5: CDF of the local MSE / quality-aware yield at Pcell = 5e-6
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fig5_results():
    return figure5_mse_cdf(
        organization=PAPER_ORG,
        p_cell=5e-6,
        samples_per_count=400,
        coverage=0.9999999,
        rng=np.random.default_rng(2015),
    )


def test_fig5_yield_table(fig5_results):
    """Fig. 5: "at an MSE target of 1e6 the nFM = 1 configuration reaches
    essentially full yield while the unprotected memory loses a substantial
    fraction of dies that contain faults"; "with nFM = 2..5 the proposed
    scheme also outperforms H(22,16) P-ECC"."""
    unprotected = fig5_results["no-protection"]
    pecc = fig5_results["p-ecc-H(22,16)"]
    nfm1 = fig5_results["bit-shuffle-nfm1"]
    target_yield = 0.9999
    assert unprotected.mse_at_yield(target_yield) >= 30 * nfm1.mse_at_yield(
        target_yield
    )
    # The paper reads 99.9999 % off its 1e7-map curve.  400 dies per
    # failure count cannot resolve a 1e-6 tail, so four nines is the
    # strongest form of the claim this budget decides.
    assert nfm1.yield_at_mse(1e6) > 0.9999
    # Unprotected dies with faults overwhelmingly violate that target: the
    # unprotected yield is dominated by the fault-free fraction alone.
    assert unprotected.yield_at_mse(1e6) < unprotected.zero_fault_probability + 0.35
    for n_fm in range(2, 6):
        dist = fig5_results[f"bit-shuffle-nfm{n_fm}"]
        assert dist.mse_at_yield(target_yield) <= pecc.mse_at_yield(target_yield)


def test_fig5_mse_reduction_factor(fig5_results):
    """Fig. 5: "the proposed scheme reduces the MSE that must be tolerated
    for a given yield target by a large factor (>= 30x quoted as the
    minimum) compared to the unprotected memory, already for nFM = 1"."""
    unprotected = fig5_results["no-protection"]
    nfm1 = fig5_results["bit-shuffle-nfm1"]
    factors = []
    for yield_target in (0.60, 0.80, 0.90, 0.99, 0.9999):
        ours = nfm1.mse_at_yield(yield_target)
        base = unprotected.mse_at_yield(yield_target)
        factors.append(base / ours if ours > 0 else float("inf"))
    assert min(factors) >= 30.0


# --------------------------------------------------------------------------- #
# Fig. 6: read power / read delay / area overhead relative to SECDED
# --------------------------------------------------------------------------- #
def test_fig6_overhead_comparison():
    """Fig. 6: "bit-shuffling saves 20-83 % read power, 41-77 % read delay
    and 32-89 % area compared to the H(39,32) SECDED overhead, depending on
    nFM; compared to H(22,16) P-ECC the proposed scheme saves up to 59 % /
    64 % / 57 %"; "overhead grows monotonically with nFM"."""
    report = figure6_overhead()
    relative = report.relative_to_baseline()
    savings = report.savings_vs_baseline()
    shuffle = {k: v for k, v in savings.items() if k.startswith("bit-shuffle")}

    # Every bit-shuffling configuration beats SECDED on all three axes.
    for values in shuffle.values():
        assert values["read_power"] > 0
        assert values["read_delay"] > 0
        assert values["area"] > 0
    for metric in ("read_power", "read_delay", "area"):
        series = [relative[f"bit-shuffle-nfm{n}"][metric] for n in range(1, 6)]
        assert series == sorted(series)

    # The overhead model is structural: it counts gates and storage columns,
    # so it reproduces the ordering and the magnitude of the paper's bands
    # but not its exact percentages.  The bands allow for that slack.
    assert 70.0 <= max(s["read_power"] for s in shuffle.values()) <= 95.0
    assert 60.0 <= max(s["read_delay"] for s in shuffle.values()) <= 90.0
    assert 75.0 <= max(s["area"] for s in shuffle.values()) <= 95.0

    vs_pecc = report.savings_between("bit-shuffle-nfm1", "p-ecc-H(22,16)")
    assert all(value > 40.0 for value in vs_pecc.values())


def test_fig6_register_lut_ablation():
    """Fig. 6 ablation: the FM-LUT is realised as array columns because, for
    a 4096-row memory, a register-file LUT costs more area at every nFM."""
    register = figure6_overhead(lut_realisation="register")
    column = figure6_overhead(lut_realisation="column")
    for n_fm in range(1, 6):
        name = f"bit-shuffle-nfm{n_fm}"
        assert register.overheads[name].area_um2 > column.overheads[name].area_um2


# --------------------------------------------------------------------------- #
# Fig. 7: application quality CDFs under memory failures (Pcell = 1e-3)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fig7_benchmarks():
    return standard_benchmarks(scale=0.35, seed=17)


def _fig7(benchmark_def, seed: int) -> Dict[str, QualityDistribution]:
    return figure7_quality(
        benchmark_def,
        organization=PAPER_ORG,
        p_cell=1e-3,
        samples_per_count=3,
        n_count_points=8,
        schemes=standard_figure7_schemes(),
        rng=np.random.default_rng(seed),
    )


def _check_fig7_ordering(results: Dict[str, QualityDistribution]) -> None:
    """Fig. 7: "bit-shuffling with nFM = 1 already provides a large
    improvement, and with nFM = 2 it matches or exceeds H(22,16) P-ECC for
    every benchmark", read at the 0.9 quality target."""
    target = 0.9
    unprotected = results["no-protection"].yield_at_quality(target)
    pecc = results["p-ecc-H(22,16)"].yield_at_quality(target)
    nfm1 = results["bit-shuffle-nfm1"].yield_at_quality(target)
    nfm2 = results["bit-shuffle-nfm2"].yield_at_quality(target)
    assert nfm1 >= unprotected - 1e-9
    assert nfm2 >= pecc - 0.02
    # Bit shuffling keeps the median die essentially at clean quality.
    assert results["bit-shuffle-nfm2"].median_quality() > 0.95


def test_fig7a_elasticnet(fig7_benchmarks):
    """Fig. 7a: nFM = 2 matches P-ECC, and "with no protection the quality
    of virtually every die collapses (the Elasticnet R^2 becomes 'extremely
    low for virtually all samples')" while nFM = 1 rescues it."""
    results = _fig7(fig7_benchmarks["elasticnet"], 52)
    _check_fig7_ordering(results)
    assert results["no-protection"].median_quality() < 0.7
    assert results["bit-shuffle-nfm1"].median_quality() > 0.9


def test_fig7b_pca(fig7_benchmarks):
    """Fig. 7b: for PCA (explained variance) nFM = 2 "matches or exceeds
    H(22,16) P-ECC"."""
    _check_fig7_ordering(_fig7(fig7_benchmarks["pca"], 53))


def test_fig7c_knn(fig7_benchmarks):
    """Fig. 7c: for KNN (classification score) nFM = 2 "matches or exceeds
    H(22,16) P-ECC"."""
    _check_fig7_ordering(_fig7(fig7_benchmarks["knn"], 54))


# --------------------------------------------------------------------------- #
# Table 1: evaluation applications, datasets and quality metrics
# --------------------------------------------------------------------------- #
def test_table1_applications():
    """Table 1: "three error-resilient benchmarks -- Elasticnet regression
    (wine quality, R^2), PCA (Madelon, explained variance), and KNN
    classification (activity recognition, score) -- each split 0.8 : 0.2
    into training and test partitions"."""
    rows = table1_applications(scale=0.5)
    classes = {r["class"] for r in rows}
    assert classes == {"Regression", "Dimensionality Reduction", "Classification"}
    metrics = {r["metric"] for r in rows}
    assert metrics == {"R2", "Explained Variance", "Score"}
    for row in rows:
        total = row["train_samples"] + row["test_samples"]
        assert row["train_samples"] / total == pytest.approx(0.8, abs=0.02)
        # Every benchmark must have meaningful fault-free quality to
        # normalise the Fig. 7 curves against.
        assert 0.3 < row["clean_quality"] <= 1.0


# --------------------------------------------------------------------------- #
# Section 2: redundancy-based repair cost under voltage scaling
# --------------------------------------------------------------------------- #
def test_section2_redundancy_cost_vs_pcell():
    """Section 2: "the number of redundant rows/columns required ...
    increases tremendously" as Pcell rises, while the bit-shuffling FM-LUT
    stays at 1 to 5 columns.  Spare rows are sized for 99 % repair yield."""
    curve = {
        p_cell: spares_for_yield_target(PAPER_ORG, p_cell, yield_target=0.99)
        for p_cell in (1e-7, 1e-6, 5e-6, 1e-4, 1e-3)
    }
    spares = list(curve.values())
    assert spares == sorted(spares)
    assert curve[1e-7] <= 2
    assert curve[1e-3] > 100
    # Storage cost at Pcell = 1e-3: spare rows vs a 1-bit FM-LUT.
    assert curve[1e-3] * PAPER_ORG.word_width > PAPER_ORG.rows * 1


# --------------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------------- #
def test_ablation_multifault_policy():
    """Ablation of the FM-LUT programming policy: one rotation per row
    "cannot push all of them into the least significant segment", and the
    ``minimax`` policy, which "searches all ``2**nFM`` LUT values for the one
    minimising the worst residual weight", never needs a larger MSE
    tolerance than protecting the most significant fault."""
    # A small, fault-dense memory makes multi-fault rows common.
    results = figure5_mse_cdf(
        organization=MemoryOrganization(rows=256, word_width=32),
        p_cell=3e-3,
        samples_per_count=60,
        coverage=0.99,
        schemes=[
            BitShuffleScheme(32, n_fm, multi_fault_policy=policy)
            for policy in ("most-significant", "minimax")
            for n_fm in (1, 5)
        ],
        rng=np.random.default_rng(99),
    )
    for n_fm in (1, 5):
        greedy = results[f"bit-shuffle-nfm{n_fm}"]
        minimax = results[f"bit-shuffle-nfm{n_fm}-minimax"]
        for target in (0.99, 0.999):
            assert minimax.mse_at_yield(target) <= greedy.mse_at_yield(target) + 1e-9


def test_ablation_pecc_coverage():
    """Ablation of P-ECC coverage: "even the widest P-ECC coverage leaves the
    unprotected LSBs as the quality floor while paying more parity columns
    than the FM-LUT" (16 kB memory, Pcell = 5e-6)."""
    schemes = [
        PriorityEccScheme(32, protected_bits=8),
        PriorityEccScheme(32, protected_bits=16),
        PriorityEccScheme(32, protected_bits=24),
        BitShuffleScheme(32, 2),
        BitShuffleScheme(32, 3),
    ]
    results = figure5_mse_cdf(
        organization=PAPER_ORG,
        p_cell=5e-6,
        samples_per_count=150,
        coverage=0.99999,
        schemes=schemes,
        rng=np.random.default_rng(11),
    )
    mse = {name: dist.mse_at_yield(0.9999) for name, dist in results.items()}
    columns = {scheme.name: scheme.extra_columns for scheme in schemes}

    # Wider ECC coverage helps monotonically ...
    assert mse["p-ecc-H(30,24)"] <= mse["p-ecc-H(22,16)"] <= mse["p-ecc-H(13,8)"]
    # ... but matching the widest P-ECC (6 parity columns, 8 unprotected
    # LSBs) takes only 2 FM-LUT bits, and 3 LUT bits beat it outright.
    assert mse["bit-shuffle-nfm2"] <= 4 * mse["p-ecc-H(30,24)"]
    assert mse["bit-shuffle-nfm3"] <= mse["p-ecc-H(30,24)"]
    assert columns["bit-shuffle-nfm2"] < columns["p-ecc-H(30,24)"]


def test_ablation_voltage_energy_quality_tradeoff():
    """Conclusion: bit-shuffling "can be used to exploit ... the inherent
    error resilience ... for allowing operation at scaled voltages".  Read
    energy falls with VDD, and at every point the bit-shuffled memory needs
    a far smaller MSE tolerance at 99.9 % yield than the unprotected one."""
    energy_model = VoltageScalingModel(PAPER_ORG)
    savings, unprotected, shuffled = [], [], []
    for vdd in (0.90, 0.83, 0.78, 0.73):
        point = energy_model.operating_point(vdd)
        # Multi-fault rows are common at the lowest voltages, so the
        # multi-fault-robust minimax LUT policy is used.
        results = figure5_mse_cdf(
            organization=PAPER_ORG,
            p_cell=point.p_cell,
            samples_per_count=60,
            coverage=0.999,
            schemes=[
                NoProtection(32),
                BitShuffleScheme(32, 2, multi_fault_policy="minimax"),
            ],
            rng=np.random.default_rng(7),
        )
        savings.append(point.energy_saving)
        unprotected.append(results["no-protection"].mse_at_yield(0.999))
        shuffled.append(results["bit-shuffle-nfm2-minimax"].mse_at_yield(0.999))

    assert savings == sorted(savings)
    assert savings[-1] > 0.4
    for ours, base in zip(shuffled, unprotected):
        assert ours <= base
    assert unprotected[-1] > 1e3 * max(shuffled[-1], 1e-9)
