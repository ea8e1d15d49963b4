"""Data-series generators for every figure of the paper's evaluation.

Each ``figureN_*`` function reproduces the corresponding figure's underlying
data.  None of them plot; they return dictionaries of numpy arrays / result
objects that the benchmarks print as tables and that a notebook could plot
directly.

The Monte-Carlo figures are one :class:`~repro.sim.engine.SweepEngine` call
each, and each is its figure's only front end: ``figure5_mse_cdf`` scores
every die by local MSE (``run_mse``) and ``figure7_quality`` retrains the
benchmark on the corrupted features (``run``), sharing the engine's
parallelism, seeding, and checkpointing.  Both take ``schemes=`` for scheme
sets beyond their defaults (other P-ECC widths, the minimax FM-LUT policy).
Legacy sampling pre-draws the die population with
:func:`~repro.sim.runner.legacy_fault_maps`.  Sweeps that need other engine
settings (``include_fault_free=False``, multi-fault-word rejection for
Fig. 5, a fixed-point override) build the :class:`SweepEngine` directly.
``figure6_overhead`` is the :class:`~repro.hardware.overhead.OverheadModel`
comparison.  The general grid lives behind ``repro-faulty-mem dse``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import ProtectionScheme
from repro.core.segments import (
    error_magnitude_profile,
    max_lut_bits,
    unprotected_error_magnitude_profile,
)
from repro.faultmodel.pcell import PcellModel, classical_yield
from repro.faultmodel.yieldmodel import MseDistribution
from repro.hardware.overhead import OverheadModel, OverheadReport
from repro.hardware.technology import Technology
from repro.memory.organization import MemoryOrganization
from repro.scenarios.base import ScenarioSpec
from repro.sim.engine import (
    DEFAULT_SCHEME_SPECS,
    AdaptiveBudget,
    AdaptiveBudgetReport,
    ExperimentConfig,
    QualityDistribution,
    SweepEngine,
    build_scheme,
)
from repro.sim.experiment import BenchmarkDefinition
from repro.sim.runner import legacy_fault_maps

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.store.store import ResultStore

__all__ = [
    "figure2_pcell_vs_vdd",
    "figure4_error_magnitude",
    "figure5_mse_cdf",
    "figure6_overhead",
    "figure7_quality",
    "standard_figure7_schemes",
]


def figure2_pcell_vs_vdd(
    vdd_values: Optional[Sequence[float]] = None,
    model: Optional[PcellModel] = None,
    organization: Optional[MemoryOrganization] = None,
) -> Dict[str, np.ndarray]:
    """Fig. 2: bit-cell failure probability and classical yield versus supply voltage.

    Returns a dict with the VDD sweep, the per-cell failure probability, and
    the zero-failure yield of the given memory (16 kB by default) at each
    voltage -- the quantity whose collapse around 0.73 V motivates the paper.
    """
    model = model if model is not None else PcellModel.calibrated_28nm()
    organization = (
        organization if organization is not None else MemoryOrganization.paper_16kb()
    )
    if vdd_values is None:
        vdd_values = np.linspace(0.60, 1.00, 41)
    vdd = np.asarray(vdd_values, dtype=np.float64)
    p_cell = model.p_cell_curve(vdd)
    memory_yield = np.array(
        [classical_yield(p, organization.total_cells) for p in p_cell]
    )
    return {"vdd": vdd, "p_cell": p_cell, "classical_yield": memory_yield}


def figure4_error_magnitude(word_width: int = 32) -> Dict[str, np.ndarray]:
    """Fig. 4: worst-case error magnitude per faulty bit position for each nFM.

    Returns a dict mapping ``"no-correction"`` and ``"nfm=k"`` to arrays of
    error magnitudes indexed by the faulty bit position.
    """
    series: Dict[str, np.ndarray] = {
        "no-correction": unprotected_error_magnitude_profile(word_width)
    }
    for n_fm in range(1, max_lut_bits(word_width) + 1):
        series[f"nfm={n_fm}"] = error_magnitude_profile(word_width, n_fm)
    return series


def figure5_mse_cdf(
    organization: Optional[MemoryOrganization] = None,
    p_cell: float = 5e-6,
    samples_per_count: int = 300,
    coverage: float = 0.9999999,
    schemes: Optional[Sequence[ProtectionScheme]] = None,
    rng: Optional[np.random.Generator] = None,
    workers: int = 1,
    sampling: str = "legacy",
    master_seed: Optional[int] = None,
    checkpoint: Optional[str] = None,
    scenario: Optional[ScenarioSpec] = None,
    adaptive: Optional[AdaptiveBudget] = None,
    report_out: Optional[List[AdaptiveBudgetReport]] = None,
    store: Optional["ResultStore"] = None,
    access_trace: int = 1,
    executor: Optional[object] = None,
) -> Dict[str, MseDistribution]:
    """Fig. 5: CDF of the local MSE for every protection option.

    Evaluates ``schemes`` -- by default the unprotected memory, the H(22,16)
    P-ECC baseline, and the bit-shuffling scheme for every ``nFM`` the word
    width allows -- against the *same* Monte-Carlo population of faulty
    dies, at the paper's operating point (16 kB memory, Pcell = 5e-6) -- one
    :meth:`SweepEngine.run_mse` call.  Results are keyed by scheme name.

    ``workers`` fans the per-die analysis out over processes; results are
    bit-identical for any count.  ``sampling="legacy"`` (default) draws the
    die population serially from ``rng``, reproducing the historical pinned
    curves; ``"seeded"`` derives one seed-sequence child per die from
    ``master_seed`` so sampling parallelises too.  ``checkpoint`` names an
    optional JSON results cache for resumable sweeps.  ``scenario``
    optionally names a fault-scenario pipeline (aged / clustered / repaired
    dies) the population is drawn through; ``None`` is the default i.i.d.
    population, and scenarios with a transient tier are rejected by the
    engine (the analytical MSE evaluation cannot model per-read faults; use
    :func:`figure7_quality`).  ``adaptive`` switches the sweep to the engine's
    confidence-driven budget (requires seeded sampling;
    ``samples_per_count`` then caps the spend instead of fixing it), with
    the outcome report appended to ``report_out`` when given.  ``store``
    makes the figure a store-backed view: an exact configuration-hash hit
    is served from the :class:`~repro.store.ResultStore` bit-identically
    with zero new die evaluations, and a computed sweep is recorded into
    it.
    ``executor`` selects the shard executor tier (``None``/``"local"``,
    ``"inline"``, or an :class:`~repro.sim.executor.ExecutorSpec` for
    distributed TCP sweeps); results are bit-identical across tiers.
    """
    if sampling not in ("seeded", "legacy"):
        raise ValueError(
            f"unknown sampling mode {sampling!r}; expected one of seeded, legacy"
        )
    organization = (
        organization if organization is not None else MemoryOrganization.paper_16kb()
    )
    if schemes is None:
        n_fm_max = max_lut_bits(organization.word_width)
        scheme_specs = ("no-protection", "p-ecc") + tuple(
            f"bit-shuffle-nfm{n_fm}" for n_fm in range(1, n_fm_max + 1)
        )
    else:
        scheme_specs = tuple(scheme.name for scheme in schemes)
    if adaptive is not None and sampling == "legacy":
        raise ValueError(
            "adaptive budgets require sampling='seeded' (the die population "
            "is not known up front)"
        )
    if sampling == "legacy":
        rng = rng if rng is not None else np.random.default_rng(2015)
        master_seed = None
    else:
        master_seed = master_seed if master_seed is not None else 2015
    config = ExperimentConfig(
        rows=organization.rows,
        word_width=organization.word_width,
        p_cell=p_cell,
        coverage=coverage,
        samples_per_count=samples_per_count,
        master_seed=master_seed,
        scheme_specs=scheme_specs,
        discard_multi_fault_words=False,
        scenario=scenario,
        adaptive=adaptive,
        access_trace=access_trace,
    )
    engine = SweepEngine(config, schemes=schemes)
    results = engine.run_mse(
        workers=workers,
        checkpoint=checkpoint,
        fault_maps=(
            legacy_fault_maps(config, rng) if sampling == "legacy" else None
        ),
        store=store,
        executor=executor,
    )
    if report_out is not None and engine.last_adaptive_report is not None:
        report_out.append(engine.last_adaptive_report)
    return results


def figure6_overhead(
    organization: Optional[MemoryOrganization] = None,
    technology: Optional[Technology] = None,
    lut_realisation: str = "column",
) -> OverheadReport:
    """Fig. 6: read power / read delay / area overhead relative to SECDED ECC."""
    organization = (
        organization if organization is not None else MemoryOrganization.paper_16kb()
    )
    return OverheadModel(organization, technology).compare(
        lut_realisation=lut_realisation
    )


def standard_figure7_schemes(word_width: int = 32) -> List[ProtectionScheme]:
    """The four schemes plotted in Fig. 7: none, P-ECC, bit-shuffle nFM=1 and nFM=2."""
    return [build_scheme(spec, word_width) for spec in DEFAULT_SCHEME_SPECS]


def figure7_quality(
    benchmark: BenchmarkDefinition,
    organization: Optional[MemoryOrganization] = None,
    p_cell: float = 1e-3,
    samples_per_count: int = 10,
    n_count_points: Optional[int] = 12,
    schemes: Optional[Sequence[ProtectionScheme]] = None,
    rng: Optional[np.random.Generator] = None,
    workers: int = 1,
    master_seed: Optional[int] = None,
    checkpoint: Optional[str] = None,
    scenario: Optional[ScenarioSpec] = None,
    adaptive: Optional[AdaptiveBudget] = None,
    report_out: Optional[List[AdaptiveBudgetReport]] = None,
    store: Optional["ResultStore"] = None,
    access_trace: int = 1,
    executor: Optional[object] = None,
) -> Dict[str, QualityDistribution]:
    """Fig. 7: CDF of the application quality metric under memory failures.

    Runs one benchmark (Elasticnet, PCA, or KNN) against the Fig. 7 scheme set
    at the 16 kB / Pcell = 1e-3 operating point.  ``samples_per_count`` and
    ``n_count_points`` control the Monte-Carlo budget (the paper uses 500
    samples for every failure count up to Nmax; the defaults here are sized
    for a laptop run and can be raised to match).

    ``workers`` fans the per-die evaluation out over processes; the result is
    bit-identical for any worker count.  When ``master_seed`` is given the
    sweep runs on the :class:`~repro.sim.engine.SweepEngine` seeded sampling
    path (one seed-sequence child per die) instead of the legacy shared
    generator ``rng``; ``checkpoint`` names an optional JSON results cache for
    resumable sweeps.  Either way the figure is one :meth:`SweepEngine.run`
    call.
    ``adaptive`` switches the sweep to the engine's confidence-driven budget
    (requires ``master_seed``; ``samples_per_count`` then caps the spend
    instead of fixing it), with the outcome report appended to
    ``report_out`` when given.  ``store`` behaves as in
    :func:`figure5_mse_cdf` (store-backed view with bit-identical hits).
    ``access_trace`` sets the read passes replayed per load for scenarios
    with a transient tier (which require ``master_seed`` -- the per-read
    corruption replays from each die's seed-sequence child).  ``executor``
    behaves as in :func:`figure5_mse_cdf`.
    """
    organization = (
        organization if organization is not None else MemoryOrganization.paper_16kb()
    )
    if schemes is None:
        schemes = standard_figure7_schemes(organization.word_width)
    if adaptive is not None and master_seed is None:
        raise ValueError(
            "adaptive budgets require a master_seed (the die population is "
            "not known up front, so legacy shared-generator sampling cannot "
            "supply it)"
        )
    config = ExperimentConfig(
        rows=organization.rows,
        word_width=organization.word_width,
        p_cell=p_cell,
        samples_per_count=samples_per_count,
        n_count_points=n_count_points,
        master_seed=master_seed,
        scheme_specs=tuple(scheme.name for scheme in schemes),
        benchmark=benchmark.name,
        scenario=scenario,
        adaptive=adaptive,
        access_trace=access_trace,
    )
    engine = SweepEngine(config, schemes=schemes)
    fault_maps = None
    if master_seed is None:
        rng = rng if rng is not None else np.random.default_rng(52)
        fault_maps = legacy_fault_maps(config, rng)
    results = engine.run(
        benchmark,
        workers=workers,
        checkpoint=checkpoint,
        fault_maps=fault_maps,
        store=store,
        executor=executor,
    )
    if report_out is not None and engine.last_adaptive_report is not None:
        report_out.append(engine.last_adaptive_report)
    return results
