"""Tests for the quality-aware yield model (Eqs. 3-6, Fig. 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.figures import figure5_mse_cdf
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.memory.organization import MemoryOrganization
from repro.sim.config import ExperimentConfig
from repro.sim.engine import SweepEngine
from repro.sim.runner import legacy_fault_maps

# A smaller memory keeps the Monte-Carlo sweeps fast while preserving the
# structure of the analysis.
ORG = MemoryOrganization(rows=512, word_width=32)
P_CELL = 1e-4
COVERAGE = 0.999


def _fig5(rng, schemes, samples_per_count=40):
    """One paired Fig. 5 sweep of ``schemes`` over the same dies."""
    return figure5_mse_cdf(
        organization=ORG,
        p_cell=P_CELL,
        samples_per_count=samples_per_count,
        coverage=COVERAGE,
        schemes=schemes,
        rng=rng,
    )


def _engine_mse(
    rng, schemes, samples_per_count, discard=False, include_fault_free=True
):
    """An engine MSE sweep with settings the Fig. 5 front end does not
    expose (multi-fault-word rejection, no fault-free point mass)."""
    config = ExperimentConfig(
        rows=ORG.rows,
        word_width=ORG.word_width,
        p_cell=P_CELL,
        coverage=COVERAGE,
        samples_per_count=samples_per_count,
        scheme_specs=tuple(scheme.name for scheme in schemes),
        discard_multi_fault_words=discard,
    )
    return SweepEngine(config, schemes=schemes).run_mse(
        fault_maps=legacy_fault_maps(config, rng),
        include_fault_free=include_fault_free,
    )


class TestConstruction:
    def test_rejects_degenerate_pcell(self, rng):
        for p_cell in (0.0, 1.0):
            with pytest.raises(ValueError):
                figure5_mse_cdf(organization=ORG, p_cell=p_cell, rng=rng)

    def test_max_failures_covers_population(self, rng):
        dist = _fig5(rng, [NoProtection(32)], samples_per_count=2)
        assert dist["no-protection"].max_failures >= 1

    def test_zero_fault_probability(self, rng):
        dist = _fig5(rng, [NoProtection(32)], samples_per_count=2)
        expected = (1 - P_CELL) ** ORG.total_cells
        assert dist["no-protection"].zero_fault_probability == pytest.approx(
            expected, rel=1e-6
        )


class TestMseDistribution:
    def test_secded_yield_is_dominated_by_clean_and_single_fault_dies(self, rng):
        dist = _fig5(rng, [SecdedScheme(32)])["secded-H(39,32)"]
        # SECDED corrects every single-fault die, so essentially every die that
        # is either clean or has one fault reaches MSE = 0.
        assert dist.yield_at_mse(0.0) > 0.99

    def test_unprotected_yield_lower_than_shuffled(self, rng):
        results = _fig5(rng, [NoProtection(32), BitShuffleScheme(32, 1)])
        target = 1e6
        assert results["bit-shuffle-nfm1"].yield_at_mse(target) >= results[
            "no-protection"
        ].yield_at_mse(target)

    def test_mse_at_yield_monotone_in_nfm_single_fault_rows(self, rng):
        # The finer the LUT granularity, the smaller the MSE a given yield
        # target requires -- in the paper's single-fault-per-word regime.
        # Dies with several faults in one row are redrawn here (the
        # most-significant programming policy cannot neutralise them all; see
        # the multi-fault test below).
        schemes = [BitShuffleScheme(32, n_fm) for n_fm in (1, 3, 5)]
        results = _engine_mse(
            rng, schemes, samples_per_count=40, discard=True
        )
        values = [results[scheme.name].mse_at_yield(0.999) for scheme in schemes]
        assert values == sorted(values, reverse=True)

    def test_minimax_policy_tames_multi_fault_rows(self, rng):
        # Ablation: with several faults in one row the simple most-significant
        # policy can wrap a low fault to a high logical position; the minimax
        # policy never requires a larger MSE at the same yield target.
        results = _fig5(
            rng,
            [
                BitShuffleScheme(32, 5, multi_fault_policy="most-significant"),
                BitShuffleScheme(32, 5, multi_fault_policy="minimax"),
            ],
        )
        assert results["bit-shuffle-nfm5-minimax"].mse_at_yield(0.999) <= results[
            "bit-shuffle-nfm5"
        ].mse_at_yield(0.999)

    def test_exclude_fault_free_mass(self):
        with_mass = _engine_mse(
            np.random.default_rng(1), [NoProtection(32)], 20,
            include_fault_free=True,
        )["no-protection"]
        without_mass = _engine_mse(
            np.random.default_rng(1), [NoProtection(32)], 20,
            include_fault_free=False,
        )["no-protection"]
        assert with_mass.yield_at_mse(0.0) >= with_mass.zero_fault_probability - 1e-9
        assert without_mass.yield_at_mse(0.0) < with_mass.yield_at_mse(0.0)

    def test_rejects_word_width_mismatch(self, rng):
        with pytest.raises(ValueError, match="word width"):
            _fig5(rng, [NoProtection(16)])

    def test_rejects_non_positive_samples(self, rng):
        with pytest.raises(ValueError):
            _fig5(rng, [NoProtection(32)], samples_per_count=0)

    def test_yield_queries_validate_input(self, rng):
        dist = _fig5(rng, [NoProtection(32)], samples_per_count=5)
        with pytest.raises(ValueError):
            dist["no-protection"].yield_at_mse(-1.0)

    def test_cdf_series_on_grid(self, rng):
        dist = _fig5(rng, [NoProtection(32)], samples_per_count=10)
        grid = [1e0, 1e3, 1e6, 1e9, 1e15]
        x, y = dist["no-protection"].cdf_series(grid)
        assert list(x) == grid
        assert all(0.0 <= v <= 1.0 for v in y)
        assert list(y) == sorted(y)


class TestSchemeComparison:
    def test_compare_uses_shared_dies(self, rng):
        results = _fig5(
            rng,
            [NoProtection(32), BitShuffleScheme(32, 2), PriorityEccScheme(32)],
            samples_per_count=30,
        )
        assert set(results) == {"no-protection", "bit-shuffle-nfm2", "p-ecc-H(22,16)"}
        # Paper Fig. 5: the proposed scheme with nFM=2 outperforms P-ECC.
        pecc = results["p-ecc-H(22,16)"]
        shuffled = results["bit-shuffle-nfm2"]
        assert shuffled.mse_at_yield(0.999) <= pecc.mse_at_yield(0.999)

    def test_samples_counted(self, rng):
        dist = _fig5(rng, [NoProtection(32)], samples_per_count=10)
        dist = dist["no-protection"]
        assert dist.samples == dist.max_failures * 10


class TestLegacyMapsAcrossWorkers:
    def test_local_workers_match_inline_bit_for_bit(self, monkeypatch):
        """Legacy sampling draws every map in the coordinator and ships the
        pre-drawn maps to the workers; a two-worker local pool must score
        them to the inline sweep's curves exactly."""
        executors = []
        run_mse = SweepEngine.run_mse

        def recording_run_mse(self, **kwargs):
            results = run_mse(self, **kwargs)
            executors.append(self.last_run_stats.executor)
            return results

        monkeypatch.setattr(SweepEngine, "run_mse", recording_run_mse)

        def sweep(workers, executor):
            return figure5_mse_cdf(
                organization=ORG,
                p_cell=P_CELL,
                samples_per_count=6,
                coverage=COVERAGE,
                rng=np.random.default_rng(11),
                sampling="legacy",
                workers=workers,
                executor=executor,
            )

        inline = sweep(1, "inline")
        local = sweep(2, "local")
        assert executors == ["inline", "local"]
        assert list(local) == list(inline)
        for name, dist in inline.items():
            assert local[name].samples == dist.samples
            for ours, theirs in zip(local[name].cdf_series(), dist.cdf_series()):
                assert ours.tobytes() == theirs.tobytes()

    def test_score_batches_smaller_than_a_shard_change_nothing(self, monkeypatch):
        """Shards draw and score their dies in bounded batches; cutting a
        shard into many batches must not move any seeded curve."""
        from repro.sim import shardeval

        def sweep():
            return figure5_mse_cdf(
                organization=ORG,
                p_cell=P_CELL,
                samples_per_count=6,
                coverage=COVERAGE,
                sampling="seeded",
                master_seed=5,
                executor="inline",
            )

        whole = sweep()
        monkeypatch.setattr(shardeval, "SCORE_BATCH_DIES", 4)
        batched = sweep()
        for name, dist in whole.items():
            for ours, theirs in zip(batched[name].cdf_series(), dist.cdf_series()):
                assert ours.tobytes() == theirs.tobytes()
