"""Tests for the failure-count statistics and Monte-Carlo samplers (Eq. 4)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.faultmodel.montecarlo import (
    FaultMapSampler,
    expected_failures,
    failure_count_cdf,
    failure_count_pmf,
    max_failures_for_coverage,
    samples_per_failure_count,
)
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.scenarios import default_scenario


class TestFailureCountPmf:
    def test_matches_direct_binomial_for_small_m(self):
        m, p = 20, 0.1
        for n in range(0, 21):
            direct = math.comb(m, n) * p ** n * (1 - p) ** (m - n)
            assert failure_count_pmf(m, p, n) == pytest.approx(direct, rel=1e-9)

    def test_sums_to_one_small_m(self):
        m, p = 50, 0.03
        total = sum(failure_count_pmf(m, p, n) for n in range(m + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_large_memory_does_not_overflow(self):
        # M = 131072 would overflow a naive comb() product.
        value = failure_count_pmf(131072, 1e-3, 131)
        assert 0.0 < value < 1.0

    def test_zero_pcell(self):
        assert failure_count_pmf(100, 0.0, 0) == 1.0
        assert failure_count_pmf(100, 0.0, 1) == 0.0

    def test_unit_pcell(self):
        assert failure_count_pmf(100, 1.0, 100) == 1.0
        assert failure_count_pmf(100, 1.0, 50) == 0.0

    def test_out_of_support(self):
        assert failure_count_pmf(10, 0.1, 11) == 0.0
        assert failure_count_pmf(10, 0.1, -1) == 0.0

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            failure_count_pmf(-1, 0.1, 0)
        with pytest.raises(ValueError):
            failure_count_pmf(10, 1.5, 0)

    def test_paper_fig5_operating_point_mostly_fault_free(self):
        # 16 kB at Pcell = 5e-6: mean 0.65 failures, >50% of dies fault free.
        assert failure_count_pmf(131072, 5e-6, 0) > 0.5


class TestFailureCountCdf:
    def test_cdf_reaches_one(self):
        assert failure_count_cdf(50, 0.02, 50) == pytest.approx(1.0, abs=1e-9)

    def test_cdf_monotone(self):
        values = [failure_count_cdf(100, 0.05, n) for n in range(0, 20)]
        assert values == sorted(values)

    def test_negative_n(self):
        assert failure_count_cdf(10, 0.1, -1) == 0.0


class TestExpectedFailures:
    def test_mean(self):
        assert expected_failures(131072, 1e-3) == pytest.approx(131.072)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            expected_failures(-1, 0.5)


class TestCoverage:
    def test_covers_requested_fraction(self):
        m, p = 131072, 5e-6
        n_max = max_failures_for_coverage(m, p, 0.99)
        assert failure_count_cdf(m, p, n_max) >= 0.99
        if n_max > 0:
            assert failure_count_cdf(m, p, n_max - 1) < 0.99

    def test_higher_coverage_needs_more_failures(self):
        m, p = 131072, 1e-3
        assert max_failures_for_coverage(m, p, 0.999) >= max_failures_for_coverage(
            m, p, 0.9
        )

    def test_fig7_nmax_scale(self):
        # At Pcell = 1e-3 the mean is ~131; Nmax for 99% coverage sits above it.
        n_max = max_failures_for_coverage(131072, 1e-3, 0.99)
        assert 131 < n_max < 200

    def test_rejects_bad_coverage(self):
        with pytest.raises(ValueError):
            max_failures_for_coverage(100, 0.1, 1.0)


class TestSampleAllocation:
    def test_allocations_positive(self):
        allocation = samples_per_failure_count(131072, 5e-6, 1000)
        assert all(v >= 1 for v in allocation.values())

    def test_allocation_proportional_to_pmf(self):
        allocation = samples_per_failure_count(131072, 5e-6, 10 ** 6, max_failures=3)
        assert allocation[1] > allocation[2] > allocation[3]

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            samples_per_failure_count(100, 0.1, 0)


class TestFaultMapSampler:
    def test_sample_with_count(self, small_org, rng):
        sampler = FaultMapSampler(small_org, rng, default_scenario())
        assert sampler.sample_batch(7, 1)[0].fault_count == 7

    def test_sample_batch_length(self, small_org, rng):
        sampler = FaultMapSampler(small_org, rng, default_scenario())
        assert len(sampler.sample_batch(2, 13)) == 13

    def test_sample_batch_negative_rejected(self, small_org, rng):
        with pytest.raises(ValueError):
            FaultMapSampler(small_org, rng, default_scenario()).sample_batch(
                1, -1
            )


class TestPmfArray:
    def test_matches_scalar_bit_for_bit(self):
        from repro.faultmodel.montecarlo import failure_count_pmf_array

        m, p = 131072, 1e-3
        array = failure_count_pmf_array(m, p, 200)
        assert array.shape == (201,)
        for n in (0, 1, 63, 131, 200):
            assert array[n] == failure_count_pmf(m, p, n)

    def test_paper_scale_pmf_sums_to_one(self):
        # Full-support mass conservation at the paper's M = 131072: the
        # log-domain evaluation must not leak probability anywhere over the
        # whole 0..M range.
        from repro.faultmodel.montecarlo import failure_count_pmf_array

        m = 131072
        for p in (1e-3, 5e-6):
            total = float(failure_count_pmf_array(m, p, m).sum())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_length(self):
        from repro.faultmodel.montecarlo import failure_count_pmf_array

        with pytest.raises(ValueError):
            failure_count_pmf_array(10, 0.1, -1)


class TestCdfCaching:
    """The cumulative table must be invisible: same values as the direct sum."""

    def test_matches_sequential_sum(self):
        m, p = 1000, 0.01
        running = 0.0
        for n in range(0, 60):
            running += failure_count_pmf(m, p, n)
            assert failure_count_cdf(m, p, n) == running

    def test_order_of_queries_is_irrelevant(self):
        m, p = 4096, 2e-3
        descending = [failure_count_cdf(m, p, n) for n in (40, 20, 10, 5, 0)]
        ascending = [failure_count_cdf(m, p, n) for n in (0, 5, 10, 20, 40)]
        assert descending == ascending[::-1]

    def test_coverage_threshold_matches_naive_reference(self):
        for m, p, coverage in (
            (131072, 5e-6, 0.99),
            (131072, 1e-3, 0.999),
            (2048, 8e-3, 0.9),
            (64, 0.5, 0.5),
        ):
            cumulative = 0.0
            expected = m
            for n in range(m + 1):
                cumulative += failure_count_pmf(m, p, n)
                if cumulative >= coverage:
                    expected = n
                    break
            assert max_failures_for_coverage(m, p, coverage) == expected


class TestSampleAllocationProperties:
    def test_budget_is_conserved_up_to_rounding(self):
        m, p, total_runs = 131072, 1e-3, 10**6
        allocation = samples_per_failure_count(m, p, total_runs)
        covered_mass = sum(
            failure_count_pmf(m, p, n) for n in allocation
        )
        # Every stratum rounds to the nearest integer (and floors at one
        # sample), so the allocated total tracks the budget times the covered
        # probability mass to within one sample per stratum.
        assert abs(sum(allocation.values()) - covered_mass * total_runs) <= len(
            allocation
        )

    def test_allocation_tracks_pmf_shape(self):
        m, p, total_runs = 131072, 1e-3, 10**7
        allocation = samples_per_failure_count(m, p, total_runs, max_failures=140)
        for n in (120, 125, 131, 135):
            expected_ratio = failure_count_pmf(m, p, n) / failure_count_pmf(
                m, p, n + 1
            )
            observed_ratio = allocation[n] / allocation[n + 1]
            assert observed_ratio == pytest.approx(expected_ratio, rel=0.05)


class TestBatchedSamplerStatistics:
    """The vectorised batch sampler must match the scalar one distributionally."""

    CHI2_BOUND_DF15 = 60.0  # far beyond the 1e-6 tail of chi-square(15)

    @staticmethod
    def _cell_histogram(maps, organization, bins=16):
        cells = np.concatenate(
            [
                np.array(
                    [f.row * organization.word_width + f.column for f in m],
                    dtype=np.int64,
                )
                for m in maps
            ]
        )
        return np.bincount(
            cells * bins // organization.total_cells, minlength=bins
        )

    @pytest.fixture
    def stats_org(self):
        return MemoryOrganization(rows=32, word_width=8)

    def test_batched_draws_are_deterministic(self, stats_org):
        first = FaultMapSampler(
            stats_org, np.random.default_rng(77), default_scenario()
        ).sample_batch(5, 20)
        second = FaultMapSampler(
            stats_org, np.random.default_rng(77), default_scenario()
        ).sample_batch(5, 20)
        assert [m.to_json() for m in first] == [m.to_json() for m in second]

    def test_batched_counts_and_rejection(self, stats_org, rng):
        sampler = FaultMapSampler(stats_org, rng, default_scenario())
        maps = sampler.sample_batch(6, 40, max_faults_per_word=1)
        assert len(maps) == 40
        assert all(m.fault_count == 6 for m in maps)
        assert all(m.max_faults_per_row() <= 1 for m in maps)

    def test_batched_cells_are_uniform(self, stats_org):
        sampler = FaultMapSampler(
            stats_org, np.random.default_rng(101), default_scenario()
        )
        maps = sampler.sample_batch(4, 600)
        observed = self._cell_histogram(maps, stats_org)
        expected = observed.sum() / observed.size
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < self.CHI2_BOUND_DF15

    def test_batched_matches_scalar_distribution(self, stats_org):
        batched = FaultMapSampler(
            stats_org, np.random.default_rng(202), default_scenario()
        ).sample_batch(4, 600)
        scalar = FaultMapSampler(
            stats_org, np.random.default_rng(303), default_scenario()
        ).sample_batch(4, 600, vectorized=False)
        h_batched = self._cell_histogram(batched, stats_org)
        h_scalar = self._cell_histogram(scalar, stats_org)
        # Two-sample homogeneity chi-square between the samplers' cell
        # histograms: both draw uniformly over the same 256 cells.
        totals = h_batched + h_scalar
        chi2 = float((((h_batched - h_scalar) ** 2) / totals).sum())
        assert chi2 < 2 * self.CHI2_BOUND_DF15

    def test_scalar_stream_is_unchanged(self, stats_org):
        # vectorized=False must replay the exact legacy per-map stream.
        loop = [
            FaultMap.random_with_count(stats_org, 3, np.random.default_rng(55))
            for _ in range(1)
        ]
        via_sampler = FaultMapSampler(
            stats_org, np.random.default_rng(55), default_scenario()
        ).sample_batch(3, 1, vectorized=False)
        assert [m.to_json() for m in loop] == [m.to_json() for m in via_sampler]

    def test_dense_fallback(self):
        org = MemoryOrganization(rows=8, word_width=8)
        maps = FaultMap.random_batch_with_count(
            org, 9, 5, np.random.default_rng(1)
        )
        assert all(m.fault_count == 9 for m in maps)

    def test_infeasible_rejection_raises(self):
        org = MemoryOrganization(rows=8, word_width=8)
        with pytest.raises(ValueError):
            FaultMap.random_batch_with_count(
                org, 9, 1, np.random.default_rng(1), max_faults_per_word=1
            )

    def test_scalar_infeasible_rejection_raises_instead_of_hanging(self):
        # Regression: the vectorized=False path used to redraw forever for an
        # infeasible max_faults_per_word; it must fail fast like the
        # vectorised path.
        org = MemoryOrganization(rows=8, word_width=8)
        sampler = FaultMapSampler(
            org, np.random.default_rng(1), default_scenario()
        )
        with pytest.raises(ValueError):
            sampler.sample_batch(9, 1, max_faults_per_word=1, vectorized=False)

    def test_scalar_rejection_exhaustion_raises(self):
        org = MemoryOrganization(rows=16, word_width=8)
        sampler = FaultMapSampler(
            org, np.random.default_rng(1), default_scenario()
        )
        with pytest.raises(RuntimeError):
            sampler.sample_batch(
                14, 4, max_faults_per_word=1, vectorized=False, max_attempts=1
            )

    def test_rejection_exhaustion_raises(self):
        org = MemoryOrganization(rows=16, word_width=8)
        with pytest.raises(RuntimeError):
            FaultMap.random_batch_with_count(
                org,
                14,
                8,
                np.random.default_rng(1),
                max_faults_per_word=1,
                max_rounds=1,
            )
