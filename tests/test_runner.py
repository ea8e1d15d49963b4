"""Tests for the application-quality Monte-Carlo flow of Fig. 7: legacy
sampling, the stratified failure-count grid, and the Fig. 7 front end."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.figures import figure7_quality

from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.faultmodel.montecarlo import FaultMapSampler, failure_count_pmf
from repro.memory.organization import MemoryOrganization
from repro.scenarios import default_scenario
from repro.sim.config import ExperimentConfig, reassign_count_probabilities
from repro.sim.engine import SweepEngine
from repro.sim.experiment import knn_benchmark, pca_benchmark
from repro.sim.runner import legacy_fault_maps


@pytest.fixture(scope="module")
def knn_bench():
    return knn_benchmark(n_samples=150, seed=3)


# Small memory and elevated Pcell keep the Monte-Carlo sweep cheap while
# exercising the full stratified flow.
ORG = MemoryOrganization(rows=256, word_width=32)


@pytest.fixture
def config():
    return ExperimentConfig(
        rows=ORG.rows, word_width=ORG.word_width, p_cell=2e-3, coverage=0.9
    )


def _counts(config, n_points=None):
    """The failure counts of ``config``'s sweep, optionally subsampled."""
    return dataclasses.replace(config, n_count_points=n_points).evaluated_counts()


def _count_probabilities(config, counts):
    """``Pr(N = n)`` of ``config``'s sweep, reassigned onto ``counts``."""
    return reassign_count_probabilities(
        config.organization.total_cells, config.p_cell, config.max_failures, counts
    )


def _fig7(benchmark, schemes, samples_per_count, n_count_points=None):
    """A small Fig. 7 sweep of ``schemes`` on ``ORG`` at Pcell = 2e-3."""
    return figure7_quality(
        benchmark,
        organization=ORG,
        p_cell=2e-3,
        samples_per_count=samples_per_count,
        n_count_points=n_count_points,
        schemes=schemes,
        rng=np.random.default_rng(12345),
    )


class _ChoiceCounter:
    """A generator stand-in that counts its ``choice`` calls."""

    def __init__(self, rng):
        self._rng = rng
        self.choices = 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestLegacyFaultMaps:
    def test_matches_per_die_loop_with_rejection(self):
        # 128 cells at Pcell = 5 % put up to 13 faults in 16 words, so most
        # candidate maps hold a word with two faults and are redrawn.
        config = ExperimentConfig(
            rows=16, word_width=8, p_cell=0.05, samples_per_count=4
        )
        assert config.discard_multi_fault_words
        rng = _ChoiceCounter(np.random.default_rng(7))
        fault_maps = legacy_fault_maps(config, rng)
        dies = len(config.evaluated_counts()) * config.samples_per_count
        assert len(fault_maps) == dies
        # Each candidate map is one choice() draw.
        assert rng.choices > dies

        # The per-die loop the stream was first pinned with.
        sampler = FaultMapSampler(
            config.organization, np.random.default_rng(7), default_scenario()
        )
        expected = {}
        for count_index, count in enumerate(config.evaluated_counts()):
            for sample_index in range(config.samples_per_count):
                expected[(count_index, sample_index)] = sampler.sample_batch(
                    count, 1, max_faults_per_word=1, vectorized=False
                )[0]
        assert list(fault_maps) == list(expected)
        for key, fault_map in fault_maps.items():
            assert list(fault_map._faults.items()) == list(
                expected[key]._faults.items()
            )


class TestConfiguration:
    def test_rejects_bad_pcell(self, small_org, knn_bench):
        with pytest.raises(ValueError):
            figure7_quality(knn_bench, organization=small_org, p_cell=0.0)

    def test_failure_counts_full_range(self, config):
        counts = _counts(config)
        assert counts[0] == 1
        assert counts[-1] == config.max_failures

    def test_failure_counts_subsampled(self, config):
        counts = _counts(config, n_points=4)
        assert len(counts) <= 4
        assert counts[0] >= 1
        assert counts[-1] <= config.max_failures

    def test_failure_counts_rejects_zero_points(self, config):
        with pytest.raises(ValueError):
            _counts(config, n_points=0)

    def test_count_probabilities_sum_to_fault_mass(self, config):
        counts = _counts(config, n_points=5)
        probabilities = _count_probabilities(config, counts)
        total = sum(probabilities.values())

        expected = sum(
            failure_count_pmf(config.organization.total_cells, config.p_cell, n)
            for n in range(1, config.max_failures + 1)
        )
        assert total == pytest.approx(expected)


class TestFailureCountSubsampling:
    """The geometric subsample must conserve probability mass exactly."""

    @pytest.mark.parametrize("n_points", [1, 2, 4, 7])
    def test_skipped_mass_reassigned_to_nearest_count(self, config, n_points):
        counts = _counts(config, n_points=n_points)
        probabilities = _count_probabilities(config, counts)
        assert set(probabilities) == set(counts)

        # Independently reassign each skipped count's mass to the nearest
        # evaluated count (ties resolved to the smaller count, as np.argmin
        # does) and compare bucket by bucket.
        expected = {c: 0.0 for c in counts}
        cells, p_cell = config.organization.total_cells, config.p_cell
        for n in range(1, config.max_failures + 1):
            nearest = min(counts, key=lambda c: (abs(c - n), c))
            expected[nearest] += failure_count_pmf(cells, p_cell, n)
        for count in counts:
            assert probabilities[count] == pytest.approx(expected[count], abs=1e-15)

    @pytest.mark.parametrize("n_points", [1, 3, 6])
    def test_mass_with_zero_fault_point_sums_to_one(self, config, n_points):
        # Together with the fault-free point mass, the reassigned per-count
        # probabilities must reproduce the full sweep's coverage of the die
        # population: at least `coverage`, at most exactly 1 (the tail beyond
        # Nmax is the only mass allowed to be missing).
        probabilities = _count_probabilities(
            config, _counts(config, n_points=n_points)
        )
        zero_mass = failure_count_pmf(
            config.organization.total_cells, config.p_cell, 0
        )
        total = zero_mass + sum(probabilities.values())
        assert total <= 1.0 + 1e-12
        assert total >= 0.9  # the config fixture's coverage
        # Subsampling must not change the total at all relative to the full sweep.
        full = _count_probabilities(config, _counts(config))
        assert total == pytest.approx(zero_mass + sum(full.values()), abs=1e-15)


class TestRun:
    def test_run_produces_distribution_per_scheme(self, knn_bench):
        schemes = [NoProtection(32), BitShuffleScheme(32, 2)]
        results = _fig7(knn_bench, schemes, samples_per_count=2, n_count_points=3)
        assert set(results) == {"no-protection", "bit-shuffle-nfm2"}
        for dist in results.values():
            assert dist.benchmark == "knn"
            assert dist.samples > 0
            assert 0.0 <= dist.yield_at_quality(0.5) <= 1.0

    def test_secded_reference_stays_at_clean_quality(self, knn_bench):
        # With multi-fault words discarded, SECDED corrects everything and the
        # normalised quality is exactly 1 for every die.
        results = _fig7(
            knn_bench, [SecdedScheme(32)], samples_per_count=2, n_count_points=3
        )
        dist = results["secded-H(39,32)"]
        assert dist.yield_at_quality(1.0 - 1e-9) == pytest.approx(1.0)

    def test_protected_yield_not_worse_than_unprotected(self, knn_bench):
        results = _fig7(
            knn_bench,
            [NoProtection(32), BitShuffleScheme(32, 2)],
            samples_per_count=2,
            n_count_points=3,
        )
        target = 0.9
        assert results["bit-shuffle-nfm2"].yield_at_quality(target) >= results[
            "no-protection"
        ].yield_at_quality(target) - 1e-9

    def test_rejects_non_positive_samples(self, knn_bench):
        with pytest.raises(ValueError):
            _fig7(knn_bench, [NoProtection(32)], samples_per_count=0)

    def test_cdf_series_shapes(self, knn_bench):
        results = _fig7(
            knn_bench, [NoProtection(32)], samples_per_count=2, n_count_points=2
        )
        x, y = results["no-protection"].cdf_series()
        assert len(x) == len(y)
        assert np.all(np.diff(y) >= -1e-12)

    def test_median_quality_bounded(self, knn_bench):
        results = _fig7(
            knn_bench, [BitShuffleScheme(32, 1)], samples_per_count=2, n_count_points=2
        )
        median = results["bit-shuffle-nfm1"].median_quality()
        assert 0.0 <= median <= 1.5


# --------------------------------------------------------------------------- #
# Golden regression: the exact Fig. 7 numbers of the scalar seed implementation
# --------------------------------------------------------------------------- #
# Captured from the seed (pre-vectorisation) serial runner with the
# configuration of `golden_sweep` below.  The batched datapath rewrite must
# reproduce these numbers bit-for-bit; any drift here means the vectorised
# encode/corrupt/decode path is no longer equivalent to the scalar model.
GOLDEN_CLEAN_QUALITY = 0.8944027824216683
GOLDEN_SAMPLES = 9
GOLDEN_CURVES = {
    "no-protection": {
        "median": -6454.4839070531125,
        "x": [
            -149815.17349460404, -9948.419209630456, -6454.483907053112,
            0.226663602422, 0.92071253518, 0.966227160059, 0.983057658224,
            0.999984863708, 1.0, 1.000000377109,
        ],
        "y": [
            0.246085361446, 0.492170722893, 0.738256084339, 0.825480808128,
            0.912705531917, 0.912728754287, 0.999953478076, 0.999976700447,
            0.999976777629, 1.0,
        ],
    },
    "secded-H(39,32)": {
        "median": 1.0000001201298454,
        "x": [
            1.0, 1.00000012013, 1.00000012013, 1.00000012013, 1.00000012013,
            1.00000012013, 1.00000012013, 1.00000012013, 1.00000012013,
            1.00000012013,
        ],
        "y": [
            7.7183e-08, 2.3299553e-05, 4.6521924e-05, 6.9744294e-05,
            0.087294468083, 0.174519191872, 0.261743915661, 0.507829277107,
            0.753914638554, 1.0,
        ],
    },
    "p-ecc-H(22,16)": {
        "median": 1.0001014698781092,
        "x": [
            0.999936209104, 0.999984863708, 0.999994021409, 1.0,
            1.00000012013, 1.000000377109, 1.0000620092, 1.000101469878,
            1.000115434866, 1.000206314242,
        ],
        "y": [
            0.246085361446, 0.246108583817, 0.333333307606, 0.333333384788,
            0.333356607159, 0.33337982953, 0.420604553319, 0.666689914765,
            0.912775276211, 1.0,
        ],
    },
    "bit-shuffle-nfm2": {
        "median": 0.9999995001072275,
        "x": [
            0.999989999601, 0.999999435146, 0.99999947293, 0.999999500107,
            0.999999584816, 1.0, 1.000000126944, 1.000000199814,
            1.000001855551, 1.000002504479,
        ],
        "y": [
            0.246085361446, 0.333310085235, 0.333333307606, 0.579418669052,
            0.666643392841, 0.666643470024, 0.666666692394, 0.666689914765,
            0.753914638554, 1.0,
        ],
    },
}


def golden_sweep(workers=1):
    """The golden configuration: PCA stored in a 64-row memory at
    Pcell = 8e-3, dies pre-drawn from ``default_rng(2024)``.  Its coverage
    (0.9) is no Fig. 7 front-end setting, so the engine is built directly."""
    bench = pca_benchmark(n_samples=80, n_noise=20, seed=21)
    schemes = [
        NoProtection(32),
        SecdedScheme(32),
        PriorityEccScheme(32),
        BitShuffleScheme(32, 2),
    ]
    config = ExperimentConfig(
        rows=64,
        word_width=32,
        p_cell=8e-3,
        coverage=0.9,
        samples_per_count=3,
        n_count_points=3,
        scheme_specs=tuple(scheme.name for scheme in schemes),
        benchmark=bench.name,
    )
    return SweepEngine(config, schemes=schemes).run(
        bench,
        workers=workers,
        fault_maps=legacy_fault_maps(config, np.random.default_rng(2024)),
    )


class TestGoldenRegression:
    @pytest.fixture(scope="class")
    def golden_results(self):
        return golden_sweep()

    def test_scheme_set(self, golden_results):
        assert set(golden_results) == set(GOLDEN_CURVES)

    @pytest.mark.parametrize("scheme_name", sorted(GOLDEN_CURVES))
    def test_curves_match_seed_implementation(self, golden_results, scheme_name):
        dist = golden_results[scheme_name]
        golden = GOLDEN_CURVES[scheme_name]
        assert dist.samples == GOLDEN_SAMPLES
        assert dist.clean_quality == pytest.approx(
            GOLDEN_CLEAN_QUALITY, rel=1e-12, abs=0
        )
        assert dist.median_quality() == pytest.approx(
            golden["median"], rel=1e-10, abs=1e-10
        )
        x, y = dist.cdf_series()
        np.testing.assert_allclose(x, golden["x"], rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(y, golden["y"], rtol=1e-10, atol=1e-10)
