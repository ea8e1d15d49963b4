"""Tests for the transient-fault tier (SER, read-disturb, scrubbing).

The tier's three contracts, each enforced differentially via
:mod:`statharness`:

* **distributional** -- the per-read SER stream really is Bernoulli per
  bit (chi-square goodness-of-fit at the 0.999 level over several seeds);
* **bit-identity** -- the batched NumPy path, the scalar reference in
  ``reference_paths``, and every worker count / shard order of the sweep engine produce exactly
  the same corrupted values from the same master seed;
* **physics** -- scrubbing only ever removes accumulated read-disturb
  state (a subset/monotonicity property), and repeated loads replay the
  identical access trace.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_paths
import statharness
from repro.core.no_protection import NoProtection
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.scenarios import (
    ReadDisturbSource,
    ScenarioSpec,
    ScrubbingRepair,
    SoftErrorSource,
    TransientFaultSource,
    TransientTier,
    build_scenario,
)
from repro.sim.config import ExperimentConfig
from repro.sim.engine import SweepEngine
from repro.sim.experiment import knn_benchmark
from repro.sim.faulty_storage import FaultyTensorStore


@pytest.fixture
def org() -> MemoryOrganization:
    return MemoryOrganization(rows=128, word_width=32)


def _tier(
    ser: float = 1e-3, disturb: float = 0.0, scrub: "int | None" = None
) -> TransientTier:
    sources: list = []
    if ser > 0.0:
        sources.append(SoftErrorSource(flip_probability=ser))
    if disturb > 0.0:
        sources.append(ReadDisturbSource(disturb_probability=disturb))
    scrubbing = None if scrub is None else ScrubbingRepair(period=scrub)
    return TransientTier(sources=tuple(sources), scrubbing=scrubbing)


def _fault_mass(effects) -> int:
    """Disturbed data cells that survive to the final read."""
    return int(np.sum(np.bitwise_count(effects.disturb_masks), dtype=np.int64))


# --------------------------------------------------------------------- #
# Distributional contract (statharness goodness-of-fit)
# --------------------------------------------------------------------- #
class TestSoftErrorDistribution:
    WIDTH = 32
    N_VALUES = 20000
    P_FLIP = 0.01

    @pytest.mark.parametrize("seed", statharness.gof_seeds(3))
    def test_bernoulli_flip_counts_per_word(self, seed):
        """Per-word flip count is exactly Binomial(width, p): chi-square GOF."""
        source = SoftErrorSource(
            flip_probability=self.P_FLIP, distribution="bernoulli"
        )
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        masks = source.read_masks(self.N_VALUES, 128, self.WIDTH, rng)
        counts = np.bitwise_count(masks)
        statharness.assert_binomial_counts(
            counts,
            self.WIDTH,
            self.P_FLIP,
            label=f"SER flip counts (seed {seed})",
        )

    @pytest.mark.parametrize("seed", statharness.gof_seeds(3))
    def test_poisson_total_strikes_near_rate(self, seed):
        """Poisson mode: total flips track the strike rate (toggles cancel)."""
        source = SoftErrorSource(
            flip_probability=self.P_FLIP, distribution="poisson"
        )
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        masks = source.read_masks(self.N_VALUES, 128, self.WIDTH, rng)
        flips = int(np.sum(np.bitwise_count(masks), dtype=np.int64))
        expected = self.P_FLIP * self.N_VALUES * self.WIDTH
        # 6-sigma band around the Poisson mean; collisions (two strikes on
        # one cell cancelling) are O(p) of the total and stay inside it.
        sigma = float(np.sqrt(expected))
        assert abs(flips - expected) < 6.0 * sigma

    def test_zero_probability_is_silent(self):
        source = SoftErrorSource(flip_probability=0.0)
        rng = np.random.default_rng(1)
        masks = source.read_masks(500, 128, 32, rng)
        assert not masks.any()


class TestReadDisturbDistribution:
    @pytest.mark.parametrize("seed", statharness.gof_seeds(3, start=2000))
    def test_one_pass_disturb_counts(self, seed, org):
        """A single pass disturbs Binomial(total, p) cells in total."""
        p = 5e-4
        source = ReadDisturbSource(disturb_probability=p)
        per_pass_totals = []
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for _ in range(400):
            masks = np.zeros(org.rows, dtype=np.uint64)
            source.accumulate(org.rows, org.rows, org.word_width, rng, masks)
            per_pass_totals.append(int(np.sum(np.bitwise_count(masks))))
        # One pass over `rows` values cannot collide (each value maps to its
        # own row), so the per-pass total is exactly the binomial count.
        n_trials = org.rows * org.word_width
        statharness.assert_binomial_counts(
            np.asarray(per_pass_totals),
            n_trials,
            p,
            label=f"read-disturb per-pass totals (seed {seed})",
        )


# --------------------------------------------------------------------- #
# Bit-identity contract (batched vs scalar, store replay)
# --------------------------------------------------------------------- #
class TestBatchedScalarEquivalence:
    def test_tier_effects_identical(self, org):
        tier = _tier(ser=2e-3, disturb=1e-3, scrub=3)

        def run(rng):
            effects = tier.sample_read_effects(org, 300, 7, rng)
            value_rows = np.arange(300, dtype=np.int64) % org.rows
            return effects.observed_masks(value_rows)

        statharness.assert_batched_matches_scalar(
            run,
            lambda rng: reference_paths.transient_observed_masks(tier, org, 300, 7, rng),
            seeds=statharness.gof_seeds(4, start=3000),
            label="transient tier (vectorized vs scalar)",
        )

    def test_store_paths_identical(self, org):
        scenario = build_scenario(
            "transient", ser=1e-3, disturb=5e-4, scrub_interval=2
        )
        values = np.linspace(-4.0, 4.0, 200)
        read_model = dict(transient=scenario.transient, transient_seed=77, access_trace=5)
        store = FaultyTensorStore(org, NoProtection(32), FaultMap.empty(org), **read_model)
        fixed_point = store.fixed_point
        reference = reference_paths.transient_load(
            org, NoProtection(32), FaultMap.empty(org), fixed_point,
            fixed_point.quantize_array(values), **read_model,
        )
        assert np.array_equal(store.store_and_load(values), reference)

    def test_repeated_loads_replay_identically(self, org):
        store = FaultyTensorStore(
            org,
            NoProtection(32),
            FaultMap.empty(org),
            transient=_tier(ser=5e-3),
            transient_seed=9,
        )
        values = np.linspace(-1.0, 1.0, 150)
        first = store.store_and_load(values)
        second = store.store_and_load(values)
        assert np.array_equal(first, second)

    def test_transient_seed_changes_corruption(self, org):
        values = np.linspace(-1.0, 1.0, 150)
        loads = []
        for seed in (1, 2):
            store = FaultyTensorStore(
                org,
                NoProtection(32),
                FaultMap.empty(org),
                transient=_tier(ser=5e-3),
                transient_seed=seed,
            )
            loads.append(store.store_and_load(values))
        assert not np.array_equal(loads[0], loads[1])

    def test_transient_composes_with_static_faults(self, org):
        """A static MSB fault and the transient tier both land on the word."""
        fault_map = FaultMap.from_cells(org, [(0, 31)])
        static_only = FaultyTensorStore(org, NoProtection(32), fault_map)
        both = FaultyTensorStore(
            org,
            NoProtection(32),
            fault_map,
            transient=_tier(ser=2e-2),
            transient_seed=5,
        )
        values = np.zeros(org.rows)
        static_loaded = static_only.store_and_load(values)
        both_loaded = both.store_and_load(values)
        # The static MSB flip survives in both runs...
        assert abs(static_loaded[0]) > 1e4 and abs(both_loaded[0]) > 1e4
        # ...and the tier corrupts additional values beyond the static row.
        assert not np.array_equal(static_loaded, both_loaded)


class TestStoreGuards:
    def test_access_trace_requires_tier(self, org):
        with pytest.raises(ValueError, match="requires a transient tier"):
            FaultyTensorStore(
                org, NoProtection(32), FaultMap.empty(org), access_trace=3
            )

    def test_tier_requires_seed(self, org):
        with pytest.raises(ValueError, match="requires a transient_seed"):
            FaultyTensorStore(
                org,
                NoProtection(32),
                FaultMap.empty(org),
                transient=_tier(ser=1e-3),
            )


# --------------------------------------------------------------------- #
# Scrubbing physics (hypothesis property tests)
# --------------------------------------------------------------------- #
class TestScrubbingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        passes=st.integers(min_value=2, max_value=10),
        period=st.integers(min_value=1, max_value=5),
        disturb=st.floats(min_value=1e-4, max_value=5e-3),
    )
    def test_scrubbing_monotonically_reduces_fault_mass(
        self, seed, passes, period, disturb
    ):
        """For the same seed, the scrubbed disturb state is a bitwise subset
        of the unscrubbed state, so its accumulated mass can only be lower."""
        org = MemoryOrganization(rows=64, word_width=32)
        base = _tier(ser=0.0, disturb=disturb, scrub=None)
        scrubbed = _tier(ser=0.0, disturb=disturb, scrub=period)

        def effects(tier):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            return tier.sample_read_effects(org, org.rows, passes, rng)

        plain = effects(base)
        cleaned = effects(scrubbed)
        # Subset: every surviving scrubbed flip exists in the unscrubbed run
        # (draws are state-independent, so scrubbing can only remove bits).
        assert not np.any(cleaned.disturb_masks & ~plain.disturb_masks)
        statharness.assert_mass_conserved(
            np.bitwise_count(plain.disturb_masks),
            np.bitwise_count(cleaned.disturb_masks),
            label="accumulated disturb mass",
            direction="non-increasing",
        )

    def test_scrub_every_pass_leaves_only_final_pass(self):
        """period=1 clears before every pass after the first, so only the
        last pass's disturbs survive to the read."""
        org = MemoryOrganization(rows=64, word_width=32)
        tier = _tier(ser=0.0, disturb=2e-3, scrub=1)
        rng = np.random.default_rng(np.random.SeedSequence(11))
        many = tier.sample_read_effects(org, org.rows, 9, rng)
        # Replaying the same stream without scrubbing for one pass gives the
        # distribution of a single pass; the scrubbed 9-pass run's mass must
        # be of that order, far below 9 accumulated passes.
        rng = np.random.default_rng(np.random.SeedSequence(11))
        unscrubbed = _tier(ser=0.0, disturb=2e-3).sample_read_effects(
            org, org.rows, 9, rng
        )
        assert _fault_mass(many) <= _fault_mass(unscrubbed)

    def test_scrubbing_consumes_no_randomness(self):
        """Adding scrubbing must not shift any other draw: the final read's
        SER masks are identical with and without it."""
        org = MemoryOrganization(rows=64, word_width=32)
        with_scrub = _tier(ser=1e-3, disturb=1e-3, scrub=2)
        without = _tier(ser=1e-3, disturb=1e-3, scrub=None)

        def read_masks(tier):
            rng = np.random.default_rng(np.random.SeedSequence(21))
            return tier.sample_read_effects(org, org.rows, 6, rng).read_masks

        assert np.array_equal(read_masks(with_scrub), read_masks(without))


# --------------------------------------------------------------------- #
# Tier and catalog validation
# --------------------------------------------------------------------- #
class TestTierValidation:
    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError, match="at least one fault source"):
            TransientTier(sources=())

    def test_non_source_rejected(self):
        with pytest.raises(TypeError, match="TransientFaultSource"):
            TransientTier(sources=("not-a-source",))

    def test_bad_scrubbing_rejected(self):
        with pytest.raises(TypeError, match="ScrubbingRepair"):
            TransientTier(
                sources=(SoftErrorSource(1e-3),), scrubbing="weekly"
            )

    def test_probability_range_eager(self):
        with pytest.raises(ValueError, match="flip_probability"):
            SoftErrorSource(flip_probability=1.5)
        with pytest.raises(ValueError, match="disturb_probability"):
            ReadDisturbSource(disturb_probability=-0.1)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="unknown SER distribution"):
            SoftErrorSource(flip_probability=1e-3, distribution="gamma")

    def test_scrub_period_validated(self):
        with pytest.raises(ValueError, match="scrub period"):
            ScrubbingRepair(period=0)

    def test_passes_validated(self, org):
        tier = _tier(ser=1e-3)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least one pass"):
            tier.sample_read_effects(org, 10, 0, rng)

    def test_base_source_is_no_op(self, org):
        source = TransientFaultSource()
        rng = np.random.default_rng(0)
        masks = np.zeros(org.rows, dtype=np.uint64)
        source.accumulate(10, org.rows, 32, rng, masks)
        assert not masks.any()
        assert source.read_masks(10, org.rows, 32, rng) is None
        with pytest.raises(NotImplementedError):
            source.to_dict()


class TestCatalog:
    def test_default_transient_scenario(self):
        scenario = build_scenario("transient")
        assert scenario.name == "transient"
        assert scenario.transient is not None
        assert not scenario.is_default
        kinds = [s.to_dict()["kind"] for s in scenario.transient.sources]
        assert kinds == ["soft-error"]

    def test_full_parameterisation(self):
        scenario = build_scenario(
            "transient",
            ser=1e-4,
            disturb=1e-5,
            scrub_interval=4,
            ser_distribution="poisson",
        )
        description = scenario.to_dict()
        assert description["transient"]["scrubbing"]["period"] == 4
        kinds = [s["kind"] for s in description["transient"]["sources"]]
        assert kinds == ["soft-error", "read-disturb"]
        assert (
            description["transient"]["sources"][0]["distribution"] == "poisson"
        )

    def test_both_rates_zero_rejected(self):
        with pytest.raises(ValueError, match="ser > 0 or disturb > 0"):
            build_scenario("transient", ser=0.0, disturb=0.0)

    def test_scrub_without_disturb_rejected(self):
        with pytest.raises(ValueError, match="scrub_interval requires"):
            build_scenario("transient", ser=1e-4, scrub_interval=2)

    def test_non_transient_scenarios_have_no_tier(self):
        for name in ("iid-pcell", "aged", "clustered", "repaired"):
            assert build_scenario(name).transient is None

    def test_default_scenario_to_dict_has_no_transient_key(self):
        """Hash stability: pre-transient descriptions stay byte-identical."""
        assert "transient" not in build_scenario("iid-pcell").to_dict()


# --------------------------------------------------------------------- #
# Engine integration: config validation, hash keying, sweep bit-identity
# --------------------------------------------------------------------- #
TRANSIENT_SPEC = ScenarioSpec(
    "transient",
    (("ser", 1e-3), ("disturb", 5e-4), ("scrub_interval", 2)),
)


def _transient_config(**overrides) -> ExperimentConfig:
    kwargs = dict(
        rows=128,
        word_width=32,
        p_cell=4e-3,
        coverage=0.9,
        samples_per_count=2,
        n_count_points=3,
        master_seed=2026,
        scheme_specs=("no-protection", "bit-shuffle-nfm2"),
        benchmark="knn",
        scenario=TRANSIENT_SPEC,
        access_trace=3,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestConfigValidation:
    def test_access_trace_type_checked(self):
        with pytest.raises(ValueError, match="access_trace must be an integer"):
            _transient_config(access_trace=True)
        with pytest.raises(ValueError, match="access_trace must be an integer"):
            _transient_config(access_trace=2.5)

    def test_access_trace_positive(self):
        with pytest.raises(ValueError, match="access_trace"):
            _transient_config(access_trace=0)

    def test_access_trace_requires_transient_scenario(self):
        with pytest.raises(ValueError, match="requires a scenario with a transient tier"):
            _transient_config(scenario=None, access_trace=2)

    def test_default_to_dict_has_no_access_trace_key(self):
        config = _transient_config(scenario=None, access_trace=1)
        assert "access_trace" not in config.to_dict()

    def test_non_default_to_dict_keys_access_trace(self):
        assert _transient_config().to_dict()["access_trace"] == 3


class TestHashKeying:
    def test_transient_scenario_keys_hash(self):
        plain = SweepEngine(_transient_config(scenario=None, access_trace=1))
        transient = SweepEngine(_transient_config(access_trace=1))
        assert plain.config_hash() != transient.config_hash()

    def test_access_trace_keys_hash(self):
        one = SweepEngine(_transient_config(access_trace=1))
        three = SweepEngine(_transient_config(access_trace=3))
        assert one.config_hash() != three.config_hash()

    def test_transient_params_key_hash(self):
        base = SweepEngine(_transient_config())
        hotter = SweepEngine(
            _transient_config(
                scenario=ScenarioSpec("transient", (("ser", 2e-3),))
            )
        )
        assert base.config_hash() != hotter.config_hash()


class TestEngineGuards:
    def test_run_requires_master_seed(self, smoke_benchmark):
        config = _transient_config(master_seed=None)
        with pytest.raises(ValueError, match="require seeded per-die sampling"):
            SweepEngine(config).run(smoke_benchmark)

    def test_run_rejects_predrawn_maps(self, smoke_benchmark, org):
        config = _transient_config()
        maps = {(0, 0): FaultMap.empty(org)}
        with pytest.raises(ValueError, match="require seeded per-die sampling"):
            SweepEngine(config).run(smoke_benchmark, fault_maps=maps)

    def test_run_mse_rejects_transient(self):
        config = _transient_config(benchmark=None)
        with pytest.raises(ValueError, match="analytical MSE evaluation"):
            SweepEngine(config).run_mse()


@pytest.fixture(scope="module")
def smoke_benchmark():
    return knn_benchmark(n_samples=120, seed=3)


@pytest.fixture(scope="module")
def transient_reference(smoke_benchmark):
    config = _transient_config()
    return SweepEngine(config).run(smoke_benchmark)


def _snapshot(results):
    series = {}
    for name in sorted(results):
        x, y = results[name].cdf_series()
        series[name + "/x"] = x
        series[name + "/y"] = y
    return series


class TestSweepBitIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_for_worker_count(
        self, smoke_benchmark, transient_reference, workers
    ):
        results = SweepEngine(_transient_config()).run(
            smoke_benchmark, workers=workers
        )
        statharness.assert_results_identical(
            {1: _snapshot(transient_reference), workers: _snapshot(results)},
            label="transient sweep workers",
            baseline_key=1,
        )

    def test_identical_for_shuffled_shard_order(
        self, smoke_benchmark, transient_reference, monkeypatch
    ):
        statharness.split_shards(monkeypatch, size=1, seed=9)
        results = SweepEngine(_transient_config()).run(smoke_benchmark)
        statharness.assert_results_identical(
            {
                "serial": _snapshot(transient_reference),
                "shuffled": _snapshot(results),
            },
            label="transient sweep shard order",
            baseline_key="serial",
        )

    def test_access_trace_changes_results(
        self, smoke_benchmark, transient_reference
    ):
        results = SweepEngine(_transient_config(access_trace=1)).run(
            smoke_benchmark
        )
        assert _snapshot(results).keys() == _snapshot(transient_reference).keys()
        diverged = any(
            not np.array_equal(_snapshot(results)[k], _snapshot(transient_reference)[k])
            for k in _snapshot(results)
        )
        assert diverged

    def test_store_warm_hit_is_bit_identical(
        self, smoke_benchmark, transient_reference, tmp_path
    ):
        from repro.store import ResultStore

        with ResultStore(str(tmp_path / "store")) as store:
            engine = SweepEngine(_transient_config())
            cold = engine.run(smoke_benchmark, store=store)
            assert engine.last_run_stats.store_hit is False
            warm_engine = SweepEngine(_transient_config())
            warm = warm_engine.run(smoke_benchmark, store=store)
            assert warm_engine.last_run_stats.store_hit is True
            assert warm_engine.last_run_stats.evaluated_dies == 0
        statharness.assert_results_identical(
            {
                "reference": _snapshot(transient_reference),
                "cold": _snapshot(cold),
                "warm": _snapshot(warm),
            },
            label="store-backed transient sweep",
            baseline_key="reference",
        )


class TestSpecRoundTrip:
    def _spec(self, **overrides):
        from repro.dse.spec import (
            BenchmarkGridSpec,
            ExperimentSpec,
            GeometrySpec,
            McBudgetSpec,
            OperatingGridSpec,
            SchemeGridSpec,
        )

        kwargs = dict(
            geometry=GeometrySpec(rows=128),
            operating_grid=OperatingGridSpec(vdd_values=(0.70,)),
            scheme_grid=SchemeGridSpec(specs=("no-protection",)),
            budget=McBudgetSpec(
                samples_per_count=1,
                n_count_points=2,
                coverage=0.9,
                master_seed=7,
            ),
            benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.2, seed=17),
        )
        kwargs.update(overrides)
        return ExperimentSpec(**kwargs)

    def test_access_trace_round_trips(self):
        from repro.dse.spec import ExperimentSpec

        spec = self._spec(scenario=TRANSIENT_SPEC, access_trace=4)
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt.access_trace == 4
        assert rebuilt == spec

    def test_default_spec_dict_has_no_access_trace_key(self):
        """Older readers (and golden spec files) must stay byte-compatible."""
        assert "access_trace" not in self._spec().to_dict()

    def test_access_trace_requires_transient_scenario(self):
        with pytest.raises(
            ValueError, match="requires a scenario with a transient tier"
        ):
            self._spec(access_trace=2)

    def test_experiment_config_carries_access_trace(self):
        spec = self._spec(scenario=TRANSIENT_SPEC, access_trace=4)
        point = spec.operating_points()[0]
        config = spec.experiment_config(point, "knn")
        assert config.access_trace == 4
        assert config.scenario == TRANSIENT_SPEC
