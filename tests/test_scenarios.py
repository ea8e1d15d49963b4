"""Tests for the composable fault-scenario pipeline (source -> transforms -> repair).

Covers the pipeline stages themselves, the catalog name grammar, the
spec round-trip, and the cross-layer integration contracts:

* the default ``iid-pcell`` scenario is *bit-identical* to the historical
  direct sampling (stream equality, config hashes, engine results);
* non-default scenarios flow through seeded per-die sampling, process
  fan-out, and checkpoint/resume, with the scenario keying the cache;
* the clustered transform's sampler agrees distributionally with the scalar
  reference in ``reference_paths`` and respects the per-word fault limit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import reference_paths
from repro.dse.spec import (
    BenchmarkGridSpec,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    SchemeGridSpec,
)
from repro.faultmodel.montecarlo import FaultMapSampler
from repro.memory.faults import FaultKind, FaultMap
from repro.memory.organization import MemoryOrganization
from repro.scenarios import (
    ClusterTransform,
    FaultScenario,
    IidPcellSource,
    RepairStage,
    SCENARIO_NAMES,
    ScenarioSpec,
    build_scenario,
    default_scenario,
    register_scenario,
)
from repro.scenarios import catalog
from repro.sim.config import ExperimentConfig
from repro.sim.engine import SweepEngine


@pytest.fixture
def org() -> MemoryOrganization:
    return MemoryOrganization(rows=256, word_width=32)


@pytest.fixture
def scenario_catalog(monkeypatch):
    """Restore the catalog's factory table after a test registers into it."""
    monkeypatch.setattr(catalog, "_FACTORIES", dict(catalog._FACTORIES))


# --------------------------------------------------------------------------- #
# Catalog
# --------------------------------------------------------------------------- #
class TestCatalog:
    def test_builds_every_catalog_scenario(self):
        for name in SCENARIO_NAMES:
            scenario = build_scenario(name)
            assert isinstance(scenario, FaultScenario)
            assert scenario.name == name

    def test_aliases_build_the_default(self):
        for alias in ("iid", "default", "IID-PCELL"):
            assert build_scenario(alias).is_default

    def test_unknown_name_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("cosmic-rays")

    def test_unknown_parameter_fails_loudly(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            build_scenario("clustered", burst=3)

    def test_fractional_integer_parameters_fail_loudly(self):
        # Silent truncation would run a different scenario than the one the
        # checkpoint hash records.
        with pytest.raises(ValueError, match="must be an integer"):
            build_scenario("clustered", cluster_size=2.9)
        with pytest.raises(ValueError, match="must be an integer"):
            build_scenario("repaired", spare_rows=1.5)
        with pytest.raises(ValueError, match="must be an integer"):
            build_scenario("repaired", spare_columns=True)
        # Integral floats (a JSON round-trip artefact) are accepted.
        scenario = build_scenario("clustered", cluster_size=4.0)
        assert scenario.transforms[0].cluster_size == 4

    def test_parameters_reach_the_pipeline(self):
        scenario = build_scenario("clustered", cluster_size=8, row_fraction=1.0)
        (transform,) = scenario.transforms
        assert transform.cluster_size == 8
        assert transform.row_fraction == 1.0
        repaired = build_scenario("repaired", spare_rows=7, spare_columns=3)
        assert repaired.repair.spare_rows == 7
        assert repaired.repair.spare_columns == 3

    def test_custom_registered_scenario_runs_end_to_end(self, scenario_catalog):
        # The extension point: a scenario added to the catalog must be
        # spec-addressable AND buildable by the sweep engine.
        register_scenario(
            "custom-repair-heavy",
            lambda spare_rows=8: FaultScenario(
                name="custom-repair-heavy",
                source=IidPcellSource(),
                repair=RepairStage(spare_rows=int(spare_rows)),
            ),
        )
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("Custom-Repair-Heavy", default_scenario)
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("iid", default_scenario)
        spec = _minimal_spec()
        data = spec.to_dict()
        data["scenario"] = {
            "name": "custom-repair-heavy",
            "params": {"spare_rows": 4},
        }
        loaded = ExperimentSpec.from_dict(data)
        assert loaded.build_scenario().repair.spare_rows == 4
        config = loaded.experiment_config(loaded.operating_points()[0], "knn")
        engine = SweepEngine(config)
        assert engine.scenario.name == "custom-repair-heavy"
        results = engine.run_mse(workers=1)
        assert set(results) == {"no-protection"}


# --------------------------------------------------------------------------- #
# Default-scenario bit-identity
# --------------------------------------------------------------------------- #
class TestDefaultScenarioIdentity:
    def test_sample_batch_matches_direct_draw(self, org):
        scenario = default_scenario()
        for max_per_word in (None, 1):
            rng_a = np.random.default_rng(99)
            rng_b = np.random.default_rng(99)
            via_scenario = scenario.sample_batch(
                org, 10, 6, rng_a, max_faults_per_word=max_per_word
            )
            direct = FaultMap.random_batch_with_count(
                org, 10, 6, rng_b, max_faults_per_word=max_per_word
            )
            assert [m.to_json() for m in via_scenario] == [
                m.to_json() for m in direct
            ]

    def test_sampler_with_default_scenario_matches_plain_sampler(self, org):
        # The legacy per-map stream: the default scenario draws each map
        # with the plain FaultMap rejection loop, one after another.
        sampler = FaultMapSampler(org, np.random.default_rng(5), default_scenario())
        plain_rng = np.random.default_rng(5)
        plain = [FaultMap.random_with_count(org, 7, plain_rng) for _ in range(4)]
        routed = sampler.sample_batch(7, 4, vectorized=False)
        assert [m.to_json() for m in plain] == [m.to_json() for m in routed]

    def test_config_normalises_default_scenario_to_none(self):
        explicit = ExperimentConfig(rows=64, scenario=ScenarioSpec("iid-pcell"))
        assert explicit.scenario is None
        assert "scenario" not in explicit.to_dict()
        assert explicit == ExperimentConfig(rows=64)

    def test_default_config_hash_unchanged_by_scenario_layer(self):
        # The default pipeline must not perturb existing checkpoint hashes.
        base = ExperimentConfig(rows=64, master_seed=3)
        spec_form = ExperimentConfig(
            rows=64, master_seed=3, scenario=ScenarioSpec("default")
        )
        assert (
            SweepEngine(base).config_hash() == SweepEngine(spec_form).config_hash()
        )

    def test_non_default_scenario_keys_the_hash(self):
        base = ExperimentConfig(rows=64, master_seed=3)
        hashes = {SweepEngine(base).config_hash()}
        for name, params in (
            ("aged", ()),
            ("aged", (("years", 3.0),)),
            ("clustered", ()),
            ("repaired", ()),
        ):
            config = ExperimentConfig(
                rows=64, master_seed=3, scenario=ScenarioSpec(name, params)
            )
            hashes.add(SweepEngine(config).config_hash())
        assert len(hashes) == 5


# --------------------------------------------------------------------------- #
# Clustered transform
# --------------------------------------------------------------------------- #
class TestClusterTransform:
    def _counts(self, maps):
        return [m.fault_count for m in maps]

    def test_preserves_fault_count_and_kind(self, org):
        transform = ClusterTransform(cluster_size=4)
        rng = np.random.default_rng(1)
        maps = FaultMap.random_batch_with_count(
            org, 13, 5, rng, kind=FaultKind.STUCK_AT_ONE
        )
        clustered = transform.apply_batch(maps, rng)
        assert self._counts(clustered) == [13] * 5
        for fault_map in clustered:
            assert {f.kind for f in fault_map} == {FaultKind.STUCK_AT_ONE}

    def test_row_bursts_occupy_few_rows(self, org):
        scenario = build_scenario("clustered", cluster_size=4, row_fraction=1.0)
        maps = scenario.sample_batch(org, 16, 8, np.random.default_rng(2))
        for fault_map in maps:
            # 16 faults in bursts of 4 touch at most 4 rows (i.i.d. would
            # touch ~16 with overwhelming probability).
            assert len(fault_map.faulty_rows()) <= 4

    def test_column_bursts_occupy_few_columns(self, org):
        scenario = build_scenario("clustered", cluster_size=4, row_fraction=0.0)
        maps = scenario.sample_batch(org, 16, 8, np.random.default_rng(3))
        for fault_map in maps:
            columns = {f.column for f in fault_map}
            assert len(columns) <= 4

    def test_bursts_are_contiguous_runs(self, org):
        scenario = build_scenario("clustered", cluster_size=5, row_fraction=1.0)
        (fault_map,) = scenario.sample_batch(org, 5, 1, np.random.default_rng(4))
        (row,) = fault_map.faulty_rows()
        columns = fault_map.faulty_columns_by_row()[row]
        assert columns == list(range(columns[0], columns[0] + 5))

    def test_respects_max_faults_per_word(self, org):
        scenario = build_scenario("clustered", cluster_size=4, row_fraction=0.7)
        maps = scenario.sample_batch(
            org, 12, 10, np.random.default_rng(5), max_faults_per_word=1
        )
        for fault_map in maps:
            assert fault_map.max_faults_per_row() <= 1

    def test_scalar_reference_matches_vectorized_distribution(self, org):
        transform = ClusterTransform(cluster_size=4, row_fraction=0.5)

        def mean_rows(sample_cells, seed):
            cells = sample_cells(transform, org, 16, 200, np.random.default_rng(seed))
            return float(
                np.mean([np.unique(rows).size for rows, _cols in cells])
            )

        # Same burst geometry => the mean number of distinct touched rows
        # agrees between the two implementations (loose statistical gate).
        assert mean_rows(ClusterTransform.sample_cells, 11) == pytest.approx(
            mean_rows(reference_paths.cluster_cells, 12), rel=0.1
        )

    def test_scalar_and_vectorized_are_seed_deterministic(self, org):
        transform = ClusterTransform(cluster_size=3)
        for sample_cells in (ClusterTransform.sample_cells, reference_paths.cluster_cells):
            a = sample_cells(transform, org, 9, 4, np.random.default_rng(8))
            b = sample_cells(transform, org, 9, 4, np.random.default_rng(8))
            for (ra, ca), (rb, cb) in zip(a, b):
                assert np.array_equal(ra, rb) and np.array_equal(ca, cb)

    def test_each_map_keeps_its_own_kind_within_a_batch(self, org):
        # Two uniform-kind maps sharing a fault count must not have the
        # first map's kind stamped onto the second.
        maps = [
            FaultMap.from_cells(org, [(0, 0), (1, 1)], kind=FaultKind.STUCK_AT_ZERO),
            FaultMap.from_cells(org, [(2, 2), (3, 3)], kind=FaultKind.STUCK_AT_ONE),
        ]
        out = ClusterTransform(cluster_size=2).apply_batch(
            maps, np.random.default_rng(0)
        )
        assert [{f.kind for f in m} for m in out] == [
            {FaultKind.STUCK_AT_ZERO},
            {FaultKind.STUCK_AT_ONE},
        ]

    def test_mixed_kind_input_is_rejected(self, org):
        from repro.memory.faults import FaultSite

        mixed = FaultMap(
            org,
            [
                FaultSite(0, 0, FaultKind.STUCK_AT_ZERO),
                FaultSite(1, 1, FaultKind.STUCK_AT_ONE),
            ],
        )
        with pytest.raises(ValueError, match="mixed-kind"):
            ClusterTransform(cluster_size=2).apply_batch(
                [mixed], np.random.default_rng(0)
            )

    def test_aged_variability_is_not_a_parameter(self):
        # The aged scenario acts only through the mean drift; exposing the
        # per-cell spread would fragment checkpoint caches for no effect.
        with pytest.raises(ValueError, match="invalid parameters"):
            build_scenario("aged", variability=0.5)
        aged = build_scenario("aged", years=5.0)
        assert "variability" not in aged.to_dict()["source"]["aging_model"]

    def test_zero_and_single_fault_maps(self, org):
        transform = ClusterTransform(cluster_size=4)
        rng = np.random.default_rng(6)
        maps = transform.apply_batch(
            [FaultMap.empty(org), FaultMap.from_cells(org, [(0, 0)])], rng
        )
        assert self._counts(maps) == [0, 1]

    def test_infeasible_burst_length_fails_loudly(self):
        tiny = MemoryOrganization(rows=2, word_width=4)
        transform = ClusterTransform(cluster_size=8, row_fraction=0.5)
        with pytest.raises(ValueError, match="cannot place"):
            transform.sample_cells(tiny, 8, 1, np.random.default_rng(0))

    def test_explicit_orientation_is_never_silently_inverted(self):
        # Wide-shallow memory: a 12-burst fits along a row but not a column.
        wide = MemoryOrganization(rows=8, word_width=18)
        columns_only = ClusterTransform(cluster_size=12, row_fraction=0.0)
        with pytest.raises(ValueError, match="column bursts"):
            columns_only.sample_cells(wide, 12, 1, np.random.default_rng(0))
        # Explicit all-row bursts under a per-word limit must fail, not flip.
        rows_only = ClusterTransform(cluster_size=4, row_fraction=1.0)
        with pytest.raises(ValueError, match="row bursts"):
            rows_only.sample_cells(
                MemoryOrganization(rows=64, word_width=32),
                8,
                1,
                np.random.default_rng(0),
                max_faults_per_word=1,
            )

    def test_mixed_fraction_restricts_to_feasible_orientation(self):
        wide = MemoryOrganization(rows=8, word_width=64)
        transform = ClusterTransform(cluster_size=12, row_fraction=0.5)
        cells = transform.sample_cells(wide, 12, 5, np.random.default_rng(1))
        for rows, _cols in cells:
            assert np.unique(rows).size == 1  # every burst ran along a row

    def test_pipeline_skips_source_placement_for_layout_replacing_transforms(
        self, org
    ):
        # ClusterTransform re-places every cell, so the scenario consumes
        # randomness only in the transform: dropping the source's draws must
        # not change the result for the same generator state.
        scenario = build_scenario("clustered", cluster_size=4)
        transform = scenario.transforms[0]
        assert transform.replaces_layout
        via_pipeline = scenario.sample_batch(
            org, 12, 3, np.random.default_rng(42)
        )
        direct = transform.apply_batch(
            [FaultMap.from_cells(org, [(0, c) for c in range(12)])] * 3,
            np.random.default_rng(42),
        )
        assert [m.to_json() for m in via_pipeline] == [
            m.to_json() for m in direct
        ]

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            ClusterTransform(cluster_size=0)
        with pytest.raises(ValueError):
            ClusterTransform(row_fraction=1.5)


# --------------------------------------------------------------------------- #
# Repaired scenario
# --------------------------------------------------------------------------- #
class TestRepairedScenario:
    def test_post_repair_counts_never_exceed_manufactured_counts(self, org):
        scenario = build_scenario("repaired", spare_rows=2, spare_columns=1)
        maps = scenario.sample_batch(org, 10, 20, np.random.default_rng(7))
        assert all(m.fault_count <= 10 for m in maps)
        # With 10 faults and only 3 spares at least some faults survive.
        assert any(m.fault_count > 0 for m in maps)

    def test_enough_spares_repair_everything(self, org):
        scenario = build_scenario("repaired", spare_rows=16, spare_columns=0)
        maps = scenario.sample_batch(
            org, 8, 10, np.random.default_rng(8), max_faults_per_word=1
        )
        assert all(m.fault_count == 0 for m in maps)

    def test_stage_composes_with_transforms(self, org):
        # A full pipeline: i.i.d. draw -> column bursts -> one spare column.
        scenario = FaultScenario(
            name="custom",
            source=IidPcellSource(),
            transforms=(ClusterTransform(cluster_size=4, row_fraction=0.0),),
            repair=RepairStage(spare_rows=0, spare_columns=1),
        )
        maps = scenario.sample_batch(org, 4, 10, np.random.default_rng(9))
        # A single column burst of 4 is removed entirely by the spare column.
        assert all(m.fault_count == 0 for m in maps)


# --------------------------------------------------------------------------- #
# Engine integration
# --------------------------------------------------------------------------- #
SCENARIO_MATRIX = (
    ScenarioSpec("aged", (("years", 5.0),)),
    ScenarioSpec("clustered", (("cluster_size", 3),)),
    ScenarioSpec("repaired", (("spare_rows", 2),)),
)


class TestEngineIntegration:
    def _config(self, scenario):
        return ExperimentConfig(
            rows=128,
            p_cell=2e-4,
            coverage=0.9,
            samples_per_count=2,
            n_count_points=3,
            master_seed=11,
            scheme_specs=("no-protection", "bit-shuffle-nfm2"),
            discard_multi_fault_words=False,
            scenario=scenario,
        )

    @pytest.mark.parametrize("scenario", SCENARIO_MATRIX, ids=lambda s: s.name)
    def test_bit_identical_across_worker_counts(self, scenario):
        engine = SweepEngine(self._config(scenario))
        serial = engine.run_mse(workers=1)
        parallel = engine.run_mse(workers=2)
        for name in serial:
            xs, ys = serial[name].ecdf.curve()
            xp, yp = parallel[name].ecdf.curve()
            assert np.array_equal(xs, xp)
            assert np.array_equal(ys, yp)

    def test_aged_scenario_widens_the_count_grid(self):
        base = self._config(None)
        aged = self._config(ScenarioSpec("aged", (("years", 10.0),)))
        assert aged.effective_p_cell > base.p_cell
        assert aged.max_failures > base.max_failures
        assert aged.zero_fault_probability < base.zero_fault_probability

    def test_repair_never_lowers_the_yield(self):
        # 4 kB memory, Pcell = 2e-4: spare rows can only remove faults, so
        # the repaired yield at MSE <= 1e4 is at least the iid yield.  The
        # tolerance covers ECDF weight sums that differ by a few ulps.
        def yield_at_1e4(scenario):
            config = ExperimentConfig(
                rows=1024,
                p_cell=2e-4,
                coverage=0.95,
                samples_per_count=4,
                n_count_points=8,
                master_seed=2015,
                scheme_specs=("no-protection", "p-ecc", "bit-shuffle-nfm2"),
                discard_multi_fault_words=False,
                scenario=scenario,
            )
            results = SweepEngine(config).run_mse(workers=1)
            return results["bit-shuffle-nfm2"].yield_at_mse(1e4)

        repaired = yield_at_1e4(ScenarioSpec("repaired", (("spare_rows", 4),)))
        assert repaired >= yield_at_1e4(ScenarioSpec("iid-pcell")) - 1e-9

    def test_scenarios_change_the_answer(self):
        # The point of the refactor: different scenarios produce genuinely
        # different distributions over the same operating point and seed.
        results = {}
        for scenario in (None,) + SCENARIO_MATRIX:
            engine = SweepEngine(self._config(scenario))
            dist = engine.run_mse(workers=1)["no-protection"]
            key = scenario.name if scenario is not None else "iid"
            results[key] = dist.ecdf.curve()
        baseline = results.pop("iid")
        for name, curve in results.items():
            assert not (
                np.array_equal(baseline[0], curve[0])
                and np.array_equal(baseline[1], curve[1])
            ), f"scenario {name} did not change the distribution"

    def test_checkpoint_resume_is_keyed_by_scenario(self, tmp_path):
        clustered = self._config(ScenarioSpec("clustered"))
        path = str(tmp_path / "ckpt.json")
        first = SweepEngine(clustered).run_mse(workers=1, checkpoint=path)
        # Replay from the cache is bit-identical.
        replay = SweepEngine(clustered).run_mse(workers=1, checkpoint=path)
        for name in first:
            assert np.array_equal(
                first[name].ecdf.curve()[1], replay[name].ecdf.curve()[1]
            )
        # A different scenario must refuse the cache, not silently reuse it.
        aged = self._config(ScenarioSpec("aged"))
        with pytest.raises(ValueError, match="different experiment"):
            SweepEngine(aged).run_mse(workers=1, checkpoint=path)

    def test_legacy_sampling_supports_scenarios(self):
        from repro.sim.runner import legacy_fault_maps

        config = self._config(ScenarioSpec("repaired", (("spare_rows", 2),)))
        legacy = SweepEngine(config).run_mse(
            fault_maps=legacy_fault_maps(config, np.random.default_rng(21))
        )
        assert set(legacy) == {"no-protection", "bit-shuffle-nfm2"}

    def test_fig5_front_end_accepts_scenarios(self, rng):
        from repro.analysis.figures import figure5_mse_cdf
        from repro.core.no_protection import NoProtection

        org = MemoryOrganization(rows=128, word_width=32)
        aged = ScenarioSpec("aged", (("years", 10.0),))
        dist = figure5_mse_cdf(
            organization=org,
            p_cell=1e-4,
            samples_per_count=5,
            coverage=0.99,
            schemes=[NoProtection(32)],
            rng=rng,
            scenario=aged,
        )["no-protection"]
        config = ExperimentConfig(
            rows=org.rows, p_cell=1e-4, coverage=0.99, scenario=aged
        )
        assert config.effective_p_cell > 1e-4
        # The failure-count grid follows the aged operating point.
        assert dist.max_failures == config.max_failures
        assert dist.zero_fault_probability == config.zero_fault_probability
        assert dist.samples == dist.max_failures * 5


# --------------------------------------------------------------------------- #
# Spec round-trip
# --------------------------------------------------------------------------- #
def _minimal_spec(**kwargs) -> ExperimentSpec:
    return ExperimentSpec(
        geometry=GeometrySpec(rows=128),
        operating_grid=OperatingGridSpec(vdd_values=(0.68,)),
        scheme_grid=SchemeGridSpec(specs=("no-protection",)),
        budget=McBudgetSpec(samples_per_count=2, n_count_points=2, coverage=0.9),
        benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.2),
        **kwargs,
    )


class TestScenarioSpecRoundTrip:
    def test_scenario_spec_json_round_trip(self):
        spec = ScenarioSpec("aged", (("years", 5.0), ("temperature_c", 85.0)))
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_param_order_is_canonical(self):
        a = ScenarioSpec("aged", (("years", 5.0), ("temperature_c", 85.0)))
        b = ScenarioSpec("aged", (("temperature_c", 85.0), ("years", 5.0)))
        assert a == b and hash(a) == hash(b)

    def test_rejects_malformed_sections(self):
        with pytest.raises(ValueError, match="requires a 'name'"):
            ScenarioSpec.from_dict({"params": {}})
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"name": "aged", "extra": 1})
        with pytest.raises(ValueError, match="must be a mapping"):
            ScenarioSpec.from_dict({"name": "aged", "params": [1, 2]})
        with pytest.raises(ValueError, match="must be a mapping"):
            ScenarioSpec.from_dict("aged")
        with pytest.raises(ValueError, match="scalar"):
            ScenarioSpec(name="aged", params=(("years", [1, 2]),))
        with pytest.raises(ValueError, match="duplicate scenario parameter"):
            ScenarioSpec(name="aged", params=(("years", 5), ("years", "x")))

    def test_experiment_spec_defaults_to_iid_pcell(self):
        spec = _minimal_spec()
        assert spec.scenario == ScenarioSpec("iid-pcell")
        assert spec.scenario.is_default
        # ... and the engine config it expands to is scenario-free, i.e.
        # bit-identical to the pre-scenario grid point.
        point = spec.operating_points()[0]
        assert spec.experiment_config(point, "knn").scenario is None

    def test_experiment_spec_round_trips_with_scenario(self):
        spec = _minimal_spec(
            scenario=ScenarioSpec("clustered", (("cluster_size", 8),))
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.to_json() == spec.to_json()

    def test_spec_without_scenario_section_round_trips_bit_identically(self):
        spec = _minimal_spec()
        data = spec.to_dict()
        assert data["scenario"] == {"name": "iid-pcell", "params": {}}
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.to_json() == spec.to_json()
        # A legacy spec file with no scenario key loads as the default too.
        del data["scenario"]
        legacy = ExperimentSpec.from_dict(data)
        assert legacy == spec

    def test_unknown_scenario_name_fails_at_load_time(self):
        data = _minimal_spec().to_dict()
        data["scenario"] = {"name": "meteor-strike"}
        with pytest.raises(ValueError, match="invalid scenario section"):
            ExperimentSpec.from_dict(data)

    def test_invalid_scenario_params_fail_at_load_time(self):
        data = _minimal_spec().to_dict()
        data["scenario"] = {"name": "aged", "params": {"bogus": 1}}
        with pytest.raises(ValueError, match="invalid scenario section"):
            ExperimentSpec.from_dict(data)

    def test_malformed_scenario_section_fails_at_load_time(self):
        data = _minimal_spec().to_dict()
        data["scenario"] = {"nome": "aged"}
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ExperimentSpec.from_dict(data)

    def test_spec_json_file_round_trip(self, tmp_path):
        spec = _minimal_spec(scenario=ScenarioSpec("repaired"))
        path = str(tmp_path / "spec.json")
        spec.save(path)
        assert ExperimentSpec.from_file(path) == spec
        raw = json.loads((tmp_path / "spec.json").read_text())
        assert raw["scenario"]["name"] == "repaired"


# --------------------------------------------------------------------------- #
# DSE end-to-end (the acceptance criterion)
# --------------------------------------------------------------------------- #
class TestDseEndToEnd:
    def _spec(self, scenario) -> ExperimentSpec:
        return ExperimentSpec(
            geometry=GeometrySpec(rows=128),
            operating_grid=OperatingGridSpec(vdd_values=(0.66, 0.72)),
            scheme_grid=SchemeGridSpec(
                specs=("no-protection", "bit-shuffle-nfm2")
            ),
            budget=McBudgetSpec(
                samples_per_count=2,
                n_count_points=3,
                coverage=0.9,
                master_seed=7,
                discard_multi_fault_words=False,
            ),
            benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.2, seed=17),
            quality_yield_target=0.9,
            scenario=scenario,
        )

    @pytest.mark.parametrize(
        "scenario",
        (
            ScenarioSpec("aged", (("years", 5.0),)),
            ScenarioSpec("clustered", (("cluster_size", 3),)),
            ScenarioSpec("repaired", (("spare_rows", 2),)),
        ),
        ids=lambda s: s.name,
    )
    def test_pareto_table_per_scenario_with_checkpoint_resume(
        self, scenario, tmp_path
    ):
        from repro.dse.explore import DesignSpaceExplorer

        cache = str(tmp_path / "cache")
        explorer = DesignSpaceExplorer(
            self._spec(scenario), workers=1, checkpoint_dir=cache
        )
        result = explorer.run()
        assert len(result.rows) == 4
        frontier = result.pareto()
        assert 1 <= len(frontier) <= 4
        # Resume from the per-point caches is bit-identical.
        replay = DesignSpaceExplorer(
            self._spec(scenario), workers=1, checkpoint_dir=cache
        ).run()
        assert replay.rows == result.rows

    def test_scenarios_use_disjoint_checkpoint_files(self, tmp_path):
        from repro.dse.explore import DesignSpaceExplorer

        cache = tmp_path / "cache"
        names = {}
        for scenario in (None, ScenarioSpec("aged"), ScenarioSpec("clustered")):
            spec = (
                self._spec(scenario)
                if scenario is not None
                else self._spec(ScenarioSpec())
            )
            DesignSpaceExplorer(spec, checkpoint_dir=str(cache)).run()
            key = scenario.name if scenario is not None else "iid"
            names[key] = {p.name for p in cache.iterdir()}
        # Each scenario added its own cache files on top of the previous ones.
        assert names["iid"] < names["aged"] < names["clustered"]


# --------------------------------------------------------------------------- #
# Statistical harness retrofit: the pre-transient sources under the same
# goodness-of-fit and mass-conservation checks as the transient tier
# --------------------------------------------------------------------------- #
import statharness  # noqa: E402


class TestSourceDistributions:
    @pytest.mark.parametrize("seed", statharness.gof_seeds(3, start=500))
    def test_iid_single_fault_column_is_uniform(self, seed):
        """The i.i.d. source places a lone fault uniformly over bit columns."""
        org = MemoryOrganization(rows=64, word_width=32)
        source = IidPcellSource()
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        maps = source.sample_batch(org, 1, 4000, rng)
        columns = np.array(
            [fault.column for m in maps for fault in m]
        )
        observed = np.bincount(columns, minlength=org.word_width)
        expected = np.full(org.word_width, columns.size / org.word_width)
        statharness.assert_chi_square_gof(
            observed,
            expected,
            label=f"iid fault columns (seed {seed})",
        )

    @pytest.mark.parametrize("seed", statharness.gof_seeds(3, start=600))
    def test_aged_source_keeps_uniform_placement(self, seed):
        """Aging shifts the operating point, not the placement law."""
        org = MemoryOrganization(rows=64, word_width=32)
        scenario = build_scenario("aged", years=8)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        maps = scenario.sample_batch(org, 1, 4000, rng)
        columns = np.array(
            [fault.column for m in maps for fault in m]
        )
        observed = np.bincount(columns, minlength=org.word_width)
        expected = np.full(org.word_width, columns.size / org.word_width)
        statharness.assert_chi_square_gof(
            observed,
            expected,
            label=f"aged fault columns (seed {seed})",
        )

    @pytest.mark.parametrize("name", ["aged", "clustered"])
    def test_transform_conserves_fault_mass(self, name, org):
        """Aging and clustering relabel faults; they must not create or
        destroy any (repair stages are the only mass sinks)."""
        scenario = build_scenario(name)
        rng = np.random.default_rng(7)
        fault_count = 6
        maps = scenario.sample_batch(org, fault_count, 50, rng)
        statharness.assert_mass_conserved(
            np.full(len(maps), fault_count),
            np.array([m.fault_count for m in maps]),
            label=f"{name} fault mass",
        )

    def test_repair_only_removes_mass(self, org):
        scenario = build_scenario("repaired", spare_rows=4)
        rng = np.random.default_rng(11)
        fault_count = 6
        maps = scenario.sample_batch(org, fault_count, 50, rng)
        statharness.assert_mass_conserved(
            np.full(len(maps), fault_count),
            np.array([m.fault_count for m in maps]),
            label="repaired fault mass",
            direction="non-increasing",
        )

    @pytest.mark.parametrize("seed", statharness.gof_seeds(3, start=800))
    def test_cluster_burst_starts_match_reference(self, seed):
        """Column bursts start on every row where they fit, row bursts on
        every column where they fit, as often as in the scalar reference."""
        org = MemoryOrganization(rows=16, word_width=8)
        size = 4
        transform = ClusterTransform(cluster_size=size, row_fraction=0.5)

        def start_histograms(layouts):
            start_rows, start_cols = [], []
            for rows, cols in layouts:
                for burst in range(rows.size // size):
                    burst_rows = rows[burst * size:(burst + 1) * size]
                    burst_cols = cols[burst * size:(burst + 1) * size]
                    if np.all(burst_rows == burst_rows[0]):
                        start_cols.append(burst_cols[0])
                    else:
                        assert np.all(burst_cols == burst_cols[0])
                        start_rows.append(burst_rows[0])
            return (
                np.bincount(start_rows, minlength=org.rows - size + 1),
                np.bincount(start_cols, minlength=org.word_width - size + 1),
            )

        rng = np.random.default_rng(np.random.SeedSequence(seed))
        observed = start_histograms(
            transform.sample_cells(org, 2 * size, 3000, rng)
        )
        reference = start_histograms(
            reference_paths.cluster_cells(transform, org, 2 * size, 12000, rng)
        )
        for axis, got, want in zip(("row", "column"), observed, reference):
            assert got.size == want.size, f"{axis} bursts start out of range"
            statharness.assert_chi_square_gof(
                got,
                want * (got.sum() / want.sum()),
                label=f"cluster burst start {axis}s (seed {seed})",
            )

    def test_iid_batch_identical_to_sequential_draws(self, org):
        """Differential check: one batched draw equals the per-map loop."""
        source = IidPcellSource()

        def batched(rng):
            maps = source.sample_batch(org, 3, 20, rng)
            return np.array(
                sorted(
                    (i, f.row, f.column)
                    for i, m in enumerate(maps)
                    for f in m
                )
            )

        def sequential(rng):
            cells = []
            for i in range(20):
                (m,) = source.sample_batch(org, 3, 1, rng)
                cells.extend((i, f.row, f.column) for f in m)
            return np.array(sorted(cells))

        statharness.assert_batched_matches_scalar(
            batched,
            sequential,
            seeds=statharness.gof_seeds(3, start=700),
            label="iid batch vs sequential draws",
        )
