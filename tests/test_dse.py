"""Tests for the cross-layer design-space exploration subsystem.

Covers the name lookup of every spec axis, the layered serialisable spec,
the thin-view contract of the figure functions (golden equivalence with the
pre-DSE implementations, bit-for-bit), and the explorer's determinism,
checkpoint reuse, and Pareto extraction.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.analysis.figures import figure5_mse_cdf, figure7_quality
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.dse import (
    BenchmarkGridSpec,
    DesignSpaceExplorer,
    DseResult,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    SchemeGridSpec,
    pareto_frontier,
)
from repro.faultmodel.pcell import PcellModel
from repro.memory.organization import MemoryOrganization
from repro.scenarios import ScenarioSpec
from repro.sim import engine as engine_module
from repro.sim.config import ExperimentConfig, build_scheme
from repro.sim.engine import SweepEngine
from repro.sim.experiment import (
    benchmark_by_name,
    knn_benchmark,
    standard_benchmarks,
)
from repro.sim.runner import legacy_fault_maps

GOLDEN_FIG5_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "fig5_mse_cdf.json"
)

# The configuration the pre-refactor golden snapshot was captured with.
FIG5_GOLDEN_CONFIG = dict(
    p_cell=2e-4,
    samples_per_count=4,
    coverage=0.995,
    schemes=(
        NoProtection(32),
        PriorityEccScheme(32),
        BitShuffleScheme(32, 1),
        BitShuffleScheme(32, 3),
    ),
)


def _fig5_golden(workers=1, **overrides):
    return figure5_mse_cdf(
        organization=MemoryOrganization(rows=256, word_width=32),
        rng=np.random.default_rng(77),
        workers=workers,
        **{**FIG5_GOLDEN_CONFIG, **overrides},
    )


# --------------------------------------------------------------------------- #
# Axis name lookups
# --------------------------------------------------------------------------- #
def _pcell_model(name, **params):
    grid = OperatingGridSpec(
        vdd_values=(0.7,), pcell_model=name, pcell_params=tuple(params.items())
    )
    return grid.model()


class TestRegistry:
    """Every named spec axis resolves through the lookup that owns it."""

    def test_builds_every_kind(self):
        assert isinstance(build_scheme("bit-shuffle-nfm2", 32), BitShuffleScheme)
        assert benchmark_by_name("knn", scale=0.2).name == "knn"
        assert isinstance(_pcell_model("calibrated-28nm"), PcellModel)

    def test_scheme_specs_cover_engine_grammar(self):
        assert isinstance(build_scheme("none", 32), NoProtection)
        assert isinstance(build_scheme("p-ecc-H(22,16)", 32), PriorityEccScheme)
        with pytest.raises(ValueError):
            build_scheme("hamming-weight", 32)

    def test_benchmark_matches_standard_set(self):
        by_name = benchmark_by_name(" PCA ", scale=0.25, seed=5)
        standard = standard_benchmarks(scale=0.25, seed=5)["pca"]
        assert by_name.name == standard.name
        np.testing.assert_array_equal(
            by_name.train_features, standard.train_features
        )

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="benchmark"):
            benchmark_by_name("svm")

    def test_parameterised_pcell_model(self):
        model = _pcell_model("Gaussian", v_crit_mean=0.4, v_crit_sigma=0.1)
        assert model.v_crit_mean == 0.4
        default = _pcell_model("DEFAULT")
        assert default == PcellModel.calibrated_28nm()

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("bogus", {}, "unknown pcell_model 'bogus'"),
            ("gaussian", {}, "v_crit_mean"),
            ("gaussian", {"v_crit_mean": 0.4}, "v_crit_sigma"),
            ("calibrated-28nm", {"v_crit_mean": 0.4}, "takes pcell_params"),
        ],
    )
    def test_bad_pcell_model_fails_at_load(self, name, params, message):
        data = _smoke_spec().to_dict()
        data["operating_grid"]["pcell_model"] = name
        data["operating_grid"]["pcell_params"] = params
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict(data)


# --------------------------------------------------------------------------- #
# ExperimentSpec
# --------------------------------------------------------------------------- #
def _smoke_spec(**overrides):
    fields = dict(
        geometry=GeometrySpec(rows=128),
        operating_grid=OperatingGridSpec(vdd_values=(0.65, 0.70, 0.75)),
        scheme_grid=SchemeGridSpec(
            specs=("no-protection", "p-ecc", "bit-shuffle-nfm2")
        ),
        budget=McBudgetSpec(
            samples_per_count=2, n_count_points=3, coverage=0.9, master_seed=7
        ),
        benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.2, seed=17),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestExperimentSpec:
    def test_json_round_trip(self):
        spec = _smoke_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = _smoke_spec()
        path = str(tmp_path / "spec.json")
        spec.save(path)
        assert ExperimentSpec.from_file(path) == spec

    def test_pcell_params_round_trip(self):
        spec = _smoke_spec(
            operating_grid=OperatingGridSpec(
                vdd_values=(0.7,),
                pcell_model="gaussian",
                pcell_params=(("v_crit_mean", 0.4), ("v_crit_sigma", 0.1)),
            )
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.operating_grid.model().v_crit_mean == 0.4

    def test_unknown_keys_rejected(self):
        data = _smoke_spec().to_dict()
        data["typo_section"] = {}
        with pytest.raises(ValueError, match="typo_section"):
            ExperimentSpec.from_dict(data)
        data = _smoke_spec().to_dict()
        data["geometry"]["row_count"] = 4
        with pytest.raises(ValueError, match="row_count"):
            ExperimentSpec.from_dict(data)

    def test_missing_required_sections_rejected(self):
        with pytest.raises(ValueError, match="geometry"):
            ExperimentSpec.from_dict({})

    @pytest.mark.parametrize(
        "section, kwargs",
        [
            ("geometry", dict(rows=0)),
            ("geometry", dict(rows=8, frac_bits=40)),
            ("operating_grid", dict()),
            ("operating_grid", dict(vdd_values=(0.0,))),
            ("operating_grid", dict(p_cell_values=(1.5,))),
            ("scheme_grid", dict(specs=())),
            ("scheme_grid", dict(specs=("none",), lut_realisation="dram")),
            ("budget", dict(samples_per_count=0)),
            ("budget", dict(coverage=1.5)),
            ("benchmarks", dict(names=())),
            ("benchmarks", dict(names=("knn",), scale=0.0)),
        ],
    )
    def test_layer_validation(self, section, kwargs):
        cls = {
            "geometry": GeometrySpec,
            "operating_grid": OperatingGridSpec,
            "scheme_grid": SchemeGridSpec,
            "budget": McBudgetSpec,
            "benchmarks": BenchmarkGridSpec,
        }[section]
        with pytest.raises(ValueError):
            cls(**kwargs)

    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("operating_grid", {"vdd_values": [0.65, 0.6, 0.60]},
             "vdd_values repeats 0.6"),
            ("operating_grid", {"p_cell_values": [1e-4, 1e-4]},
             "p_cell_values repeats 0.0001"),
            ("benchmarks", {"names": ["knn", "pca", "knn"]},
             "benchmark names repeats 'knn'"),
            ("benchmarks", {"names": ["elasticnet", "ElasticNet"]},
             "benchmark names repeats 'ElasticNet'"),
        ],
    )
    def test_repeated_grid_value_rejected(self, section, values, message):
        # Two cells with one (benchmark, vdd, p_cell) key would share one
        # run_stats and one distributions entry, so a spec file that names
        # a value twice must not load.
        data = _smoke_spec().to_dict()
        data[section].update(values)
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict(data)

    def test_rejects_bad_yield_target(self):
        with pytest.raises(ValueError):
            _smoke_spec(quality_yield_target=1.0)

    def test_grid_expansion(self):
        spec = _smoke_spec()
        points = spec.operating_points()
        assert [p.vdd for p in points] == [0.65, 0.70, 0.75]
        assert spec.grid_size() == 9
        config = spec.experiment_config(points[0], "knn")
        assert config.rows == 128
        assert config.p_cell == points[0].p_cell
        assert config.master_seed == 7
        assert config.scheme_specs == spec.scheme_grid.specs
        assert config.benchmark == "knn"

    def test_p_cell_grid_entries_keep_exact_probability(self):
        spec = _smoke_spec(
            operating_grid=OperatingGridSpec(p_cell_values=(1e-3, 5e-6))
        )
        points = spec.operating_points()
        assert [p.p_cell for p in points] == [1e-3, 5e-6]
        model = spec.operating_grid.model()
        # The attached voltage inverts the model back to the probability.
        for point in points:
            assert model.p_cell(point.vdd) == pytest.approx(
                point.p_cell, rel=1e-9
            )
            assert point.expected_failures == pytest.approx(
                point.p_cell * spec.organization.total_cells
            )


# --------------------------------------------------------------------------- #
# Golden equivalence: the figures as thin DSE views
# --------------------------------------------------------------------------- #
def _mse_digest(dist):
    digest = hashlib.sha256()
    for array in dist.ecdf.curve():
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    digest.update(
        repr(
            (dist.samples, dist.max_failures, dist.zero_fault_probability)
        ).encode()
    )
    return digest.hexdigest()


# Captured from the former scheme-comparison front end over the same dies,
# whose curves equalled the paired per-scheme MSE analysis bit for bit.
_FIG5_VIEW_DIGESTS = {
    None: {
        "no-protection": "77118cc2bd1271b76eea5e7d59b64200b6bb5a5e65b21f8674e573dfd567d65c",
        "bit-shuffle-nfm2": "cb37311c6ce3deeb1589e259c3425b4f527d96627107c09ca0da7d66d44e96b9",
    },
    "aged": {
        "no-protection": "6cccf3345706d368c0d6e39db1520460c3aa52f415977f256dd28cc815cd14dd",
        "bit-shuffle-nfm2": "27ca718ecb975040c9e26f411dc16b26304503cd2fda8cc17675b00fd169fe9b",
    },
    "clustered": {
        "no-protection": "fd13270984af568ec73bc8cf1e2fa09ca5ec2a8bc69a17c1dcadb585d0bddb30",
        "bit-shuffle-nfm2": "5f839729c4f1a9c88cc04842a9f13ce40972b1028e5c13b395e93e6271e2d489",
    },
}


class TestFigureGoldenEquivalence:
    """The pinned pre-refactor outputs, reproduced bit-for-bit through the
    DSE grid-point evaluators."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_FIG5_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fig5_bit_identical_to_pre_refactor_snapshot(self, golden, workers):
        results = _fig5_golden(workers=workers)
        assert set(results) == set(golden)
        for name, dist in results.items():
            x, y = dist.ecdf.curve()
            assert x.tolist() == golden[name]["x"], name
            assert y.tolist() == golden[name]["y"], name
            assert dist.samples == golden[name]["samples"]
            assert dist.max_failures == golden[name]["max_failures"]
            assert (
                dist.zero_fault_probability
                == golden[name]["zero_fault_probability"]
            )

    @pytest.mark.parametrize("scenario", [None, "aged", "clustered"])
    def test_fig5_scheme_view_matches_pinned_digests(self, scenario):
        """figure5_mse_cdf(schemes=...) reproduces, per scenario, the curves
        of the paired per-scheme analysis it replaced (digests of the ECDF
        support, mass, sample count, Nmax and Pr(N = 0))."""
        results = figure5_mse_cdf(
            organization=MemoryOrganization(rows=128, word_width=32),
            p_cell=5e-4,
            samples_per_count=3,
            coverage=0.95,
            schemes=[NoProtection(32), BitShuffleScheme(32, 2)],
            rng=np.random.default_rng(3),
            scenario=None if scenario is None else ScenarioSpec(scenario),
        )
        assert {
            name: _mse_digest(dist) for name, dist in results.items()
        } == _FIG5_VIEW_DIGESTS[scenario]

    def test_fig7_legacy_view_matches_runner(self):
        """figure7_quality's legacy path equals a direct engine sweep over
        the dies of legacy_fault_maps (the serial runner's stream)."""
        org = MemoryOrganization(rows=128, word_width=32)
        bench = knn_benchmark(n_samples=120, seed=3)
        schemes = [NoProtection(32), BitShuffleScheme(32, 2)]

        via_figure = figure7_quality(
            bench,
            organization=org,
            p_cell=4e-3,
            samples_per_count=2,
            n_count_points=3,
            schemes=schemes,
            rng=np.random.default_rng(11),
        )
        config = ExperimentConfig(
            rows=org.rows,
            word_width=org.word_width,
            p_cell=4e-3,
            samples_per_count=2,
            n_count_points=3,
            scheme_specs=tuple(scheme.name for scheme in schemes),
            benchmark=bench.name,
        )
        via_engine = SweepEngine(config, schemes=schemes).run(
            bench, fault_maps=legacy_fault_maps(config, np.random.default_rng(11))
        )
        assert set(via_figure) == set(via_engine)
        for name in via_figure:
            for got, want in zip(
                via_figure[name].cdf_series(), via_engine[name].cdf_series()
            ):
                np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------------- #
# Seeded + checkpointed MSE sweeps (the fig5 flags gained in this PR)
# --------------------------------------------------------------------------- #
class TestSeededMseSweep:
    def test_seeded_bit_identical_for_worker_counts(self):
        serial = _fig5_golden(sampling="seeded", master_seed=5)
        parallel = _fig5_golden(workers=2, sampling="seeded", master_seed=5)
        for name in serial:
            for got, want in zip(
                serial[name].ecdf.curve(), parallel[name].ecdf.curve()
            ):
                np.testing.assert_array_equal(got, want)

    def test_seeded_differs_from_legacy(self):
        legacy = _fig5_golden()
        seeded = _fig5_golden(sampling="seeded", master_seed=2015)
        assert any(
            legacy[name].ecdf.curve()[0].tolist()
            != seeded[name].ecdf.curve()[0].tolist()
            for name in legacy
        )

    def test_unknown_sampling_mode_rejected(self):
        with pytest.raises(
            ValueError,
            match="unknown sampling mode 'quasi-random'; expected one of "
            "seeded, legacy",
        ):
            _fig5_golden(sampling="quasi-random")

    def test_checkpoint_round_trip_replays_without_evaluation(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "fig5.json")
        first = _fig5_golden(checkpoint=path)
        assert os.path.exists(path)

        def _must_not_run(entries, context):
            raise AssertionError("complete checkpoint must not re-evaluate")

        monkeypatch.setattr(engine_module, "_evaluate_shard", _must_not_run)
        replay = _fig5_golden(checkpoint=path)
        for name in first:
            for got, want in zip(
                first[name].ecdf.curve(), replay[name].ecdf.curve()
            ):
                np.testing.assert_array_equal(got, want)

    def test_checkpoint_distinguishes_mse_from_quality_mode(self, tmp_path):
        """An MSE checkpoint must not be replayable by a quality sweep of the
        same configuration (the evaluation mode keys the hash)."""
        from repro.sim.config import ExperimentConfig
        from repro.sim.engine import SweepEngine

        config = ExperimentConfig(
            rows=64,
            p_cell=5e-3,
            coverage=0.9,
            samples_per_count=1,
            n_count_points=2,
            master_seed=3,
            scheme_specs=("no-protection",),
        )
        path = str(tmp_path / "mode.json")
        SweepEngine(config).run_mse(checkpoint=path)
        bench = knn_benchmark(n_samples=60, seed=1)
        with pytest.raises(ValueError, match="different experiment"):
            SweepEngine(config).run(bench, checkpoint=path)


# --------------------------------------------------------------------------- #
# DesignSpaceExplorer
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def smoke_result():
    return DesignSpaceExplorer(_smoke_spec(), workers=1).run()


class TestExplorer:
    def test_row_grid_is_complete(self, smoke_result):
        spec = smoke_result.spec
        assert len(smoke_result.rows) == spec.grid_size()
        schemes = {row["scheme"] for row in smoke_result.rows}
        assert schemes == {
            "no-protection",
            "p-ecc-H(22,16)",
            "bit-shuffle-nfm2",
        }
        voltages = sorted({row["vdd"] for row in smoke_result.rows})
        assert voltages == [0.65, 0.70, 0.75]

    def test_bit_identical_for_worker_counts(self, smoke_result):
        parallel = DesignSpaceExplorer(_smoke_spec(), workers=2).run()
        assert parallel.rows == smoke_result.rows

    def test_energy_join_is_consistent(self, smoke_result):
        for row in smoke_result.rows:
            assert row["total_read_energy_fj"] == pytest.approx(
                row["word_read_energy_fj"] + row["scheme_read_energy_fj"]
            )
            if row["scheme"] == "no-protection":
                assert row["scheme_read_energy_fj"] == 0.0
                assert row["overhead_area_um2"] == 0.0
            else:
                assert row["overhead_area_um2"] > 0.0
        # Dynamic energy rises with voltage; savings fall.
        by_vdd = sorted(
            smoke_result.select(scheme="no-protection"),
            key=lambda r: r["vdd"],
        )
        energies = [r["word_read_energy_fj"] for r in by_vdd]
        assert energies == sorted(energies)
        savings = [r["energy_saving"] for r in by_vdd]
        assert savings == sorted(savings, reverse=True)

    def test_pareto_frontier_non_empty_and_non_dominated(self, smoke_result):
        frontier = smoke_result.pareto()
        assert frontier
        rows = smoke_result.select(benchmark="knn")
        for candidate in frontier:
            assert not any(
                other["total_read_energy_fj"] <= candidate["total_read_energy_fj"]
                and other["quality_at_yield"] >= candidate["quality_at_yield"]
                and (
                    other["total_read_energy_fj"]
                    < candidate["total_read_energy_fj"]
                    or other["quality_at_yield"] > candidate["quality_at_yield"]
                )
                for other in rows
            )

    def test_pareto_frontier_helper_orders_by_energy(self):
        rows = [
            {"total_read_energy_fj": 3.0, "quality_at_yield": 0.9},
            {"total_read_energy_fj": 1.0, "quality_at_yield": 0.5},
            {"total_read_energy_fj": 2.0, "quality_at_yield": 0.7},
            {"total_read_energy_fj": 2.5, "quality_at_yield": 0.6},  # dominated
        ]
        frontier = pareto_frontier(rows)
        assert [r["total_read_energy_fj"] for r in frontier] == [1.0, 2.0, 3.0]

    def test_energy_at_iso_quality_picks_cheapest(self, smoke_result):
        rows = smoke_result.energy_at_iso_quality(0.5)
        assert rows
        for row in rows:
            candidates = [
                r
                for r in smoke_result.select(
                    benchmark=row["benchmark"], scheme=row["scheme"]
                )
                if r["quality_at_yield"] >= 0.5
            ]
            assert row["total_read_energy_fj"] == min(
                r["total_read_energy_fj"] for r in candidates
            )

    def test_result_table_round_trip(self, smoke_result, tmp_path):
        path = str(tmp_path / "table.json")
        smoke_result.save(path)
        restored = DseResult.load(path)
        assert restored.spec == smoke_result.spec
        assert restored.rows == smoke_result.rows

    def test_result_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "rows": []}))
        with pytest.raises(ValueError, match="version"):
            DseResult.load(str(path))

    def test_checkpoint_dir_replays_without_evaluation(
        self, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "grid-cache")
        spec = _smoke_spec()
        first = DesignSpaceExplorer(spec, checkpoint_dir=directory).run()
        cached = os.listdir(directory)
        assert len(cached) == len(spec.operating_points())

        def _must_not_run(entries, context):
            raise AssertionError("cached grid points must not re-evaluate")

        monkeypatch.setattr(engine_module, "_evaluate_shard", _must_not_run)
        replay = DesignSpaceExplorer(spec, checkpoint_dir=directory).run()
        assert replay.rows == first.rows

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer(_smoke_spec(), workers=0)

    def test_unknown_scheme_fails_loudly(self):
        spec = _smoke_spec(
            scheme_grid=SchemeGridSpec(specs=("bit-shuffle-nfm9",))
        )
        with pytest.raises(ValueError):
            DesignSpaceExplorer(spec).run()

    def test_distributions_are_kept_in_memory(self, smoke_result):
        points = smoke_result.spec.operating_points()
        key = (points[0].vdd, points[0].p_cell)
        assert key[0] == 0.65
        dists = smoke_result.distributions["knn"][key]
        assert set(dists) == {
            "no-protection",
            "p-ecc-H(22,16)",
            "bit-shuffle-nfm2",
        }
        assert dists["no-protection"].quality_at_yield(0.5) >= 0.0
