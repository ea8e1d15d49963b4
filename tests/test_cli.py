"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os

import pytest

from repro import cli as cli_module
from repro.cli import build_parser, main
from repro.dse import (
    BenchmarkGridSpec,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    SchemeGridSpec,
)


GOLDEN_CLI_DIR = os.path.join(os.path.dirname(__file__), "golden", "cli")


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("fig2", "fig4", "fig5", "fig6", "fig7", "table1"):
            args = parser.parse_args([command])
            assert callable(args.func)

    def test_fig7_benchmark_choices(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig7", "--benchmark", "svm"])

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["fig5", "--samples", "0"], "--samples: must be a positive integer"),
            (["fig7", "--samples", "0"], "--samples: must be a positive integer"),
            (["fig7", "--count-points", "0"], "--count-points: must be a positive integer"),
            (["fig7", "--scale", "0"], "--scale: must be a positive number"),
            (["table1", "--scale", "0"], "--scale: must be a positive number"),
            (["fig4", "--word-width", "0"], "--word-width: must be a positive integer"),
        ],
        ids=["fig5-samples", "fig7-samples", "fig7-count-points", "fig7-scale", "table1-scale",
             "fig4-word-width"],
    )
    def test_out_of_range_count_is_a_usage_error(self, argv, message, capsys):
        # Rejected while parsing: exit 2 and one error line, not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"repro-faulty-mem {argv[0]}: error: argument {message}"
        ]
        assert "Traceback" not in err


class TestCommands:
    def test_fig2_prints_table(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Pcell" in out

    def test_fig4_prints_all_series(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "nfm=5" in out

    def test_fig4_custom_width(self, capsys):
        assert main(["fig4", "--word-width", "16"]) == 0
        out = capsys.readouterr().out
        assert "nfm=4" in out
        assert "nfm=5" not in out

    def test_fig5_quick_run(self, capsys):
        assert main(["fig5", "--samples", "5", "--p-cell", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "bit-shuffle-nfm1" in out
        assert "p-ecc-H(22,16)" in out

    def test_fig6_prints_relative_overheads(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "secded-H(39,32)" in out
        assert "read power" in out

    def test_fig6_register_lut(self, capsys):
        assert main(["fig6", "--lut", "register"]) == 0
        assert "register" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Elasticnet" in out
        assert "K-Nearest Neighbors" in out

    def test_fig7_quick_run(self, capsys):
        assert (
            main(
                [
                    "fig7",
                    "--benchmark",
                    "knn",
                    "--samples",
                    "1",
                    "--count-points",
                    "2",
                    "--scale",
                    "0.2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "no-protection" in out


class TestStdoutGoldens:
    """Pinned stdout of the default Fig. 5 / Fig. 7 runs, byte for byte.

    The files under ``tests/golden/cli/`` are the captured stdout of these
    exact commands; a refactor that changes a single printed byte fails
    here.
    """

    FIG5 = ["fig5", "--samples", "3", "--p-cell", "1e-4"]
    FIG7 = [
        "fig7", "--benchmark", "knn", "--samples", "1",
        "--count-points", "2", "--scale", "0.2",
    ]

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (FIG5, "fig5_legacy.txt"),
            (FIG5 + ["--sampling", "seeded"], "fig5_seeded.txt"),
            (FIG7, "fig7_knn_legacy.txt"),
            (FIG7 + ["--sampling", "seeded"], "fig7_knn_seeded.txt"),
        ],
        ids=["fig5-legacy", "fig5-seeded", "fig7-knn-legacy", "fig7-knn-seeded"],
    )
    def test_stdout_matches_golden(self, capsys, argv, golden):
        assert main(argv) == 0
        with open(os.path.join(GOLDEN_CLI_DIR, golden), encoding="utf-8") as handle:
            assert capsys.readouterr().out == handle.read()


class TestParallelFlags:
    FIG7_SMOKE = [
        "fig7",
        "--benchmark",
        "knn",
        "--samples",
        "1",
        "--count-points",
        "2",
        "--scale",
        "0.2",
    ]

    def test_workers_rejects_non_positive(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig7", "--workers", "0"])
        with pytest.raises(SystemExit):
            parser.parse_args(["fig5", "--workers", "-2"])

    def test_fig7_workers_default_is_serial(self):
        parser = build_parser()
        args = parser.parse_args(["fig7"])
        assert args.workers == 1
        # The parser leaves sampling unset; the command resolves it to the
        # historical legacy stream unless --adaptive flips it to seeded.
        assert args.sampling is None
        assert cli_module._resolve_sampling(args) == "legacy"
        assert args.checkpoint is None
        assert args.adaptive is False

    def test_fig7_stdout_identical_for_worker_counts(self, capsys):
        assert main(self.FIG7_SMOKE + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(self.FIG7_SMOKE + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "Figure 7" in serial
        assert parallel == serial

    def test_fig7_seeded_sampling_identical_for_worker_counts(self, capsys):
        seeded = self.FIG7_SMOKE + ["--sampling", "seeded", "--seed", "7"]
        assert main(seeded + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(seeded + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_fig7_seeded_differs_from_legacy_sampling(self, capsys):
        assert main(self.FIG7_SMOKE) == 0
        legacy = capsys.readouterr().out
        assert main(self.FIG7_SMOKE + ["--sampling", "seeded"]) == 0
        seeded = capsys.readouterr().out
        # Same budget and schemes, different (documented) sampling scheme.
        assert seeded.splitlines()[0] == legacy.splitlines()[0]
        assert seeded != legacy

    def test_fig5_stdout_identical_for_worker_counts(self, capsys):
        smoke = ["fig5", "--samples", "3", "--p-cell", "1e-4"]
        assert main(smoke + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(smoke + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "Figure 5" in serial
        assert parallel == serial

    def test_fig7_checkpoint_round_trip(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "fig7.json")
        smoke = self.FIG7_SMOKE + ["--checkpoint", checkpoint]
        assert main(smoke) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "fig7.json").exists()
        assert main(smoke) == 0
        resumed = capsys.readouterr().out
        assert resumed == first

    # The fig5 sweep shares the fig7 option set (--workers / --sampling /
    # --checkpoint) since the DSE refactor.
    FIG5_SMOKE = ["fig5", "--samples", "3", "--p-cell", "1e-4"]

    def test_fig5_sweep_flag_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["fig5"])
        assert args.workers == 1
        assert args.sampling is None
        assert cli_module._resolve_sampling(args) == "legacy"
        assert args.checkpoint is None
        assert args.adaptive is False

    def test_fig5_seeded_sampling_identical_for_worker_counts(self, capsys):
        seeded = self.FIG5_SMOKE + ["--sampling", "seeded", "--seed", "9"]
        assert main(seeded + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(seeded + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_fig5_seeded_differs_from_legacy_sampling(self, capsys):
        assert main(self.FIG5_SMOKE) == 0
        legacy = capsys.readouterr().out
        assert main(self.FIG5_SMOKE + ["--sampling", "seeded"]) == 0
        seeded = capsys.readouterr().out
        assert seeded.splitlines()[0] == legacy.splitlines()[0]
        assert seeded != legacy

    def test_fig5_checkpoint_round_trip(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "fig5.json")
        smoke = self.FIG5_SMOKE + ["--checkpoint", checkpoint]
        assert main(smoke) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "fig5.json").exists()
        assert main(smoke) == 0
        resumed = capsys.readouterr().out
        assert resumed == first


class TestScenarioFlags:
    FIG7_AGED = [
        "fig7",
        "--benchmark",
        "knn",
        "--p-cell",
        "2e-4",
        "--samples",
        "1",
        "--count-points",
        "2",
        "--scale",
        "0.2",
        "--sampling",
        "seeded",
        "--scenario",
        "aged",
    ]

    def test_scenario_flag_parses_name_and_params(self):
        args = build_parser().parse_args(
            ["fig7", "--scenario", "aged,years=5,temperature_c=85"]
        )
        assert args.scenario.name == "aged"
        assert dict(args.scenario.params) == {
            "years": 5,
            "temperature_c": 85,
        }

    def test_scenario_flag_rejects_unknown_names_and_params(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--scenario", "meteor"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--scenario", "aged,bogus=1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--scenario", "aged,years"])

    def test_fig7_aged_stdout_identical_for_worker_counts(self, capsys):
        assert main(self.FIG7_AGED + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(self.FIG7_AGED + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "scenario aged" in serial
        assert parallel == serial

    def test_fig7_scenario_changes_the_output(self, capsys):
        base = self.FIG7_AGED[:-2]  # same invocation without --scenario
        assert main(base) == 0
        default = capsys.readouterr().out
        assert main(self.FIG7_AGED) == 0
        aged = capsys.readouterr().out
        assert aged != default

    def test_fig5_clustered_smoke(self, capsys):
        assert main(
            [
                "fig5",
                "--samples",
                "2",
                "--p-cell",
                "1e-4",
                "--sampling",
                "seeded",
                "--scenario",
                "clustered,cluster_size=2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario clustered" in out


class TestDseCommands:
    @pytest.fixture
    def spec_path(self, tmp_path):
        spec = ExperimentSpec(
            geometry=GeometrySpec(rows=128),
            operating_grid=OperatingGridSpec(vdd_values=(0.65, 0.70, 0.75)),
            scheme_grid=SchemeGridSpec(
                specs=("no-protection", "p-ecc", "bit-shuffle-nfm2")
            ),
            budget=McBudgetSpec(
                samples_per_count=2,
                n_count_points=3,
                coverage=0.9,
                master_seed=7,
            ),
            benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.2, seed=17),
        )
        path = str(tmp_path / "spec.json")
        spec.save(path)
        return path

    def test_dse_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse"])

    def test_dse_run_requires_spec_or_table(self):
        with pytest.raises(SystemExit):
            main(["dse", "run"])

    def test_dse_spec_with_unknown_pcell_model_exits_with_one_line(
        self, spec_path
    ):
        with open(spec_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["operating_grid"]["pcell_model"] = "bogus"
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        with pytest.raises(SystemExit) as excinfo:
            main(["dse", "run", "--spec", spec_path])
        assert str(excinfo.value) == (
            f"--spec {spec_path}: unknown pcell_model 'bogus'; expected one "
            f"of calibrated-28nm, default, gaussian"
        )

    def test_dse_missing_spec_file_exits_with_one_line(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as excinfo:
            main(["dse", "optimize", "--spec", missing])
        message = str(excinfo.value)
        assert message.startswith(f"--spec {missing}: ")
        assert "No such file" in message and "\n" not in message

    def test_dse_run_stdout_identical_for_worker_counts(
        self, capsys, spec_path
    ):
        assert main(["dse", "run", "--spec", spec_path, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["dse", "run", "--spec", spec_path, "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "Design-space sweep" in serial
        assert "bit-shuffle-nfm2" in serial
        assert parallel == serial

    @pytest.fixture
    def adaptive_spec_path(self, tmp_path):
        spec = ExperimentSpec(
            geometry=GeometrySpec(rows=128),
            operating_grid=OperatingGridSpec(vdd_values=(0.70,)),
            scheme_grid=SchemeGridSpec(specs=("no-protection",)),
            budget=McBudgetSpec(
                samples_per_count=12,
                n_count_points=3,
                coverage=0.9,
                master_seed=7,
                mode="adaptive",
                target_ci=0.05,
                max_samples=24,
            ),
            benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.2, seed=17),
        )
        path = str(tmp_path / "adaptive-spec.json")
        spec.save(path)
        return path

    def test_dse_adaptive_flag_keeps_spec_budget_values(
        self, monkeypatch, adaptive_spec_path
    ):
        # Regression: `--adaptive` on an already-adaptive spec must not
        # silently reset the spec's target_ci/max_samples to the defaults.
        captured = {}

        class _FakeExplorer:
            def __init__(self, spec, workers=1, checkpoint_dir=None, store=None, executor=None):
                captured["spec"] = spec

            def run(self):
                raise SystemExit(0)

        monkeypatch.setattr(cli_module, "DesignSpaceExplorer", _FakeExplorer)
        with pytest.raises(SystemExit):
            main(["dse", "run", "--spec", adaptive_spec_path, "--adaptive"])
        budget = captured["spec"].budget
        assert budget.mode == "adaptive"
        assert budget.target_ci == pytest.approx(0.05)
        assert budget.max_samples == 24

    def test_dse_target_ci_overrides_adaptive_spec_without_flag(
        self, monkeypatch, adaptive_spec_path
    ):
        # Regression: an adaptive spec section suffices -- --target-ci must
        # not demand --adaptive on top (the error message promises as much),
        # and the override must only touch the value the user passed.
        captured = {}

        class _FakeExplorer:
            def __init__(self, spec, workers=1, checkpoint_dir=None, store=None, executor=None):
                captured["spec"] = spec

            def run(self):
                raise SystemExit(0)

        monkeypatch.setattr(cli_module, "DesignSpaceExplorer", _FakeExplorer)
        with pytest.raises(SystemExit):
            main(
                [
                    "dse",
                    "run",
                    "--spec",
                    adaptive_spec_path,
                    "--target-ci",
                    "0.01",
                ]
            )
        budget = captured["spec"].budget
        assert budget.target_ci == pytest.approx(0.01)
        assert budget.max_samples == 24  # untouched spec value

    def test_dse_target_ci_still_rejected_for_fixed_spec(self, spec_path):
        with pytest.raises(SystemExit, match="--adaptive"):
            main(["dse", "run", "--spec", spec_path, "--target-ci", "0.01"])

    def test_dse_adaptive_run_end_to_end(self, capsys, adaptive_spec_path):
        assert main(["dse", "run", "--spec", adaptive_spec_path]) == 0
        out = capsys.readouterr().out
        assert "Design-space sweep" in out

    def test_dse_run_writes_result_table(self, capsys, spec_path, tmp_path):
        output = str(tmp_path / "table.json")
        assert main(
            ["dse", "run", "--spec", spec_path, "--output", output]
        ) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "table.json").read_text())
        assert len(data["rows"]) == 9

    def test_dse_pareto_emits_non_empty_frontier(
        self, capsys, spec_path, tmp_path
    ):
        output = str(tmp_path / "table.json")
        assert main(
            ["dse", "run", "--spec", spec_path, "--output", output]
        ) == 0
        capsys.readouterr()
        # From a saved table (no re-sweep) and from the spec directly.
        assert main(["dse", "pareto", "--table", output]) == 0
        from_table = capsys.readouterr().out
        assert "Pareto frontier" in from_table
        assert "0 of 9 points" not in from_table
        assert main(["dse", "pareto", "--spec", spec_path]) == 0
        from_spec = capsys.readouterr().out
        assert from_spec == from_table

    def test_dse_report_prints_iso_quality_summary(self, capsys, spec_path):
        assert main(["dse", "report", "--spec", spec_path]) == 0
        out = capsys.readouterr().out
        assert "Pareto-optimal operating points" in out
        assert "quality@yield >= 0.99" in out

    def test_dse_checkpoint_dir_reused_across_runs(
        self, capsys, spec_path, tmp_path
    ):
        cache = str(tmp_path / "grid-cache")
        args = ["dse", "run", "--spec", spec_path, "--checkpoint", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert len(list((tmp_path / "grid-cache").iterdir())) == 3
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_dse_scenario_override_changes_sweep_and_cache(
        self, capsys, spec_path, tmp_path
    ):
        cache = str(tmp_path / "grid-cache")
        base = ["dse", "run", "--spec", spec_path, "--checkpoint", cache]
        assert main(base) == 0
        default_out = capsys.readouterr().out
        default_files = set((tmp_path / "grid-cache").iterdir())
        assert "scenario iid-pcell" in default_out
        assert main(base + ["--scenario", "repaired,spare_rows=2"]) == 0
        repaired_out = capsys.readouterr().out
        assert "scenario repaired" in repaired_out
        assert repaired_out != default_out
        # The override keys its own per-point caches next to the default's.
        assert default_files < set((tmp_path / "grid-cache").iterdir())

    def test_dse_scenario_flag_rejected_with_table(self, capsys, spec_path, tmp_path):
        output = str(tmp_path / "table.json")
        assert main(["dse", "run", "--spec", spec_path, "--output", output]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="scenario"):
            main(["dse", "pareto", "--table", output, "--scenario", "aged"])


class TestStoreCli:
    FIG5_SMOKE = ["fig5", "--samples", "2", "--p-cell", "1e-4"]

    def test_fig5_store_warm_rerun_is_byte_identical(self, capsys, tmp_path):
        store_dir = str(tmp_path / "results")
        args = self.FIG5_SMOKE + ["--store", store_dir]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "store: recorded" in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        assert "store: served" in warm.err
        assert "(0 dies evaluated)" in warm.err
        assert warm.out == cold.out  # status goes to stderr only

    def test_fig5_without_store_prints_no_status(self, capsys):
        assert main(self.FIG5_SMOKE) == 0
        assert "store:" not in capsys.readouterr().err

    def test_store_query_counts_and_lists(self, capsys, tmp_path):
        store_dir = str(tmp_path / "results")
        assert main(self.FIG5_SMOKE + ["--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["store", "query", "--store", store_dir, "--count"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["store", "query", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "1 live record(s)" in out
        assert "mse" in out
        assert main(
            ["store", "query", "--store", store_dir, "--kind", "quality",
             "--count"]
        ) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_store_gc_reports_compaction(self, capsys, tmp_path):
        store_dir = str(tmp_path / "results")
        args = self.FIG5_SMOKE + ["--store", store_dir]
        assert main(args) == 0
        assert main(args) == 0  # warm: no new record, no new segment
        capsys.readouterr()
        assert main(["store", "gc", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "store gc: kept 1 record(s), dropped 0 superseded" in out

    def test_store_export_jsonl(self, capsys, tmp_path):
        store_dir = str(tmp_path / "results")
        output = str(tmp_path / "records.jsonl")
        assert main(self.FIG5_SMOKE + ["--store", store_dir]) == 0
        capsys.readouterr()
        assert main(
            ["store", "export", "--store", store_dir, "--output", output]
        ) == 0
        out = capsys.readouterr().out
        assert f"store export: wrote 1 record(s) to {output} (jsonl)" in out
        record = json.loads(open(output).readline())
        assert record["kind"] == "mse"

    def test_store_commands_refuse_missing_directory(self, tmp_path):
        missing = str(tmp_path / "nowhere")
        with pytest.raises(SystemExit, match="no result store"):
            main(["store", "query", "--store", missing])
        with pytest.raises(SystemExit, match="no result store"):
            main(["store", "gc", "--store", missing])
        assert not (tmp_path / "nowhere").exists()  # no store created by typo


class TestDseStoreFlag:
    @pytest.fixture
    def spec_path(self, tmp_path):
        spec = ExperimentSpec(
            geometry=GeometrySpec(rows=128),
            operating_grid=OperatingGridSpec(vdd_values=(0.70, 0.75)),
            scheme_grid=SchemeGridSpec(specs=("no-protection", "p-ecc")),
            budget=McBudgetSpec(
                samples_per_count=2,
                n_count_points=3,
                coverage=0.9,
                master_seed=7,
            ),
            benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.2, seed=17),
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        return str(path)

    def test_dse_run_store_warm_rerun_is_byte_identical(
        self, capsys, spec_path, tmp_path
    ):
        store_dir = str(tmp_path / "results")
        args = ["dse", "run", "--spec", spec_path, "--store", store_dir]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "store: recorded" in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        assert "store: served" in warm.err
        assert "store: recorded" not in warm.err
        assert warm.out == cold.out

    def test_dse_store_flag_rejected_with_table(
        self, capsys, spec_path, tmp_path
    ):
        output = str(tmp_path / "table.json")
        assert main(
            ["dse", "run", "--spec", spec_path, "--output", output]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--store cannot be applied"):
            main(
                ["dse", "pareto", "--table", output, "--store",
                 str(tmp_path / "s")]
            )


# --------------------------------------------------------------------------- #
# Error paths: every misuse must fail loudly with its exact message
# --------------------------------------------------------------------------- #
class TestScenarioParseErrors:
    """Malformed ``--scenario`` strings and their exact diagnostics."""

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            (
                "aged=5",
                "scenario name 'aged=5' must not contain '='; parameters "
                "follow the name after a comma (e.g. 'aged,years=5')",
            ),
            (
                "aged,years",
                "scenario parameter 'years' must have the form key=value",
            ),
            (
                "aged,=5",
                "scenario parameter '=5' is missing a key before '='",
            ),
            (
                "aged,years=1=2",
                "scenario parameter 'years=1=2' has more than one '='; "
                "values must not contain '='",
            ),
            (
                "aged,years=",
                "scenario parameter 'years=' is missing a value after '='",
            ),
            (
                "meteor",
                "unknown scenario 'meteor'; expected one of iid-pcell, "
                "aged, clustered, repaired, transient",
            ),
            (
                "transient,ser=0,disturb=0",
                "the transient scenario needs ser > 0 or disturb > 0",
            ),
            (
                "transient,ser=1e-4,scrub_interval=2",
                "scrub_interval requires disturb > 0",
            ),
        ],
    )
    def test_exact_message(self, capsys, text, message):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--scenario", text])
        assert message in capsys.readouterr().err


class TestStoreCorruptionErrors:
    """``--store`` pointed at a damaged store names the broken segment."""

    @pytest.fixture
    def store_root(self, tmp_path):
        from repro.store import ResultStore

        root = str(tmp_path / "damaged")
        with ResultStore(root) as store:
            store.put_record("ab" * 32, "mse", {"x": 1})
        return root

    def _segment(self, root):
        import glob
        import os

        (path,) = glob.glob(os.path.join(root, "segments", "*.jsonl"))
        return path

    def test_corrupt_record_named_exactly(self, store_root):
        import os

        path = self._segment(store_root)
        with open(path, "a") as handle:
            handle.write("{not json}\n")
        name = os.path.basename(path)
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "query", "--store", store_root])
        assert f"segment {name!r} holds a corrupt record at byte" in str(
            excinfo.value.code
        )

    def test_torn_record_named_exactly(self, store_root):
        import os

        path = self._segment(store_root)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-5])
        name = os.path.basename(path)
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "gc", "--store", store_root])
        message = str(excinfo.value.code)
        assert f"segment {name!r} ends with a torn record at byte" in message
        assert "truncate or delete the segment to recover" in message

    def test_fig7_store_surfaces_the_same_error(self, store_root):
        from repro.store import StoreError

        path = self._segment(store_root)
        with open(path, "a") as handle:
            handle.write("{not json}\n")
        with pytest.raises(StoreError, match="holds a corrupt record"):
            main(
                ["fig7", "--samples", "1", "--count-points", "2",
                 "--scale", "0.2", "--store", store_root]
            )


class TestAdaptiveFlagErrors:
    def test_adaptive_with_legacy_sampling(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7", "--adaptive", "--sampling", "legacy"])
        assert str(excinfo.value.code) == (
            "--adaptive requires --sampling seeded: the adaptive controller "
            "decides the die count as it runs, so the population cannot be "
            "pre-drawn from the legacy shared generator"
        )

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--target-ci", "0.01"], "--target-ci requires --adaptive"),
            (["--max-samples", "10"], "--max-samples requires --adaptive"),
        ],
    )
    def test_adaptive_satellites_require_adaptive(self, flags, message):
        for command in (["fig5"], ["fig7"]):
            with pytest.raises(SystemExit) as excinfo:
                main(command + flags)
            assert str(excinfo.value.code) == message


class TestTransientCliGuards:
    FIG7_TRANSIENT = [
        "fig7",
        "--benchmark",
        "knn",
        "--p-cell",
        "2e-4",
        "--samples",
        "1",
        "--count-points",
        "2",
        "--scale",
        "0.2",
        "--sampling",
        "seeded",
        "--scenario",
        "transient,ser=5e-3,disturb=2e-3,scrub_interval=2",
        "--access-trace",
        "3",
    ]

    def test_fig5_rejects_transient(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig5", "--scenario", "transient,ser=1e-4"])
        assert str(excinfo.value.code) == (
            "--scenario transient is not supported by fig5: the analytical "
            "MSE evaluation cannot model per-read transient faults; run it "
            "through fig7 (the quality sweep) instead"
        )

    def test_fig7_transient_requires_seeded_sampling(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["fig7", "--scenario", "transient,ser=1e-4",
                 "--sampling", "legacy"]
            )
        assert str(excinfo.value.code) == (
            "--scenario transient requires --sampling seeded: per-read "
            "corruption replays from each die's seed-sequence child, which "
            "the legacy shared-generator population does not carry"
        )

    def test_access_trace_requires_transient_scenario(self):
        expected = (
            "--access-trace requires a scenario with a transient tier "
            "(e.g. --scenario transient,ser=1e-5): static faults do not "
            "change between read passes"
        )
        for command in (
            ["fig5", "--access-trace", "2"],
            ["fig7", "--access-trace", "2", "--scenario", "aged"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(command)
            assert str(excinfo.value.code) == expected

    def test_access_trace_rejects_non_positive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--access-trace", "0"])
        assert "must be a positive integer" in capsys.readouterr().err

    def test_dse_access_trace_rejected_with_table(self, tmp_path, capsys):
        spec = ExperimentSpec(
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
        spec_path = str(tmp_path / "spec.json")
        spec.save(spec_path)
        output = str(tmp_path / "table.json")
        assert main(
            ["dse", "run", "--spec", spec_path, "--output", output]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["dse", "pareto", "--table", output, "--access-trace", "4"])
        assert str(excinfo.value.code) == (
            "--access-trace cannot be applied to a previously written "
            "--table; re-run 'dse run --spec ... --access-trace ...'"
        )
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["dse", "run", "--spec", spec_path, "--access-trace", "4"]
            )
        assert str(excinfo.value.code).startswith("--access-trace: ")

    def test_fig7_transient_stdout_identical_for_worker_counts(self, capsys):
        assert main(self.FIG7_TRANSIENT + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(self.FIG7_TRANSIENT + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "scenario transient" in serial
        assert parallel == serial

    def test_fig7_access_trace_changes_the_output(self, capsys):
        assert main(self.FIG7_TRANSIENT) == 0
        three_passes = capsys.readouterr().out
        assert main(self.FIG7_TRANSIENT[:-2] + ["--access-trace", "1"]) == 0
        one_pass = capsys.readouterr().out
        assert one_pass != three_passes
