"""Tests for the persistent result store (:mod:`repro.store`).

Covers the tentpole contract end to end: bit-identical round-trips through
the JSONL segments, exact-hash serving with *zero* new die evaluations,
concurrent-writer append safety, schema-version refusal, gc compaction,
export formats, and the incremental-recomputation pass (only dirty grid
points are recomputed after a spec change).
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.dse import (
    BenchmarkGridSpec,
    DesignSpaceExplorer,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    SchemeGridSpec,
)
from repro.quality.cdf import WeightedEcdf
from repro.sim import engine as engine_module
from repro.sim.config import AdaptiveBudget, ExperimentConfig
from repro.sim.engine import SweepEngine
from repro.sim.experiment import benchmark_by_name
from repro.store import (
    SCHEMA_VERSION,
    ResultStore,
    StoreError,
    StoreSchemaError,
    dirty_grid_points,
    grid_point_statuses,
)
from repro.store.segments import SegmentWriter, list_segments, scan_segment


def _quick_config(**overrides):
    fields = dict(
        rows=64,
        word_width=32,
        p_cell=1e-4,
        samples_per_count=3,
        master_seed=7,
        scheme_specs=("no-protection", "bit-shuffle-nfm2"),
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def _quick_benchmark():
    return benchmark_by_name("elasticnet", scale=0.25, seed=1)


def _assert_ecdf_identical(a: WeightedEcdf, b: WeightedEcdf) -> None:
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.weights, b.weights)


# --------------------------------------------------------------------------- #
# WeightedEcdf serialisation
# --------------------------------------------------------------------------- #
class TestWeightedEcdfRoundTrip:
    def test_bit_identical(self, rng):
        values = rng.normal(size=37)
        weights = rng.uniform(0.1, 2.0, size=37)
        ecdf = WeightedEcdf(values, weights)
        restored = WeightedEcdf.from_dict(
            json.loads(json.dumps(ecdf.to_dict()))
        )
        _assert_ecdf_identical(ecdf, restored)
        # The cumulative sums (what every query reads) match exactly too.
        np.testing.assert_array_equal(ecdf.curve()[1], restored.curve()[1])

    def test_from_dict_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError, match="at least one observation"):
            WeightedEcdf.from_dict({"values": [], "weights": []})
        with pytest.raises(ValueError, match="same length"):
            WeightedEcdf.from_dict({"values": [1.0, 2.0], "weights": [1.0]})


# --------------------------------------------------------------------------- #
# Store basics
# --------------------------------------------------------------------------- #
class TestStoreBasics:
    def test_create_and_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        with ResultStore(root) as store:
            assert len(store) == 0
        assert os.path.exists(os.path.join(root, "store.json"))
        with ResultStore(root, create=False) as store:
            assert len(store) == 0

    def test_open_missing_without_create_fails(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            ResultStore(str(tmp_path / "absent"), create=False)

    def test_foreign_directory_refused(self, tmp_path):
        root = str(tmp_path)
        with open(os.path.join(root, "store.json"), "w") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(StoreError, match="not a result store"):
            ResultStore(root)

    def test_put_get_query_round_trip(self, tmp_path):
        key = "ab" * 32
        with ResultStore(str(tmp_path / "s")) as store:
            store.put_record(
                key, "mse", {"schemes": []}, meta={"p_cell": 1e-4}
            )
            assert key in store
            record = store.get_record(key)
            assert record["key"] == key
            assert record["payload"] == {"schemes": []}
            assert store.query(kind="mse")[0]["meta"]["p_cell"] == 1e-4
            assert store.query(kind="quality") == []
            assert store.query(key_prefix="ab")[0]["key"] == key
            assert store.query(key_prefix="zz") == []
            assert store.get_record("cd" * 32) is None

    def test_get_with_wrong_kind_raises(self, tmp_path):
        key = "ab" * 32
        with ResultStore(str(tmp_path / "s")) as store:
            store.put_record(key, "mse", {"schemes": []})
            with pytest.raises(StoreError, match="expected 'quality'"):
                store.get_record(key, kind="quality")

    def test_newest_record_wins(self, tmp_path):
        key = "ab" * 32
        with ResultStore(str(tmp_path / "s")) as store:
            store.put_record(key, "mse", {"generation": 1})
            store.put_record(key, "mse", {"generation": 2})
            assert store.get_record(key)["payload"] == {"generation": 2}
            assert len(store) == 1
            assert store.total_records() == 2

    def test_index_cache_is_rebuildable(self, tmp_path):
        root = str(tmp_path / "s")
        key = "ab" * 32
        with ResultStore(root) as store:
            store.put_record(key, "mse", {"generation": 1})
        os.unlink(os.path.join(root, "index.json"))
        with ResultStore(root) as store:
            assert store.get_record(key)["payload"] == {"generation": 1}

    def test_torn_trailing_write_is_detected(self, tmp_path):
        root = str(tmp_path / "s")
        with ResultStore(root) as store:
            store.put_record("ab" * 32, "mse", {"generation": 1})
        segments_dir = os.path.join(root, "segments")
        (name,) = list_segments(segments_dir)
        with open(os.path.join(segments_dir, name), "a") as handle:
            handle.write('{"torn": ')  # no trailing newline: a torn append
        os.unlink(os.path.join(root, "index.json"))
        with pytest.raises(StoreError, match="torn"):
            ResultStore(root)


# --------------------------------------------------------------------------- #
# Engine round-trip: bit-identical, zero re-evaluation
# --------------------------------------------------------------------------- #
class TestEngineStoreRoundTrip:
    def test_quality_round_trip_bit_identical(self, tmp_path):
        config = _quick_config()
        benchmark = _quick_benchmark()
        with ResultStore(str(tmp_path / "s")) as store:
            cold = SweepEngine(config)
            first = cold.run(benchmark, store=store)
            assert cold.last_run_stats.store_hit is False
            assert cold.last_run_stats.evaluated_dies > 0
        # A fresh handle (fresh process in real life) serves the hit.
        with ResultStore(str(tmp_path / "s")) as store:
            warm = SweepEngine(config)
            second = warm.run(benchmark, store=store)
            assert warm.last_run_stats.store_hit is True
            assert warm.last_run_stats.evaluated_dies == 0
        assert set(first) == set(second)
        for name in first:
            _assert_ecdf_identical(first[name].ecdf, second[name].ecdf)
            assert first[name].clean_quality == second[name].clean_quality
            assert first[name].samples == second[name].samples

    def test_warm_run_never_simulates_or_trains(self, tmp_path, monkeypatch):
        config = _quick_config()
        benchmark = _quick_benchmark()
        with ResultStore(str(tmp_path / "s")) as store:
            SweepEngine(config).run(benchmark, store=store)

            def _must_not_run(*args, **kwargs):  # pragma: no cover
                raise AssertionError("warm store run evaluated a die")

            monkeypatch.setattr(
                engine_module, "_evaluate_shard", _must_not_run
            )
            monkeypatch.setattr(
                type(benchmark), "clean_quality", _must_not_run
            )
            results = SweepEngine(config).run(benchmark, store=store)
        assert set(results) == {"no-protection", "bit-shuffle-nfm2"}

    def test_mse_round_trip_bit_identical(self, tmp_path):
        config = _quick_config()
        with ResultStore(str(tmp_path / "s")) as store:
            first = SweepEngine(config).run_mse(store=store)
            second = SweepEngine(config).run_mse(store=store)
        assert set(first) == set(second)
        for name in first:
            _assert_ecdf_identical(first[name].ecdf, second[name].ecdf)
            assert (
                first[name].zero_fault_probability
                == second[name].zero_fault_probability
            )
            assert first[name].max_failures == second[name].max_failures

    def test_mse_and_quality_keys_do_not_alias(self, tmp_path):
        config = _quick_config()
        with ResultStore(str(tmp_path / "s")) as store:
            SweepEngine(config).run_mse(store=store)
            SweepEngine(config).run(_quick_benchmark(), store=store)
            assert len(store) == 2
            kinds = {r["kind"] for r in store.query()}
            assert kinds == {"mse", "quality"}

    def test_adaptive_report_round_trips(self, tmp_path):
        config = _quick_config(
            adaptive=AdaptiveBudget(
                target_ci=0.5, initial_samples_per_count=2, round_dies=8
            )
        )
        with ResultStore(str(tmp_path / "s")) as store:
            cold = SweepEngine(config)
            cold.run_mse(store=store)
            cold_report = cold.last_adaptive_report
            warm = SweepEngine(config)
            warm.run_mse(store=store)
            warm_report = warm.last_adaptive_report
        assert warm.last_run_stats.store_hit is True
        assert warm_report is not None
        assert warm_report.to_dict() == cold_report.to_dict()

    def test_config_changes_miss_the_cache(self, tmp_path):
        with ResultStore(str(tmp_path / "s")) as store:
            SweepEngine(_quick_config()).run_mse(store=store)
            perturbed = SweepEngine(_quick_config(p_cell=2e-4))
            perturbed.run_mse(store=store)
            assert perturbed.last_run_stats.store_hit is False
            assert len(store) == 2


# --------------------------------------------------------------------------- #
# Concurrent writers
# --------------------------------------------------------------------------- #
def _append_records(root: str, writer_id: int, n: int) -> int:
    with ResultStore(root) as store:
        for i in range(n):
            key = f"{writer_id:02d}{i:02d}" + "00" * 30
            store.put_record(
                key, "mse", {"writer": writer_id, "i": i}
            )
    return writer_id


def _append_after_barrier(root: str, writer_id: int, n: int, barrier) -> None:
    with ResultStore(root) as store:
        barrier.wait(timeout=60)
        for i in range(n):
            key = f"{writer_id:02d}{i:02d}" + "11" * 30
            store.put_record(key, "mse", {"writer": writer_id, "i": i})


class TestConcurrentWriters:
    def test_parallel_appends_all_survive(self, tmp_path):
        root = str(tmp_path / "s")
        ResultStore(root).close()
        writers, per_writer = 4, 5
        with multiprocessing.Pool(processes=writers) as pool:
            done = pool.starmap(
                _append_records,
                [(root, writer_id, per_writer) for writer_id in range(writers)],
            )
        assert sorted(done) == list(range(writers))
        with ResultStore(root, create=False) as store:
            assert len(store) == writers * per_writer
            for writer_id in range(writers):
                for i in range(per_writer):
                    key = f"{writer_id:02d}{i:02d}" + "00" * 30
                    record = store.get_record(key)
                    assert record["payload"] == {"writer": writer_id, "i": i}

    def test_simultaneous_appends_rebuild_without_loss_or_duplication(
        self, tmp_path
    ):
        # Two *synchronised* writers: a barrier releases both processes into
        # their append loops at the same instant, so the index snapshots they
        # save genuinely race (each handle's snapshot only stamps its own
        # segment).  The reopen must rebuild from the segment listing and
        # account for every record exactly once.
        root = str(tmp_path / "s")
        ResultStore(root).close()
        per_writer = 25
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        processes = [
            context.Process(
                target=_append_after_barrier,
                args=(root, writer_id, per_writer, barrier),
            )
            for writer_id in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0
        with ResultStore(root, create=False) as store:
            expected_keys = {
                f"{writer_id:02d}{i:02d}" + "11" * 30
                for writer_id in range(2)
                for i in range(per_writer)
            }
            # No lost records: every key readable with its own payload.
            assert set(store.keys()) == expected_keys
            assert len(store) == 2 * per_writer
            # No duplicated records: the segment scan holds each key once.
            segments_dir = os.path.join(root, "segments")
            all_keys = [
                record["key"]
                for name in sorted(list_segments(segments_dir))
                for _offset, _length, record in scan_segment(segments_dir, name)
            ]
            assert len(all_keys) == 2 * per_writer
            assert len(set(all_keys)) == 2 * per_writer
            assert store.total_records() == 2 * per_writer
            for key in expected_keys:
                record = store.get_record(key)
                assert record["payload"]["i"] == int(key[2:4])

    def test_writers_use_exclusive_segments(self, tmp_path):
        segments_dir = str(tmp_path)
        first = SegmentWriter(segments_dir)
        second = SegmentWriter(segments_dir)
        first.append(
            {"schema_version": SCHEMA_VERSION, "key": "a", "kind": "mse",
             "seq": 0, "meta": {}, "payload": {}}
        )
        second.append(
            {"schema_version": SCHEMA_VERSION, "key": "b", "kind": "mse",
             "seq": 1, "meta": {}, "payload": {}}
        )
        assert first.name != second.name
        first.close()
        second.close()

    def test_refresh_sees_other_writers(self, tmp_path):
        root = str(tmp_path / "s")
        reader = ResultStore(root)
        with ResultStore(root) as other:
            other.put_record("ab" * 32, "mse", {"x": 1})
        assert "ab" * 32 not in reader  # snapshot view
        reader.refresh()
        assert "ab" * 32 in reader
        reader.close()


# --------------------------------------------------------------------------- #
# Schema versioning
# --------------------------------------------------------------------------- #
class TestSchemaVersioning:
    def test_store_from_other_schema_refuses_to_open(self, tmp_path):
        root = str(tmp_path / "s")
        ResultStore(root).close()
        marker = os.path.join(root, "store.json")
        with open(marker) as handle:
            info = json.load(handle)
        info["schema_version"] = SCHEMA_VERSION + 1
        with open(marker, "w") as handle:
            json.dump(info, handle)
        with pytest.raises(StoreSchemaError, match="schema version"):
            ResultStore(root)

    def test_record_from_other_schema_refuses_to_decode(self, tmp_path):
        root = str(tmp_path / "s")
        with ResultStore(root) as store:
            store.put_record("ab" * 32, "mse", {"x": 1})
        segments_dir = os.path.join(root, "segments")
        (name,) = list_segments(segments_dir)
        path = os.path.join(segments_dir, name)
        with open(path) as handle:
            record = json.loads(handle.readline())
        record["schema_version"] = SCHEMA_VERSION + 1
        with open(path, "w") as handle:
            handle.write(json.dumps(record) + "\n")
        os.unlink(os.path.join(root, "index.json"))
        with pytest.raises(StoreSchemaError, match="schema version"):
            list(scan_segment(segments_dir, name))
        with pytest.raises(StoreSchemaError):
            ResultStore(root)


# --------------------------------------------------------------------------- #
# gc and export
# --------------------------------------------------------------------------- #
class TestGcAndExport:
    def test_gc_drops_superseded_records(self, tmp_path):
        with ResultStore(str(tmp_path / "s")) as store:
            store.put_record("ab" * 32, "mse", {"generation": 1})
            store.put_record("ab" * 32, "mse", {"generation": 2})
            store.put_record("cd" * 32, "mse", {"generation": 1})
            summary = store.gc()
            assert summary == {
                "kept": 2, "dropped": 1, "segments_removed": 1,
            }
            assert store.get_record("ab" * 32)["payload"] == {"generation": 2}
            assert store.total_records() == 2

    def test_gc_survives_reopen(self, tmp_path):
        root = str(tmp_path / "s")
        with ResultStore(root) as store:
            store.put_record("ab" * 32, "mse", {"generation": 1})
            store.gc()
        with ResultStore(root, create=False) as store:
            assert store.get_record("ab" * 32)["payload"] == {"generation": 1}

    def test_export_jsonl_is_lossless(self, tmp_path):
        out = str(tmp_path / "out.jsonl")
        with ResultStore(str(tmp_path / "s")) as store:
            store.put_record("ab" * 32, "mse", {"x": [1.5, 2.25]})
            assert store.export(out) == 1
            record = store.get_record("ab" * 32)
        with open(out) as handle:
            exported = json.loads(handle.readline())
        assert exported == record

    def test_export_csv_summary(self, tmp_path):
        out = str(tmp_path / "out.csv")
        with ResultStore(str(tmp_path / "s")) as store:
            store.put_record(
                "ab" * 32,
                "mse",
                {"x": 1},
                meta={"benchmark": "knn", "schemes": ["a", "b"],
                      "p_cell": 1e-4, "total_dies": 6, "evaluated_dies": 6},
            )
            assert store.export(out, format="csv") == 1
        with open(out) as handle:
            header, row = handle.read().splitlines()
        assert header.split(",")[:2] == ["key", "kind"]
        assert "a|b" in row

    def test_export_unknown_format_rejected(self, tmp_path):
        with ResultStore(str(tmp_path / "s")) as store:
            for format in ("xml", "parquet"):
                with pytest.raises(
                    StoreError,
                    match=f"unknown export format '{format}'; expected one "
                    "of jsonl, csv$",
                ):
                    store.export(str(tmp_path / "x"), format=format)


# --------------------------------------------------------------------------- #
# Invalidation: recompute exactly the dirty grid points
# --------------------------------------------------------------------------- #
def _store_spec(**overrides):
    fields = dict(
        geometry=GeometrySpec(rows=64),
        operating_grid=OperatingGridSpec(vdd_values=(0.70, 0.75)),
        scheme_grid=SchemeGridSpec(specs=("no-protection", "bit-shuffle-nfm2")),
        budget=McBudgetSpec(
            samples_per_count=2, n_count_points=2, coverage=0.9, master_seed=11
        ),
        benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.2, seed=17),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestInvalidation:
    def test_cold_store_marks_everything_dirty(self, tmp_path):
        spec = _store_spec()
        with ResultStore(str(tmp_path / "s")) as store:
            statuses = grid_point_statuses(store, spec)
            assert len(statuses) == len(spec.operating_points())
            assert all(status.dirty for status in statuses)

    def test_run_cleans_the_grid_and_rerun_hits(self, tmp_path):
        spec = _store_spec()
        with ResultStore(str(tmp_path / "s")) as store:
            explorer = DesignSpaceExplorer(spec, store=store)
            first = explorer.run()
            assert dirty_grid_points(store, spec) == []
            stats = explorer.run_stats
            assert all(not s.store_hit for s in stats.values())

            rerun = DesignSpaceExplorer(spec, store=store)
            second = rerun.run()
            stats = rerun.run_stats
            assert all(s.store_hit for s in stats.values())
            assert all(s.evaluated_dies == 0 for s in stats.values())
        assert second.rows == first.rows

    def test_spec_change_dirties_exactly_the_new_points(self, tmp_path):
        spec = _store_spec()
        grown = _store_spec(
            operating_grid=OperatingGridSpec(vdd_values=(0.65, 0.70, 0.75))
        )
        with ResultStore(str(tmp_path / "s")) as store:
            DesignSpaceExplorer(spec, store=store).run()
            dirty = dirty_grid_points(store, grown)
            assert [status.vdd for status in dirty] == [0.65]

            explorer = DesignSpaceExplorer(grown, store=store)
            explorer.run()
            stats = explorer.run_stats
            recomputed = sorted(
                vdd for (_b, vdd, _p), s in stats.items() if not s.store_hit
            )
            assert recomputed == [0.65]
            served = sorted(
                vdd for (_b, vdd, _p), s in stats.items() if s.store_hit
            )
            assert served == [0.70, 0.75]
            assert all(
                s.evaluated_dies == 0
                for s in stats.values()
                if s.store_hit
            )
            assert dirty_grid_points(store, grown) == []

    def test_budget_change_dirties_every_point(self, tmp_path):
        spec = _store_spec()
        deeper = _store_spec(
            budget=McBudgetSpec(
                samples_per_count=3,
                n_count_points=2,
                coverage=0.9,
                master_seed=11,
            )
        )
        with ResultStore(str(tmp_path / "s")) as store:
            DesignSpaceExplorer(spec, store=store).run()
            assert len(dirty_grid_points(store, deeper)) == len(
                deeper.operating_points()
            )

    def test_dirty_points_requires_a_store(self):
        explorer = DesignSpaceExplorer(_store_spec())
        with pytest.raises(ValueError, match="requires a store"):
            explorer.dirty_points()
