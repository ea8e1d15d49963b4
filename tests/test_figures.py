"""Tests for the figure-level analysis entry points."""

from __future__ import annotations

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
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.memory.organization import MemoryOrganization
from repro.sim.experiment import knn_benchmark


class TestFigure2:
    def test_default_sweep(self):
        data = figure2_pcell_vs_vdd()
        assert set(data) == {"vdd", "p_cell", "classical_yield"}
        assert len(data["vdd"]) == len(data["p_cell"]) == len(data["classical_yield"])
        # Pcell decreases and classical yield increases with VDD.
        assert np.all(np.diff(data["p_cell"]) < 0)
        assert np.all(np.diff(data["classical_yield"]) >= 0)

    def test_yield_collapses_at_073v(self):
        data = figure2_pcell_vs_vdd(vdd_values=[0.73, 1.0])
        assert data["classical_yield"][0] < 1e-3
        assert data["classical_yield"][1] > 0.99


class TestFigure4:
    def test_series_present(self):
        series = figure4_error_magnitude()
        assert set(series) == {
            "no-correction",
            "nfm=1",
            "nfm=2",
            "nfm=3",
            "nfm=4",
            "nfm=5",
        }
        assert all(len(v) == 32 for v in series.values())

    def test_nfm5_flat_at_one(self):
        assert np.all(figure4_error_magnitude()["nfm=5"] == 1.0)

    def test_protection_never_worse_than_unprotected(self):
        series = figure4_error_magnitude()
        for name, values in series.items():
            if name == "no-correction":
                continue
            assert np.all(values <= series["no-correction"])


class TestFigure5:
    def test_small_run_shapes_and_ordering(self, rng):
        org = MemoryOrganization(rows=512, word_width=32)
        results = figure5_mse_cdf(
            organization=org,
            p_cell=1e-4,
            samples_per_count=20,
            coverage=0.999,
            schemes=[
                NoProtection(32),
                PriorityEccScheme(32),
                BitShuffleScheme(32, 1),
                BitShuffleScheme(32, 5),
            ],
            rng=rng,
        )
        assert set(results) == {
            "no-protection",
            "p-ecc-H(22,16)",
            "bit-shuffle-nfm1",
            "bit-shuffle-nfm5",
        }
        target = 1e6
        assert results["bit-shuffle-nfm1"].yield_at_mse(target) >= results[
            "no-protection"
        ].yield_at_mse(target)

    def test_legacy_sampling_refuses_a_master_seed(self):
        # Legacy sampling draws the population from ``rng``; a seed it would
        # ignore must fail loudly rather than return an unseeded population.
        with pytest.raises(ValueError, match="master_seed.*sampling="):
            figure5_mse_cdf(
                organization=MemoryOrganization(rows=64, word_width=32),
                master_seed=7,
            )


class TestFigure6:
    def test_report_structure(self):
        report = figure6_overhead()
        relative = report.relative_to_baseline()
        assert relative[report.baseline]["area"] == 1.0
        assert all(
            0.0 < v["read_power"] <= 1.0
            for name, v in relative.items()
            if name.startswith("bit-shuffle")
        )

    def test_register_lut_variant(self):
        column = figure6_overhead(lut_realisation="column")
        register = figure6_overhead(lut_realisation="register")
        assert (
            register.overheads["bit-shuffle-nfm1"].area_um2
            != column.overheads["bit-shuffle-nfm1"].area_um2
        )


class TestFigure7:
    def test_standard_scheme_set(self):
        names = [s.name for s in standard_figure7_schemes()]
        assert names == [
            "no-protection",
            "p-ecc-H(22,16)",
            "bit-shuffle-nfm1",
            "bit-shuffle-nfm2",
        ]

    def test_small_run(self, rng):
        org = MemoryOrganization(rows=256, word_width=32)
        benchmark = knn_benchmark(n_samples=120, seed=1)
        results = figure7_quality(
            benchmark,
            organization=org,
            p_cell=2e-3,
            samples_per_count=1,
            n_count_points=2,
            schemes=standard_figure7_schemes()[:2],
            rng=rng,
        )
        assert set(results) == {"no-protection", "p-ecc-H(22,16)"}
        for dist in results.values():
            assert dist.p_cell == 2e-3
            assert dist.clean_quality > 0
