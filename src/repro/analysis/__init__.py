"""Experiment orchestration: one function per paper figure/table.

These functions glue the library's building blocks into the exact experiments
of the paper's evaluation section and return plain data structures (dicts,
numpy arrays, result dataclasses) that the paper-claim tests, the examples and
the CLI all share.
"""

from repro.analysis.figures import (
    figure2_pcell_vs_vdd,
    figure4_error_magnitude,
    figure5_mse_cdf,
    figure6_overhead,
    figure7_quality,
    standard_figure7_schemes,
)
from repro.analysis.tables import table1_applications

__all__ = [
    "figure2_pcell_vs_vdd",
    "figure4_error_magnitude",
    "figure5_mse_cdf",
    "figure6_overhead",
    "figure7_quality",
    "standard_figure7_schemes",
    "table1_applications",
]
