"""Reporting helpers: ASCII tables, text histograms, full reports."""

from .ecc_cost import EccRequirement, block_failure_probability, required_bch_strength
from .heatmap import ascii_heatmap, board_heatmap
from .histogram import bar_chart, histogram_lines
from .report import ClaimCheck, ReproductionReport, build_report, check_claims
from .tables import Table, format_percent

__all__ = [
    "EccRequirement",
    "block_failure_probability",
    "required_bch_strength",
    "ascii_heatmap",
    "board_heatmap",
    "bar_chart",
    "histogram_lines",
    "ClaimCheck",
    "ReproductionReport",
    "build_report",
    "check_claims",
    "Table",
    "format_percent",
]
