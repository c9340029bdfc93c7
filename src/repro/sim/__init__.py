"""Simulation drivers: analytic link model, dynamic scenario, waveform path."""

from .dynamic import DynamicRunResult, DynamicScenario, DynamicTick
from .endtoend import EndToEndLink, EndToEndReport
from .export import (
    figure_to_rows,
    result_to_json,
    write_figure_csv,
    write_json,
    write_table_csv,
)
from .linkmodel import (
    LinkEvaluator,
    expected_goodput,
    frame_slot_count,
    frame_success_probability,
    stop_and_wait_goodput,
)
from .montecarlo import MonteCarloValidator, SymbolErrorEstimate, default_payload
from .results import (
    ExperimentRegistry,
    FigureResult,
    Series,
    TableResult,
    ascii_plot,
    format_table,
)
from .sweep import SweepRunner

__all__ = [
    "DynamicRunResult",
    "DynamicScenario",
    "DynamicTick",
    "EndToEndLink",
    "EndToEndReport",
    "ExperimentRegistry",
    "FigureResult",
    "LinkEvaluator",
    "MonteCarloValidator",
    "Series",
    "SweepRunner",
    "SymbolErrorEstimate",
    "TableResult",
    "ascii_plot",
    "default_payload",
    "expected_goodput",
    "figure_to_rows",
    "format_table",
    "frame_slot_count",
    "frame_success_probability",
    "result_to_json",
    "stop_and_wait_goodput",
    "write_figure_csv",
    "write_json",
    "write_table_csv",
]
