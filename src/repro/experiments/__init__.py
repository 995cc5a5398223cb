"""Experiment harness: named scenarios, scaling and packaging, and regenerators
for every figure and table of the paper's evaluation (see DESIGN.md §4)."""

from .runner import scaled_config
from .scenarios import (
    figure1_scenarios,
    figure2_left_scenarios,
    figure4_scenarios,
    table1_parameters,
)
from . import figures, tables

__all__ = [
    "scaled_config",
    "figure1_scenarios",
    "figure2_left_scenarios",
    "figure4_scenarios",
    "table1_parameters",
    "figures",
    "tables",
]
