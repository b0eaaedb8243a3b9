"""Experiment scaffolding and result presentation."""

from repro.analysis.experiments import (
    build_lfs_system, build_standard_system, build_trail_system)
from repro.analysis.tables import format_cell, render_table, speedup

__all__ = [
    "build_lfs_system",
    "build_standard_system",
    "build_trail_system",
    "format_cell",
    "render_table",
    "speedup",
]
