"""Drivers reproducing the paper's evaluation (Section 7).

Only the paper's own tables live here; the repo's performance numbers
come from ``benchmarks/harness``.
"""

from .ablations import run_ablations, render_ablations
from .table2 import render_table2, run_table2
from .table3 import COLUMNS, applicable, render_table3, run_column, run_table3
from .timing import format_table, geomean, time_call

__all__ = [
    "COLUMNS", "applicable", "format_table", "geomean", "render_ablations",
    "render_table2", "render_table3", "run_ablations", "run_column",
    "run_table2", "run_table3", "time_call",
]
