"""Paper-style report formatting for the figure/table benchmarks."""

from repro.bench.report import format_table, print_series, print_table

__all__ = ["print_table", "print_series", "format_table"]
