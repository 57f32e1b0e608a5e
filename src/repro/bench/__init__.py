"""Benchmark support: paper-style result reporting."""

from .reporting import format_series, format_table, print_series, print_table

__all__ = [
    "format_table",
    "format_series",
    "print_table",
    "print_series",
]
