"""Small shared utilities: RNG handling, validation, timing, tables."""

from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import (
    check_matrix,
    check_vector,
    check_positive_int,
    check_fraction,
    check_in,
)
from repro.utils.timer import Timer
from repro.utils.tables import format_table
from repro.utils.timeline import render_timeline, trace_summary

__all__ = [
    "as_generator",
    "derive_seed",
    "check_matrix",
    "check_vector",
    "check_positive_int",
    "check_fraction",
    "check_in",
    "Timer",
    "format_table",
    "render_timeline",
    "trace_summary",
]
