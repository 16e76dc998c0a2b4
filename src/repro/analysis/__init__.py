"""Analysis utilities: statistics, table rendering, figure-data generators.

:mod:`repro.analysis.figures` holds one function per data-bearing figure of
the paper; :mod:`repro.analysis.registry` holds one row per figure (its
compute call, printed table and claims), which ``repro figure``, the
figure bench and ``tests/claims`` all read.
"""

from repro.analysis.stats import SeriesSummary, summarize
from repro.analysis.tables import format_float, render_table

__all__ = [
    "SeriesSummary",
    "summarize",
    "format_float",
    "render_table",
]
