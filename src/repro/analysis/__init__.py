"""Statistics and presentation toolkit shared by all analyses."""

from repro.analysis.stats import Cdf, weighted_cdf, nanmedian
from repro.analysis.plot import ascii_cdf_figure, ascii_plot
from repro.analysis.tables import (
    format_table,
    text_cdf,
    text_choropleth,
)

__all__ = [
    "Cdf",
    "weighted_cdf",
    "nanmedian",
    "ascii_cdf_figure",
    "ascii_plot",
    "format_table",
    "text_cdf",
    "text_choropleth",
]
