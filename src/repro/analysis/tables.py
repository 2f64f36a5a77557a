"""Text rendering of tables, histograms, CDFs, and region choropleths.

Benchmarks print the same rows/series the paper's figures report; these
helpers keep that output aligned and readable in a terminal.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.geo import Region

_BAR = "█"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_fmt: str = "{:.2f}",
) -> str:
    """Render rows as an aligned plain-text table."""
    if not headers:
        raise AnalysisError("a table needs headers")

    def cell(value: object) -> str:
        if isinstance(value, float) and not isinstance(value, bool):
            return float_fmt.format(value)
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    for row in text_rows:
        if len(row) != len(headers):
            raise AnalysisError(
                f"row width {len(row)} does not match headers {len(headers)}"
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def text_cdf(
    xs: Sequence[float],
    ps: Sequence[float],
    points: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98),
    label: str = "value",
) -> str:
    """Summarize a CDF as a small quantile table."""
    x = np.asarray(xs, dtype=float)
    p = np.asarray(ps, dtype=float)
    if x.shape != p.shape or x.size == 0:
        raise AnalysisError("xs and ps must be equal-length, non-empty")
    rows = []
    for q in points:
        idx = int(np.searchsorted(p, q, side="left"))
        idx = min(idx, len(x) - 1)
        rows.append((f"p{int(round(q * 100)):02d}", float(x[idx])))
    return format_table(["quantile", label], rows)


def text_choropleth(
    country_values: Mapping[str, float],
    country_regions: Mapping[str, Region],
    unit: str = "ms",
) -> str:
    """Text-mode stand-in for the paper's Figure 5 world map.

    Groups per-country values by region and renders a signed bar per
    country, positive to the right (Premium/WAN better in Figure 5's
    convention) and negative to the left.
    """
    if not country_values:
        raise AnalysisError("no countries to render")
    magnitudes = [abs(v) for v in country_values.values()]
    scale = max(max(magnitudes), 1e-9)
    width = 24
    by_region: Dict[Region, list] = {}
    for country, value in country_values.items():
        region = country_regions.get(country)
        if region is None:
            raise AnalysisError(f"no region for country {country!r}")
        by_region.setdefault(region, []).append((country, value))
    lines = []
    for region in Region:
        entries = by_region.get(region)
        if not entries:
            continue
        lines.append(f"-- {region.value} --")
        for country, value in sorted(entries):
            n = int(round(width * abs(value) / scale))
            bar = _BAR * n
            if value >= 0:
                lines.append(f"  {country}  {'':>{width}}|{bar:<{width}} +{value:.1f} {unit}")
            else:
                lines.append(f"  {country}  {bar:>{width}}|{'':<{width}} {value:.1f} {unit}")
    return "\n".join(lines)
