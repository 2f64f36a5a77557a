"""Versioned headers for on-disk artifacts, and figure series export.

Every persisted artifact in the package (result-cache entries and
campaign checkpoints in :mod:`repro.runner`, run manifests in
:mod:`repro.obs`) leads with the same ``schema`` and ``kind`` fields, so
a loader rejects a file of another schema generation or kind before it
touches the payload. The CSV writers back the figure commands' ``--csv``
option.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from repro.errors import AnalysisError

SCHEMA_VERSION = 1

PathLike = Union[str, Path]


def make_header(kind: str, **fields) -> Dict:
    """Build a versioned JSON header for an on-disk artifact.

    The header carries the two leading fields every loader checks
    with :func:`check_header`.
    """
    header = {"schema": SCHEMA_VERSION, "kind": kind}
    header.update(fields)
    return header


def check_header(header: Dict, expected_kind: str) -> None:
    """Validate a header written by :func:`make_header`.

    Raises:
        AnalysisError: On a schema-version or kind mismatch.
    """
    if header.get("schema") != SCHEMA_VERSION:
        raise AnalysisError(
            f"unsupported schema version {header.get('schema')!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    if header.get("kind") != expected_kind:
        raise AnalysisError(
            f"header kind is {header.get('kind')!r}, expected {expected_kind!r}"
        )


# --- figure series export ----------------------------------------------------


def write_cdf_csv(cdf, path: PathLike, label: str = "value") -> None:
    """Write a :class:`~repro.analysis.stats.Cdf` as a two-column CSV."""
    xs, ps = cdf.series()
    with open(Path(path), "w", encoding="utf-8") as handle:
        handle.write(f"{label},cum_fraction\n")
        for x, p in zip(xs, ps):
            handle.write(f"{x:.6g},{p:.6g}\n")


def write_country_csv(country_values: Dict[str, float], path: PathLike) -> None:
    """Write Figure 5's per-country series as a CSV."""
    from repro.geo import region_of_country

    with open(Path(path), "w", encoding="utf-8") as handle:
        handle.write("country,region,standard_minus_premium_ms\n")
        for country in sorted(country_values):
            handle.write(
                f"{country},{region_of_country(country).value},"
                f"{country_values[country]:.6g}\n"
            )
