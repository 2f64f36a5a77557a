"""Compare a fresh benchmark run against the committed baseline.

CI's ``bench-smoke`` job regenerates ``BENCH_perf.small.json`` and runs::

    python benchmarks/compare.py BENCH_perf.small.json fresh.json

The comparison is deliberately coarse: per kernel, take the median
ratio of fresh over baseline wall time of the kernel's *gated* side
(``seconds[gated]``, schema v2) across the scales both files share, and
fail only when that median exceeds ``--threshold`` (2.0 by default).
The median absorbs one noisy scale on a shared CI runner; a genuine
regression slows every scale of a kernel and pushes the median over the
line.  Sides that are not gated are timed for the record only.

The kernel *set*, and each kernel's gated side, must match exactly.  A
kernel present on only one file, or gated on different sides, means
the benchmark suite and the committed baseline have drifted apart — the
comparison would silently shrink to the intersection and a regression
(or a brand-new kernel) could ride in unmeasured.  Drift is a hard
failure telling you to recommit the baseline in the same change that
edits the kernel list; ``--allow-drift`` downgrades it to a warning for
local experiments.  Scales present on only one side stay non-fatal
(tiers legitimately time different scale subsets).

The same entry point also gates the tracer-overhead numbers: when both
inputs are ``bench-obs`` documents (``BENCH_obs.json``, written by
``benchmarks/obs_overhead.py`` or a benchmark pytest session), the
comparison switches to the ``overhead`` block and fails when the
*disabled*-tracer per-op cost regresses beyond the threshold — the
"near-zero disabled overhead" claim from PR 2, CI-enforced.  The
enabled and histogram lanes are reported but not gated (they buffer
real events; their cost is a feature being measured, not a budget).

Exit status: 0 when the kernel sets match and every kernel is within
threshold, 1 otherwise, 2 for unusable inputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

#: The BENCH_perf schema this script reads (``benchmarks/perf.py``).
SCHEMA_VERSION = 2

#: Document tag of a BENCH_obs overhead snapshot.
BENCH_OBS_KIND = "bench-obs"

#: The overhead field the obs comparison gates on.
OBS_GATED_FIELD = "disabled_ns"

#: Overhead fields reported but never gated.
OBS_INFO_FIELDS = ("enabled_ns", "hist_ns")


def load_document(path: Path) -> Dict[str, Any]:
    """Parse one benchmark JSON document or exit 2."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read benchmark file {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not isinstance(document, dict):
        print(f"{path}: benchmark document must be an object", file=sys.stderr)
        raise SystemExit(2)
    return document


def load_kernels(
    path: Path, document: Dict[str, Any]
) -> Dict[str, Tuple[str, Dict[str, float]]]:
    """``{kernel: (gated side, {scale: gated seconds})}`` from a BENCH_perf
    document, or exit 2."""
    if document.get("schema_version") != SCHEMA_VERSION:
        print(
            f"{path}: unsupported schema_version "
            f"{document.get('schema_version')!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    kernels: Dict[str, Tuple[str, Dict[str, float]]] = {}
    for kernel in document.get("kernels", []):
        gated = kernel.get("gated")
        timings = {}
        for entry in kernel.get("scales", []):
            value = entry.get("seconds", {}).get(gated)
            if isinstance(value, (int, float)) and value > 0:
                timings[entry["scale"]] = float(value)
        kernels[kernel["name"]] = (gated, timings)
    if not kernels:
        print(f"{path}: no kernels with usable gated timings", file=sys.stderr)
        raise SystemExit(2)
    return kernels


def load_overhead(path: Path, document: Dict[str, Any]) -> Dict[str, float]:
    """The ``overhead`` block of a bench-obs document, or exit 2."""
    block = document.get("overhead")
    if not isinstance(block, dict) or not isinstance(
        block.get(OBS_GATED_FIELD), (int, float)
    ):
        print(
            f"{path}: no usable overhead block — regenerate with "
            "`PYTHONPATH=src python benchmarks/obs_overhead.py "
            f"--out {path.name}`",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return block


def compare_obs(
    baseline_path: Path,
    fresh_path: Path,
    baseline_doc: Dict[str, Any],
    fresh_doc: Dict[str, Any],
    threshold: float,
) -> int:
    """Diff two bench-obs overhead blocks; gate the disabled lane."""
    baseline = load_overhead(baseline_path, baseline_doc)
    fresh = load_overhead(fresh_path, fresh_doc)
    failures = []
    for field in (OBS_GATED_FIELD,) + OBS_INFO_FIELDS:
        base = baseline.get(field)
        new = fresh.get(field)
        if not isinstance(base, (int, float)) or not isinstance(new, (int, float)):
            print(f"  ?      {field}: missing on one side, skipping")
            continue
        if base <= 0:
            print(f"  ?      {field}: non-positive baseline, skipping")
            continue
        ratio = new / base
        gated = field == OBS_GATED_FIELD
        slow = gated and ratio > threshold
        verdict = "SLOW" if slow else ("ok" if gated else "info")
        print(
            f"  {verdict:<6} {field}: {base:.1f} -> {new:.1f} ns/op "
            f"({ratio:.2f}x)"
        )
        if slow:
            failures.append((field, ratio))
    if failures:
        print(
            f"\nFAIL: disabled-tracer overhead regressed beyond "
            f"{threshold:.1f}x: "
            + ", ".join(f"{field} ({ratio:.2f}x)" for field, ratio in failures)
        )
        return 1
    print(
        f"\nOK: disabled-tracer overhead within the {threshold:.1f}x threshold"
    )
    return 0


def median_ratio(
    baseline: Dict[str, float], fresh: Dict[str, float]
) -> Tuple[float, int]:
    """Median fresh/baseline ratio over shared scales, plus the count."""
    shared = sorted(set(baseline) & set(fresh))
    ratios = [fresh[scale] / baseline[scale] for scale in shared]
    return (statistics.median(ratios) if ratios else 0.0, len(ratios))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed benchmark JSON")
    parser.add_argument("fresh", type=Path, help="newly generated benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="fail when a kernel's median slowdown exceeds this factor "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--allow-drift",
        action="store_true",
        help="tolerate kernels present on only one file, or gated on "
        "different sides, instead of failing with a recommit-baseline error",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 1.0:
        parser.error(f"--threshold must be > 1.0, got {args.threshold}")

    baseline_doc = load_document(args.baseline)
    fresh_doc = load_document(args.fresh)
    obs_sides = [
        doc.get("kind") == BENCH_OBS_KIND for doc in (baseline_doc, fresh_doc)
    ]
    if any(obs_sides):
        if not all(obs_sides):
            print(
                "cannot compare a bench-obs document against a BENCH_perf "
                "document",
                file=sys.stderr,
            )
            return 2
        return compare_obs(
            args.baseline, args.fresh, baseline_doc, fresh_doc, args.threshold
        )

    baseline = load_kernels(args.baseline, baseline_doc)
    fresh = load_kernels(args.fresh, fresh_doc)

    drifted = []
    failures = []
    for name in sorted(set(baseline) | set(fresh)):
        if name not in baseline:
            print(f"  new    {name}: not in baseline")
            drifted.append(name)
            continue
        if name not in fresh:
            print(f"  gone   {name}: not in fresh run")
            drifted.append(name)
            continue
        (gated, base_s), (fresh_gated, fresh_s) = baseline[name], fresh[name]
        if gated != fresh_gated:
            print(f"  moved  {name}: gated side {gated!r} -> {fresh_gated!r}")
            drifted.append(name)
            continue
        ratio, n_scales = median_ratio(base_s, fresh_s)
        if n_scales == 0:
            print(f"  ?      {name}: no shared scales, skipping")
            continue
        verdict = "SLOW" if ratio > args.threshold else "ok"
        print(
            f"  {verdict:<6} {name}: median {gated} ratio "
            f"{ratio:.2f}x over {n_scales} scale(s)"
        )
        if ratio > args.threshold:
            failures.append((name, ratio))

    if drifted:
        verdict = (
            f"kernels drifted — recommit baseline "
            f"({args.baseline.name}): " + ", ".join(drifted)
        )
        if args.allow_drift:
            print(f"\nWARN (--allow-drift): {verdict}")
        else:
            print(f"\nFAIL: {verdict}")
            return 1
    if failures:
        print(
            f"\nFAIL: {len(failures)} kernel(s) regressed beyond "
            f"{args.threshold:.1f}x: "
            + ", ".join(f"{name} ({ratio:.2f}x)" for name, ratio in failures)
        )
        return 1
    print(f"\nOK: no kernel exceeded the {args.threshold:.1f}x threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
