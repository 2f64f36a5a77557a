"""Write ``expected.json``: the expected output of every benchmark operation.

Run from the root of a checkout::

    python3 perfbench/expected.py

Study outputs come from inline ``report-all`` iterations, one per seed,
so ``campaign-3seed``'s pool results are checked against the inline
path; scenario digests come from one ``scenario-sweep`` iteration over
every seed.  Rewrite the file only when the program's results are meant
to change, and review its diff.
"""

from __future__ import annotations

import json
import math
import sys
import time

import run


def main() -> int:
    deadline = time.monotonic() + 3600.0
    outputs = {}
    inputs = [
        ("report-all", [seed])
        for seed in range(run.FIRST_SEEDS + run.SEEDS_PER_INPUT["campaign-3seed"] - 1)
    ]
    inputs.append(
        (
            "scenario-sweep",
            list(range(run.FIRST_SEEDS + run.SEEDS_PER_INPUT["scenario-sweep"] - 1)),
        )
    )
    for name, seeds in inputs:
        sample = run.spawn(name, seeds, False, deadline)
        if not sample["ok"] or sample["failed"]:
            print(f"{name} {seeds} failed: {sample}", file=sys.stderr)
            return 1
        for key, output in sample["outputs"].items():
            if not isinstance(output, str) and not all(
                math.isfinite(v) for v in output["summary"].values()
            ):
                print(f"{key}: non-finite summary {output}", file=sys.stderr)
                return 1
        outputs.update(sample["outputs"])
        print(f"{name} {seeds}: {len(sample['outputs'])} outputs", flush=True)
    payload = {
        "about": "Expected output of every operation the benchmark can run; "
        "written by perfbench/expected.py.",
        "params": run.PARAMS,
        "outputs": outputs,
    }
    run.EXPECTED_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
