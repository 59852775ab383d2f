"""Compare two benchmark records of one workload and seed.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The records are the files ``run.py`` writes to ``perfbench/results/``.
Count metrics (unit ``count``) must repeat exactly for a seed: any
difference is reported as a semantic change, never as noise.  Other
metrics are reported with their relative change, and an end-to-end
metric that got worse by more than its ``bound`` in ``BENCHMARK.json``
is flagged.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import json
import os
import sys


def _bounds() -> dict[str, tuple[str, float]]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def compare(before: dict, after: dict) -> list[str]:
    """Flagged differences between two records (empty when none)."""
    flags = []
    for key in ("workload", "seed", "trace"):
        if before["provenance"][key] != after["provenance"][key]:
            flags.append(f"records differ in {key}: cannot compare")
    if flags:
        return flags
    bounds = _bounds()
    old, new = before["result"]["metrics"], after["result"]["metrics"]
    for name in sorted(old.keys() & new.keys()):
        a, b = old[name]["value"], new[name]["value"]
        change = (b - a) / a if a else float("inf") if b else 0.0
        line = f"{name:40s} {a:14.6g} -> {b:14.6g} ({change:+.1%})"
        if old[name]["unit"] == "count":
            if a != b:
                flags.append(f"semantic change: {line}")
        elif name in bounds:
            better, bound = bounds[name]
            worse = -change if better == "higher" else change
            if worse > bound:
                flags.append(f"worse than bound {bound}: {line}")
        print(line)
    return flags


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    flags = compare(*records)
    for flag in flags:
        print(flag)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
