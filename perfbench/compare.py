"""Compare two sets of benchmark records written by run.py --save.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are record files or directories of them.  Records are
grouped by workload and trace mode; each metric's value is the median over
the records (seeds) of a group.  Sets whose kernel backend or workload sizes
differ are refused: the numpy and compiled backends differ several-fold in
pulse_randoms alone, so such a difference is not a speed change.  A metric
that got worse by more than its bound in BENCHMARK.json is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups: dict[tuple[str, int], list[dict]] = {}
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def comparable(before: list[dict], after: list[dict]) -> str | None:
    """Why the two groups cannot be compared, or None when they can."""
    backends = {r["env"]["backend"] for r in before + after}
    if len(backends) > 1:
        return f"kernel backend differs: {sorted(backends)}"
    sizes = {json.dumps(r["sizes"], sort_keys=True) for r in before + after}
    if len(sizes) > 1:
        return f"workload sizes differ: {sorted(sizes)}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(Path(argv[0])), load(Path(argv[1]))
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    refused = False
    for key in sorted(set(before) & set(after)):
        reason = comparable(before[key], after[key])
        workload, trace = key
        if reason:
            print(f"{workload} trace {trace}: refused, {reason}")
            refused = True
            continue
        for name in before[key][0]["metrics"]:
            a = statistics.median(r["metrics"][name]["value"] for r in before[key])
            b = statistics.median(r["metrics"][name]["value"] for r in after[key])
            change = (b - a) / a if a else 0.0
            spec_m = metrics[name]
            worse = change if spec_m["better"] == "lower" else -change
            flag = " REGRESSION" if "bound" in spec_m and worse > spec_m["bound"] else ""
            print(f"{workload:15s} {name:40s} {a:12.6g} -> {b:12.6g} {spec_m['unit']:6s} "
                  f"{change:+8.2%} (n {len(before[key])}/{len(after[key])}){flag}")
    return 2 if refused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
