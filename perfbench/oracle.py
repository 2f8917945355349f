"""Correctness oracle for the benchmark workloads.

At the default workload seed the CSV artifacts and a few named report fields
must equal the values in pinned.json, captured from the commit that
introduced the benchmark.  Whole JSON reports are not pinned, so a report
may gain fields without failing the oracle.  At any seed the workload's
invariants must hold, and repeated runs of one seed must produce identical
bytes.  field-map draws no random numbers, so its pins hold at every seed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from workloads import DEFAULT_SEED, ENSEMBLE_MESSAGE, ENSEMBLE_PRESETS, SIZES

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text(encoding="utf-8"))

# Tolerance of the sifting invariant: a quarter of the pulses survive sifting.
RETENTION_TOLERANCE = 0.01


def check(name: str, seed: int, size: str, obs: dict) -> list[str]:
    """Problems with one observed run; an empty list means it passed."""
    problems = _invariants(name, size, obs["fields"])
    if seed == DEFAULT_SEED or name == "field-map":
        pinned = PINNED[size][name]
        for path, digest in pinned["files"].items():
            if obs["files"].get(path) != digest:
                problems.append(f"{path}: sha256 differs from the pinned value")
        for key, value in pinned["fields"].items():
            if obs["fields"].get(key) != value:
                problems.append(f"{key}: {obs['fields'].get(key)!r} differs from the pinned value")
    return problems


def check_repeat(first: dict, again: dict) -> list[str]:
    """Problems when a rerun of the same seed did not reproduce the first run."""
    problems = [
        f"{path}: bytes differ between runs of one seed"
        for path in sorted(set(first["files"]) | set(again["files"]))
        if first["files"].get(path) != again["files"].get(path)
    ]
    if first["fields"] != again["fields"]:
        problems.append("report fields differ between runs of one seed")
    return problems


def _retention_ok(value: float) -> bool:
    return abs(value - 0.25) <= RETENTION_TOLERANCE


def _invariants(name: str, size: str, f: dict) -> list[str]:
    s = SIZES[name][size]
    problems = []
    if name == "qkd-long":
        expected = s["message_chars"] * 7 * s["cycles"]
        if f["total_pulses"] != expected:
            problems.append(f"total_pulses {f['total_pulses']} != {expected}")
        if size == "large" and not _retention_ok(f["sift_retention"]):
            problems.append(f"sift_retention {f['sift_retention']} outside 0.25 +- {RETENTION_TOLERANCE}")
    elif name == "detector-large":
        if f["pulses"] != s["pulses"] or f["records"] != 2 * s["pulses"]:
            problems.append(f"{f['records']} records for {f['pulses']} pulses, expected {2 * s['pulses']}")
        if any(total != 2 * s["pulses"] for _, total in f["sipm_roundtrip"]):
            problems.append("sipm_roundtrip_total does not count every port of every pulse")
    elif name == "field-map":
        if f["cells_total"] != 2 * s["points"] or f["cells_gap"] != 0:
            problems.append(f"{f['cells_total']} cells with {f['cells_gap']} gaps, "
                            f"expected {2 * s['points']} and none")
    elif name == "qkd-ensemble":
        sessions = f["sessions"]
        if len(sessions) != len(ENSEMBLE_PRESETS) * s["sessions_per_preset"]:
            problems.append(f"{len(sessions)} sessions ran")
        pulses = 7 * len(ENSEMBLE_MESSAGE) * s["cycles"]
        if any(row[5] != pulses for row in sessions):
            problems.append(f"a session did not send {pulses} pulses")
        if size == "large":
            for preset in ENSEMBLE_PRESETS:
                acc = [row[3] for row in sessions if row[0] == preset]
                if statistics.median(acc) != 1.0:
                    problems.append(f"{preset}: median accuracy {statistics.median(acc)} != 1.0")
            if not all(_retention_ok(row[6]) for row in sessions):
                problems.append(f"a session's sift_retention is outside 0.25 +- {RETENTION_TOLERANCE}")
    return problems
