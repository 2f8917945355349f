"""Timings of the sampling and search kernels."""

from __future__ import annotations

import time

import numpy as np

from ._kernels import poisson_counts, pulse_randoms, se_argmin
from .reconstruct import DEFAULT_GRID, _ratio_tables


def _best_of(func, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - t0)
    return best


def _workloads(pulses: int, ratio_pairs: np.ndarray):
    psi, phi, tab0, tab45 = _ratio_tables(DEFAULT_GRID)
    lam = np.full(pulses, 0.8)
    u = pulse_randoms(1, 0, 0, pulses)[1]

    def randoms():
        pulse_randoms(1, 0, 0, pulses)

    def poisson():
        poisson_counts(u, lam, 5)

    def argmin():
        se_argmin(tab0, tab45, ratio_pairs[:, 0], ratio_pairs[:, 1], DEFAULT_GRID.tie_eps)

    return {"pulse_randoms": randoms, "poisson_counts": poisson, "se_argmin": argmin}


def run_bench(pulses: int = 200_000, pairs: int = 20, repeats: int = 3) -> dict:
    """Time each kernel, best of `repeats` runs after one warm-up."""
    rng = np.random.default_rng(7)
    ratio_pairs = rng.uniform(0.1, 5.0, size=(pairs, 2))

    report: dict = {
        "pulses": pulses,
        "se_argmin_pairs": pairs,
        "repeats": repeats,
        "kernels": {},
    }
    for name, work in _workloads(pulses, ratio_pairs).items():
        work()
        report["kernels"][name] = {"seconds": _best_of(work, repeats)}
    return report


def format_report(report: dict) -> str:
    lines = [
        f"pulses={report['pulses']}  se_argmin pairs={report['se_argmin_pairs']}"
        f"  repeats={report['repeats']}",
    ]
    for name, entry in report["kernels"].items():
        lines.append(f"{name:16s}  {entry['seconds'] * 1e3:9.3f} ms")
    return "\n".join(lines)
