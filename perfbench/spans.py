"""Outside-in tracing: spans around calls into fwmqkd's public functions.

Modules import functions by name, so a function is wrapped at every module
global that refers to it, which is the name its callers look it up by; the
definition is wrapped too.  Every original is put back on exit.  Spans
(name, start, end, parent) and the counts taken at each boundary stay in
memory until the run ends.  A layer's self time is the duration of its spans
minus the part their direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

WRAPPED_MARK = "__perfbench_layer__"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(p):
    return 1 if np.ndim(p) < 2 else np.shape(p)[0]


def _adds(key, amount):
    def counter(c, args, kwargs, result):
        c[key] += amount(args, kwargs, result)
    return counter


def _run_session(c, args, kwargs, report):
    c["session.run_session.pulses"] += report.total_pulses
    c["session.sifted_pulses"] += report.sift_retention * report.total_pulses


def _poisson(c, args, kwargs, result):
    c["kernels.poisson_counts.draws"] += np.size(_arg(args, kwargs, 0, "u"))
    c["kernels.poisson_counts.clamped"] += int(np.count_nonzero(result[1]))


def _se_argmin(c, args, kwargs, result):
    c["kernels.se_argmin.calls"] += 1
    c["kernels.se_argmin.grid_points"] += np.size(_arg(args, kwargs, 0, "tab0"))


def _reconstruct_map(c, args, kwargs, results):
    c["reconstruct.reconstruct_map.pairs"] += len(results)
    c["reconstruct.degenerate_cells"] += sum(1 for r in results if r.degenerate)


def _write_manifest(c, args, kwargs, result):
    files = _arg(args, kwargs, 4, "files")
    c["pipeline.write_manifest.bytes_hashed"] += sum(Path(f).stat().st_size for f in files)


# (layer, defining module, function, counter).  Several functions may share
# a layer name; their spans add up.
TARGETS = [
    ("pipeline.run", "fwmqkd.pipeline", "run_spectra", None),
    ("pipeline.run", "fwmqkd.pipeline", "run_contrast_map", None),
    ("pipeline.run", "fwmqkd.pipeline", "run_reconstruct", None),
    ("pipeline.run", "fwmqkd.pipeline", "run_qkd", None),
    ("pipeline.run", "fwmqkd.pipeline", "run_detector_check", None),
    ("pipeline.write_csv", "fwmqkd.pipeline", "write_csv", None),
    ("pipeline.write_manifest", "fwmqkd.pipeline", "write_manifest", _write_manifest),
    ("session.run_session", "fwmqkd.session", "run_session", _run_session),
    ("session.decode_matrix", "fwmqkd.session", "decode_matrix",
     _adds("session.decode_matrix.rows", lambda a, k, r: _rows(_arg(a, k, 0, "p_cum")))),
    ("kernels.pulse_randoms", "fwmqkd._kernels", "pulse_randoms",
     _adds("kernels.pulse_randoms.pulses", lambda a, k, r: _arg(a, k, 3, "count"))),
    ("kernels.poisson_counts", "fwmqkd._kernels", "poisson_counts", _poisson),
    ("kernels.se_argmin", "fwmqkd._kernels", "se_argmin", _se_argmin),
    ("photons.gain_from_uniform", "fwmqkd.photons", "gain_from_uniform", None),
    ("photons.draw_photon_counts", "fwmqkd.photons", "draw_photon_counts", None),
    ("photons.accumulate_contrast", "fwmqkd.photons", "accumulate_contrast", None),
    ("photons.sipm", "fwmqkd.photons", "emulate_sipm", None),
    ("photons.sipm", "fwmqkd.photons", "invert_sipm", None),
    ("optics.intensity_pair", "fwmqkd.optics", "intensity_pair",
     _adds("optics.intensity_pair.calls", lambda a, k, r: 1)),
    ("spectral.signal_spectrum", "fwmqkd.spectral", "signal_spectrum",
     _adds("spectral.signal_spectrum.points", lambda a, k, r: np.size(_arg(a, k, 1, "grid")))),
    ("reconstruct.reconstruct_map", "fwmqkd.reconstruct", "reconstruct_map", _reconstruct_map),
]

LAYERS = sorted({t[0] for t in TARGETS})


class Tracer:
    """Context manager that wraps every target for the duration of a block."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.csv_paths: list[Path] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer, func, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        csv_paths = self.csv_paths

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((layer, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
            if layer == "pipeline.write_csv":
                csv_paths.append(Path(_arg(args, kwargs, 0, "path")))
            return result

        setattr(wrapper, WRAPPED_MARK, layer)
        return wrapper

    def __enter__(self):
        for _, module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fwmqkd" or n.startswith("fwmqkd."))]
        try:
            for layer, module_name, attr, counter in TARGETS:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(layer, original, counter)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            self._patched.append((module, name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def self_times(self) -> dict[str, float]:
        """Per-layer duration minus the duration of direct child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, start, end, _), inner in zip(self.spans, child):
            out[layer] += (end - start) - inner
        return out

    def covered(self) -> float:
        """Seconds covered by root spans; they never overlap in one thread."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced run.  Layers a workload never
    calls read 0."""
    c = tracer.counts
    rows = bytes_written = 0
    for path in tracer.csv_paths:
        data = path.read_bytes()
        rows += data.count(b"\n") - 1
        bytes_written += len(data)
    out = {f"{layer}.self_s": t for layer, t in tracer.self_times().items()}
    pulses = c["session.run_session.pulses"]
    draws = c["kernels.poisson_counts.draws"]
    pairs = c["reconstruct.reconstruct_map.pairs"]
    out.update({
        "session.run_session.pulses": pulses,
        "session.decode_matrix.rows": c["session.decode_matrix.rows"],
        "session.sift_retention": c["session.sifted_pulses"] / pulses if pulses else 0.0,
        "kernels.pulse_randoms.pulses": c["kernels.pulse_randoms.pulses"],
        "kernels.poisson_counts.draws": draws,
        "kernels.poisson_counts.clamped_frac":
            c["kernels.poisson_counts.clamped"] / draws if draws else 0.0,
        "kernels.se_argmin.calls": c["kernels.se_argmin.calls"],
        "kernels.se_argmin.grid_points": c["kernels.se_argmin.grid_points"],
        "pipeline.write_csv.rows": rows,
        "pipeline.write_csv.bytes": bytes_written,
        "pipeline.write_manifest.bytes_hashed": c["pipeline.write_manifest.bytes_hashed"],
        "optics.intensity_pair.calls": c["optics.intensity_pair.calls"],
        "spectral.signal_spectrum.points": c["spectral.signal_spectrum.points"],
        "reconstruct.reconstruct_map.pairs": pairs,
        "reconstruct.degenerate_frac": c["reconstruct.degenerate_cells"] / pairs if pairs else 0.0,
        "trace.unattributed_frac": 1.0 - tracer.covered() / wall_s,
    })
    return out
