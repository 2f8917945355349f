"""One sample of a workload, in a fresh interpreter.

run.py starts this script once per sample:

    python3 perfbench/child.py WORKLOAD SEED WORKDIR MODE SRC

It imports fwmqkd (which must come from SRC), runs the workload at its small
size as the first-call warm-up and writes "ready" on stdout; the parent
times set-up up to that line.  In mode "run" or "trace" it then runs the
workload at its large size, traced or not, and writes one JSON line with the
timings, the environment and what the oracle needs that exists only in
memory.  In mode "setup" it stops after the warm-up.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import fwmqkd.cli  # noqa: E402  (the import is what is being timed)

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    return {
        "backend": fwmqkd.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str]) -> int:
    workload, seed, workdir, mode, src = argv
    seed, workdir = int(seed), Path(workdir)
    if not Path(fwmqkd.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"fwmqkd was imported from {fwmqkd.__file__}, not from {src}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    workloads.prepare(workload, seed, workdir / "warmup", "small")()
    first_call_s = time.perf_counter() - start
    print("ready", flush=True)

    out = {"import_s": IMPORT_S, "first_call_s": first_call_s}
    if mode != "setup":
        run = workloads.prepare(workload, seed, workdir / "run", "large")
        tracer = spans.Tracer() if mode == "trace" else None
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            returned = run()
            wall_s = time.perf_counter() - start
        out.update(wall_s=wall_s, returned=returned, env=environment())
        if tracer is not None:
            out["layers"] = spans.layer_metrics(tracer, wall_s)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
