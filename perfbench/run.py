"""fwmqkd benchmark: one workload, one seed, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload qkd-long --seed 1 --seconds 20 --trace 0

Each sample is a fresh interpreter (child.py) that imports fwmqkd from
./src, warms up on the workload's small size and then runs it once at its
large size, single-threaded; samples run back to back, one at a time.  The
parent times set-up up to the child's "ready" line, takes peak RSS from the
child's resource usage and checks every sample's artifacts with the oracle.
It keeps starting samples while the next one is expected to finish within
--seconds, and always takes at least two, so that a rerun of the seed can be
compared byte for byte.

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json; with
--trace 1 samples alternate untraced and traced, and the metrics are the
per-layer ones.  Summary lines go first; the last line of stdout is the
result as one JSON object.  --save writes the full record, with the
environment and the workload sizes that compare.py needs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent

# Set-up samples per run, on top of the set-up every measured sample pays.
SETUP_SAMPLES = 4
MIN_RUNS = 2
# The whole run has to finish well inside three minutes.
TIME_LIMIT_S = 170.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.src = root / "src"
        self.workdir = root / ".bench_work" / f"{workload}-{os.getpid()}"
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        # Bytecode is cached, as in an installed package, so that set-up does
        # not depend on the caller's PYTHONDONTWRITEBYTECODE.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("FWMQKD_") and k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(self.src)
        # One thread: an idle BLAS pool spins on the second core otherwise.
        self.env["OPENBLAS_NUM_THREADS"] = self.env["OMP_NUM_THREADS"] = "1"

    def child(self, mode: str) -> dict:
        """Start one sample and wait for it; report what it printed and used."""
        cmd = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed),
               str(self.workdir), mode, str(self.src)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, text=True)
        timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        sample = {"ok": False, "setup_s": setup_s, "elapsed_s": time.perf_counter() - start,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if proc.returncode != 0 or ready.strip() != "ready":
            print(f"{mode} sample exited with code {proc.returncode}", file=sys.stderr)
            return sample
        try:
            sample.update(json.loads(rest), ok=True)
        except json.JSONDecodeError:
            print(f"{mode} sample printed no result", file=sys.stderr)
        return sample

    def run(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.child("setup")  # untimed: compiles bytecode and fills the file cache
            setups = [self.child("setup") for _ in range(SETUP_SAMPLES)]
            if not all(s["ok"] for s in setups):
                raise RuntimeError("fwmqkd failed to import or to run the warm-up")
            runs: list[dict] = []
            first_obs = None
            stop = min(time.perf_counter() + seconds, self.deadline)
            while len(runs) < MIN_RUNS or (
                time.perf_counter() + statistics.median(r["elapsed_s"] for r in runs) <= stop
            ):
                mode = "trace" if trace and len(runs) % 2 else "run"
                sample = self.child(mode)
                sample["mode"] = mode
                if sample["ok"]:
                    try:
                        obs = workloads.observe(self.workload, self.workdir / "run",
                                                sample["returned"])
                        problems = oracle.check(self.workload, self.seed, "large", obs)
                    except (OSError, KeyError, TypeError, ValueError) as exc:
                        obs, problems = None, [f"artifacts unreadable: {exc!r}"]
                    if first_obs is None:
                        first_obs = obs
                    elif obs is not None:
                        problems += oracle.check_repeat(first_obs, obs)
                    for p in problems:
                        print(f"oracle: {self.workload} seed {self.seed}: {p}", file=sys.stderr)
                    sample["ok"] = not problems
                runs.append(sample)
                shutil.rmtree(self.workdir, ignore_errors=True)
            return setups, runs
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.workdir.parent.rmdir()


def summarize(spec: dict, setups: list[dict], runs: list[dict], trace: bool) -> dict:
    """Metric name -> {value (the median), unit, q1, q3, n}."""
    good = [r for r in runs if r["ok"]]
    children = setups + good
    if trace:
        traced = [r for r in good if r["mode"] == "trace"]
        plain = [r for r in good if r["mode"] == "run"]
        samples = {name: [r["layers"][name] for r in traced]
                   for name in traced[0]["layers"]} if traced and plain else {}
        samples["setup.import_s"] = [c["import_s"] for c in children]
        samples["setup.first_call_s"] = [c["first_call_s"] for c in children]
        if traced and plain:
            samples["trace.overhead_frac"] = [
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1.0
            ]
        wanted = spec["per_layer"]
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in good],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
            "setup_s": [c["setup_s"] for c in children],
        }
        wanted = spec["end_to_end"]
    out = {}
    for m in wanted:
        values = samples.get(m["name"])
        if not values:
            raise RuntimeError(f"no measurement of {m['name']}")
        q1, median, q3 = quartiles(values)
        out[m["name"]] = {"value": median, "unit": m["unit"], "q1": q1, "q3": q3,
                          "n": len(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the full result record here")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running sample is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "fwmqkd" / "__init__.py").is_file():
        print("perfbench: no fwmqkd source at ./src/fwmqkd; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    bench = Bench(root, args.workload, args.seed)
    try:
        setups, runs = bench.run(args.seconds, bool(args.trace))
        good = [r for r in runs if r["ok"]]
        if not good:
            raise RuntimeError("every run failed")
        metrics = summarize(spec, setups, runs, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed = len(runs) - len(good)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": good[0]["env"],
        "sizes": workloads.SIZES[args.workload]["large"],
        "attempted": len(runs),
        "failed": failed,
        "failed_frac": failed / len(runs),
        "metrics": metrics,
    }

    env = " ".join(f"{k} {v}" for k, v in record["env"].items())
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} {env} "
          f"sizes {json.dumps(record['sizes'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:6s} "
              f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']}")
    print(f"{'failed_frac':40s} {record['failed_frac']:14.6g} ratio  "
          f"{failed} of {len(runs)} runs failed or were wrong")
    if args.save:
        Path(args.save).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
