"""The four benchmark workloads: what each hands the program and what it reads back.

A workload turns a seed and a size into inputs (a config file, or library
arguments for the ensemble), runs fwmqkd on them in this process and leaves
its artifacts in a work directory.  ``prepare`` does everything that is
harness work, so the callable it returns times only the program.  ``observe``
reads back what the oracle checks; it runs after the timed region, in
whichever process owns the work directory.

The "large" sizes are the roadmap's large size.  The "small" sizes exercise
the same code paths in well under a second; they are the warm-up that every
measured run starts with and the size the harness self-tests use.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import string
from dataclasses import replace
from pathlib import Path

DEFAULT_SEED = 20260814

NAMES = ("qkd-long", "detector-large", "field-map", "qkd-ensemble")

SIZES = {
    "qkd-long": {
        "large": {"message_chars": 256, "cycles": 1200},
        "small": {"message_chars": 3, "cycles": 60},
    },
    "detector-large": {
        "large": {"pulses": 500_000},
        "small": {"pulses": 2_000},
    },
    "field-map": {
        "large": {"points": 1000},
        "small": {"points": 13},
    },
    "qkd-ensemble": {
        "large": {"sessions_per_preset": 100, "cycles": 1200},
        "small": {"sessions_per_preset": 2, "cycles": 120},
    },
}

ENSEMBLE_MESSAGE = "Tar Heel"
ENSEMBLE_PRESETS = ("540nm", "500nm")


def message_for(seed: int, chars: int) -> str:
    """Printable ASCII message drawn from the workload seed."""
    alphabet = string.ascii_letters + string.digits + string.punctuation + " "
    return "".join(random.Random(seed).choices(alphabet, k=chars))


def _cli(*argv) -> None:
    from fwmqkd import cli

    # cli.main prints the artifact paths; they are not part of the result.
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"fwmqkd {argv[0]} exited with code {code}")


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    return path


def prepare(name: str, seed: int, workdir: Path, size: str = "large"):
    """Write the workload's inputs under workdir and return the call to time."""
    s = SIZES[name][size]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    if name == "qkd-long":
        cfg = _write_config(workdir / "config.json", {"qkd": {
            "preset": "540nm",
            "message": message_for(seed, s["message_chars"]),
            "cycles": s["cycles"],
            "g2_target": 1.0,
        }})
        return lambda: _cli("qkd", "--config", cfg, "--seed", seed, "--out", workdir / "qkd")

    if name == "detector-large":
        cfg = _write_config(workdir / "config.json", {"detector_check": {"pulses": s["pulses"]}})
        return lambda: _cli("detector-check", "--config", cfg, "--seed", seed,
                            "--out", workdir / "detector")

    if name == "field-map":
        cfg = _write_config(workdir / "config.json", {"contrast_map": {"points": s["points"]}})

        def field_map():
            _cli("contrast-map", "--config", cfg, "--seed", seed, "--out", workdir / "map")
            _cli("reconstruct", "--config", cfg, "--seed", seed,
                 "--input", workdir / "map" / "ratios.csv", "--out", workdir / "field")
        return field_map

    if name == "qkd-ensemble":
        return lambda: _ensemble(seed, s["sessions_per_preset"], s["cycles"])

    raise KeyError(f"unknown workload {name!r}")


def _ensemble(seed: int, sessions: int, cycles: int) -> dict:
    from fwmqkd import session
    from fwmqkd.config import CHANNEL_PRESETS

    rows = []
    for preset in ENSEMBLE_PRESETS:
        base = CHANNEL_PRESETS[preset]
        config = session.SessionConfig(
            message=ENSEMBLE_MESSAGE,
            cycles=cycles,
            lambda_nm=base["lambda_nm"],
            decode_theta=math.radians(base["decode_theta_deg"]),
        )
        channel = session.ChannelModel.from_config(config)
        for k in range(sessions):
            report = session.run_session(replace(config, seed=seed + k), channel=channel)
            rows.append([preset, seed + k, report.decoded_message, report.accuracy,
                         report.convergence_budget, report.total_pulses, report.sift_retention])
    return {"sessions": rows}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def observe(name: str, workdir: Path, returned: dict | None = None) -> dict:
    """Digest of every artifact plus the named fields the oracle checks."""
    workdir = Path(workdir)
    files = {
        p.relative_to(workdir).as_posix(): _sha256(p)
        for p in sorted(workdir.rglob("*")) if p.is_file() and p.name != "config.json"
    }
    fields: dict = {}
    if name == "qkd-long":
        report = _json(workdir / "qkd" / "qkd_report.json")
        fields = {k: report[k] for k in ("decoded_message", "sift_retention", "total_pulses")}
    elif name == "detector-large":
        report = _json(workdir / "detector" / "detector_check.json")
        fields = {
            "pulses": report["pulses"],
            "records": _data_rows(workdir / "detector" / "records.csv"),
            "sipm_roundtrip": [
                [s["sipm_roundtrip_ok"], s["sipm_roundtrip_total"]]
                for _, s in sorted(report["settings"].items())
            ],
        }
    elif name == "field-map":
        residuals = _json(workdir / "field" / "residuals.json")
        fields = {k: residuals[k] for k in ("rms_p_residual", "cells_total", "cells_gap")}
    elif name == "qkd-ensemble":
        fields = {"sessions": (returned or {})["sessions"]}
    return {"files": files, "fields": fields}
