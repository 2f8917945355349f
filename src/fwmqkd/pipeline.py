"""File-producing runs behind the command line interface.

Every run writes its tables as CSV (LF line endings, '.' decimals, shortest
round-trip float formatting) plus a manifest.json naming each output with
its SHA-256 digest.  Nothing time-dependent goes into the files, so
recreating a run with the same config and seed reproduces every byte,
manifest included.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from ._kernels import BACKEND, STREAM_DETECTOR, pulse_randoms
from .config import ENV_OUTPUT_DIR, attenuation_from, grid_spec_from, model_params_from, session_config_from
from .errors import ConfigError
from .optics import detected_intensities, intensity_pair, polarization_contrast
from .photons import (
    accumulate_contrast,
    compute_g2,
    draw_photon_counts,
    emulate_sipm,
    invert_sipm,
    resolution,
)
from .reconstruct import THETA_MIX, THETA_SPLIT, intensity_ratio, reconstruct_map
from .session import run_session
from .spectral import Condition, field_arrays, field_components, signal_spectrum

MANIFEST_NAME = "manifest.json"

RATIO_COLUMNS = ["T_fs", "lambda_nm", "gamma_0", "gamma_45"]

# Rows formatted per write: large enough that the per-chunk overhead is
# negligible, small enough that the formatted rows of one chunk (Python lists,
# tuples and text, about 400 B a row) stay near 1.6 MB.  Larger chunks, and
# bool columns turned to text whole, made the peak memory of a long qkd run
# swing by several MiB from run to run; 2^12 rows cost no speed.
CSV_CHUNK_ROWS = 1 << 12


def resolve_output_dir(cli_out: str | None, config: dict, command: str) -> Path:
    """Pick the output directory: --out, FWMQKD_OUTPUT_DIR, config, then cwd."""
    if cli_out is not None:
        return Path(cli_out)
    env = os.environ.get(ENV_OUTPUT_DIR)
    if env:
        base = Path(env)
    elif config.get("output_dir"):
        base = Path(config["output_dir"])
    else:
        base = Path(".")
    return base / f"fwmqkd_{command.replace('-', '_')}"


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns as CSV rows, CSV_CHUNK_ROWS rows at a time.

    Each column is converted to an array once and gets one printf code:
    floats print as their shortest round-trip repr, integers and strings via
    str, and bools as true/false, mapped one chunk at a time.  A float and
    an integer column therefore differ ("0.0" against "0"), so callers keep
    each column's own type.
    """
    arrays = [np.asarray(column) for column in columns]
    codes = ["%r" if a.dtype.kind == "f" else "%s" for a in arrays]
    template = ",".join(codes) + "\n"
    n_rows = len(arrays[0]) if arrays else 0
    if any(len(a) != n_rows for a in arrays):
        raise ValueError(f"{path}: CSV columns differ in length")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, n_rows, CSV_CHUNK_ROWS):
            chunk = [a[lo:lo + CSV_CHUNK_ROWS] for a in arrays]
            chunk = [(np.where(c, "true", "false") if c.dtype.kind == "b" else c).tolist()
                     for c in chunk]
            f.write("".join(map(template.__mod__, zip(*chunk))))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def write_manifest(out_dir: Path, command: str, config: dict, seed: int, files: list[Path]) -> Path:
    """Digest every produced file.  Deliberately carries no timestamps."""
    from . import __version__

    entries = []
    for f in sorted(files, key=lambda p: p.name):
        data = f.read_bytes()
        entries.append({
            "path": f.name,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })
    config_blob = json.dumps(config, sort_keys=True).encode("utf-8")
    manifest = out_dir / MANIFEST_NAME
    write_json(manifest, {
        "command": command,
        "artifact_version": __version__,
        "backend": BACKEND,
        "seed": seed,
        "config": config,
        "config_sha256": hashlib.sha256(config_blob).hexdigest(),
        "outputs": entries,
    })
    return manifest


def _energy_grid(section: dict) -> np.ndarray:
    if section["points"] < 2:
        raise ConfigError("spectra.points must be at least 2")
    if not section["e_min"] < section["e_max"]:
        raise ConfigError("spectra.e_min must be below e_max")
    return np.linspace(section["e_min"], section["e_max"], int(section["points"]))


def _wavelength_grid(section: dict) -> np.ndarray:
    if section["points"] < 2:
        raise ConfigError("a wavelength grid needs at least 2 points")
    if not section["lambda_min"] < section["lambda_max"]:
        raise ConfigError("lambda_min must be below lambda_max")
    return np.linspace(section["lambda_min"], section["lambda_max"], int(section["points"]))


def run_spectra(config: dict, out_dir: Path) -> list[Path]:
    """One CSV per (delay, tensor condition) over the detection-energy grid."""
    section = config["spectra"]
    params = model_params_from(config)
    energies = _energy_grid(section)
    conditions = [Condition.from_string(name) for name in section["conditions"]]
    t_list = list(section["t_list"])
    if not t_list:
        raise ConfigError("spectra.t_list must not be empty")

    # File names print the delay with {t:g}, so distinct delays can share a
    # name; reject that before writing rather than overwrite a table.
    tables = {}
    for t in t_list:
        for cond in conditions:
            name = f"spectra_{cond.value}_T{t:g}.csv"
            if name in tables:
                prev_t, prev_cond = tables[name]
                raise ConfigError(
                    f"spectra for T={prev_t!r} {prev_cond.value} and T={t!r} {cond.value} "
                    f"would both be written to {name}"
                )
            tables[name] = (t, cond)

    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for name, (t, cond) in tables.items():
        s = signal_spectrum(t, energies, cond, params)
        path = out_dir / name
        write_csv(
            path,
            ["E_det", "Re", "Im", "intensity"],
            [energies, s.real, s.imag, np.abs(s) ** 2],
        )
        files.append(path)
    return files


def run_contrast_map(config: dict, out_dir: Path) -> list[Path]:
    """Contrast P(T, lambda, theta) in long form, plus the ratio table.

    ratios.csv uses the exact column layout the reconstruct command reads,
    so the two commands chain without editing.
    """
    section = config["contrast_map"]
    params = model_params_from(config)
    xi = grid_spec_from(config).xi
    lams = _wavelength_grid(section)
    t_list = list(section["t_list"])
    if not t_list:
        raise ConfigError("contrast_map.t_list must not be empty")

    contrasts = []
    gammas = []
    for t in t_list:
        a_h, a_v, phi = field_arrays(t, lams, params)
        for theta in (THETA_SPLIT, THETA_MIX):
            i_h, i_v = intensity_pair(a_h, a_v, phi, theta)
            contrasts.append(polarization_contrast(i_h, i_v))
            gammas.append(intensity_ratio(i_h, i_v, xi))
    # Rows run over delays, then (map only) the two settings, then wavelengths.
    n_t, n = len(t_list), lams.size

    out_dir.mkdir(parents=True, exist_ok=True)
    map_path = out_dir / "contrast_map.csv"
    write_csv(map_path, ["T_fs", "lambda_nm", "theta_deg", "P"], [
        np.repeat(t_list, 2 * n),
        np.tile(lams, 2 * n_t),
        np.tile(np.repeat([0, 45], n), n_t),
        np.concatenate(contrasts),
    ])
    ratio_path = out_dir / "ratios.csv"
    write_csv(ratio_path, RATIO_COLUMNS, [
        np.repeat(t_list, n),
        np.tile(lams, n_t),
        np.concatenate(gammas[0::2]),
        np.concatenate(gammas[1::2]),
    ])
    return [map_path, ratio_path]


def _read_ratio_csv(path: Path) -> list[tuple[float, float, float, float]]:
    """Parse a ratio table, enforcing the exact four-column schema."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigError(f"input {path} is empty")
    header = [c.strip() for c in lines[0].split(",")]
    if header != RATIO_COLUMNS:
        missing = [c for c in RATIO_COLUMNS if c not in header]
        extra = [c for c in header if c not in RATIO_COLUMNS]
        parts = []
        if missing:
            parts.append(f"missing columns: {', '.join(missing)}")
        if extra:
            parts.append(f"unexpected columns: {', '.join(extra)}")
        if not parts:
            parts.append(f"column order must be {', '.join(RATIO_COLUMNS)}")
        raise ConfigError(f"input {path} does not match the ratio schema ({'; '.join(parts)})")
    if len(lines) == 1:
        raise ConfigError(f"input {path} has a header but no data rows")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 4:
            raise ConfigError(f"input {path} line {ln}: expected 4 cells, got {len(cells)}")
        try:
            rows.append(tuple(float(c) for c in cells))
        except ValueError:
            raise ConfigError(f"input {path} line {ln}: non-numeric cell") from None
    return rows


def run_reconstruct(config: dict, out_dir: Path, input_path: str | None = None,
                    threads: int = 1) -> list[Path]:
    """Invert a measured ratio table into a field map over its (T, lambda) grid.

    The input grid is rebuilt from the distinct T and lambda values present;
    cells that are absent or carry non-finite ratios are written as explicit
    gaps rather than interpolated.  residuals.json compares the contrast
    implied by the input ratios against the contrast of the reconstructed
    fields at both wave plate settings.
    """
    source = input_path if input_path is not None else config["reconstruct"]["input"]
    if not source:
        raise ConfigError("reconstruct needs an input ratio table (--input or reconstruct.input)")
    rows = _read_ratio_csv(Path(source))

    t_values = sorted({r[0] for r in rows})
    lam_values = sorted({r[1] for r in rows})
    cell = {}
    for t, lam, g0, g45 in rows:
        key = (t, lam)
        if key in cell:
            raise ConfigError(f"input has duplicate rows for T={t:g}, lambda={lam:g}")
        cell[key] = (g0, g45)

    keys = [(t, lam) for t in t_values for lam in lam_values]
    live_keys = [
        k for k in keys
        if k in cell and all(math.isfinite(g) and g >= 0 for g in cell[k])
    ]
    grid = grid_spec_from(config)
    pairs = np.asarray([cell[k] for k in live_keys], dtype=np.float64)
    results = dict(zip(live_keys, reconstruct_map(pairs, grid, threads=threads)
                       if live_keys else []))

    out_rows = []
    ports = []
    p_meas = []
    n_degenerate = 0
    for key in keys:
        t, lam = key
        res = results.get(key)
        if res is None:
            out_rows.append([t, lam, math.nan, math.nan, math.nan, math.nan, "gap"])
            continue
        rec = res.field
        n_degenerate += int(res.degenerate)
        out_rows.append([t, lam, rec.a_h, rec.a_v, rec.phi, res.se,
                         "true" if res.degenerate else "false"])
        for col, theta in ((0, THETA_SPLIT), (1, THETA_MIX)):
            gamma = cell[key][col]
            p_meas.append(2.0 * gamma * (1.0 + grid.xi) / (1.0 + gamma) - 1.0)
            # Scalar on purpose: the array evaluation differs in the last bit.
            ports.append(intensity_pair(rec.a_h, rec.a_v, rec.phi, theta))
    i_h, i_v = np.reshape(ports, (-1, 2)).T
    residuals = np.abs(polarization_contrast(i_h, i_v) - np.array(p_meas)).tolist()

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "reconstruction.csv"
    write_csv(
        csv_path,
        ["T_fs", "lambda_nm", "A_H", "A_V", "phi", "SE", "degenerate"],
        list(zip(*out_rows)),
    )
    residual_path = out_dir / "residuals.json"
    write_json(residual_path, {
        "cells_total": len(keys),
        "cells_gap": len(keys) - len(live_keys),
        "cells_degenerate": n_degenerate,
        "max_abs_p_residual": max(residuals) if residuals else None,
        "rms_p_residual": _rms(residuals),
    })
    return [csv_path, residual_path]


def _rms(values: list[float]) -> float | None:
    if not values:
        return None
    return math.sqrt(math.fsum(v * v for v in values) / len(values))


def run_qkd(config: dict, seed: int, out_dir: Path) -> list[Path]:
    """Full session: report JSON, per-bit decode trajectory, decoded snapshots."""
    session_config = session_config_from(config, seed)
    report = run_session(session_config)
    traj = report.trajectory

    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "qkd_report.json"
    write_json(report_path, report.to_dict())

    traj_path = out_dir / "trajectory.csv"
    write_csv(
        traj_path,
        ["bit_index", "photons", "contrast", "estimate", "correct"],
        _per_bit_columns(traj, report.bits),
    )

    snap_path = out_dir / "snapshots.txt"
    snap_lines = [
        f"photons_per_bit={b} retained_mean={float(r)!r} decoded={text}"
        for b, r, text in report.snapshots
    ]
    snap_path.write_text("\n".join(snap_lines) + "\n", encoding="utf-8", newline="\n")
    return [report_path, traj_path, snap_path]


def _per_bit_columns(traj, bits):
    """Per-slot decode history: the trajectory's state-change rows, each
    marked with whether its estimate matches the slot's bit."""
    est = traj.change_estimate
    return [traj.change_slot, traj.change_photons, traj.change_contrast, est,
            est == bits[traj.change_slot]]


def run_detector_check(config: dict, seed: int, out_dir: Path) -> list[Path]:
    """Exercise the photon pipeline at both wave plate settings.

    Counts, the SiPM voltage roundtrip, the measured g2 and the contrast
    resolution between the settings land in one JSON report; every simulated
    pulse is logged to records.csv.
    """
    section = config["detector_check"]
    params = model_params_from(config)
    pulses = int(section["pulses"])
    if pulses < 1:
        raise ConfigError("detector_check.pulses must be at least 1")
    attenuation = attenuation_from(section)
    t = float(section["t"])
    fld = field_components(t, section["lambda_nm"], params)

    payload = {
        "pulses": pulses,
        "backend": BACKEND,
        "seed": seed,
        "config": dict(section),
        "settings": {},
    }
    stats = {}
    records = []
    for idx, (theta_deg, theta) in enumerate(((0, THETA_SPLIT), (45, THETA_MIX))):
        i_h, i_v = detected_intensities(fld, theta)
        start = idx * pulses
        batch = draw_photon_counts(
            i_h, i_v, attenuation, seed,
            count=pulses, start=start, stream=STREAM_DETECTOR,
        )
        noise = pulse_randoms(seed, STREAM_DETECTOR, (2 + idx) * pulses, pulses)
        volts_h = emulate_sipm(batch.n_h, noise_u=noise[1])
        volts_v = emulate_sipm(batch.n_v, noise_u=noise[2])
        roundtrip_ok = int(
            np.count_nonzero(invert_sipm(volts_h) == batch.n_h)
            + np.count_nonzero(invert_sipm(volts_v) == batch.n_v)
        )
        stats[theta_deg] = accumulate_contrast(batch.n_h, batch.n_v)
        setting_stats = stats[theta_deg].to_dict()
        setting_stats["g2_measured"] = compute_g2(batch.n_h + batch.n_v)
        payload["settings"][f"theta_{theta_deg}"] = {
            "theta_deg": theta_deg,
            "i_h": i_h,
            "i_v": i_v,
            "gamma": float(intensity_ratio(i_h, i_v)),
            "clamped_pulses": int(batch.clamped.sum()),
            "sipm_roundtrip_ok": roundtrip_ok,
            "sipm_roundtrip_total": 2 * pulses,
            "stats": setting_stats,
        }
        records.append([np.arange(start, start + pulses), np.full(pulses, t),
                        np.full(pulses, theta_deg), batch.n_h, batch.n_v])
    sep = resolution(stats[0], stats[45])
    payload["resolution"] = {
        "value": sep.value if math.isfinite(sep.value) else None,
        "saturated": sep.saturated,
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "detector_check.json"
    write_json(json_path, payload)
    records_path = out_dir / "records.csv"
    write_csv(records_path, ["pulse_index", "T_fs", "theta_deg", "n_H", "n_V"],
              [np.concatenate(parts) for parts in zip(*records)])
    return [json_path, records_path]
