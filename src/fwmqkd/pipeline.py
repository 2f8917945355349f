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
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import reconstruct, session
from ._kernels import BACKEND, STREAM_DETECTOR, pulse_randoms
from .config import ENV_OUTPUT_DIR, attenuation_from, read_utf8, session_config_from
from .errors import ConfigError
from .optics import (SETTINGS, SETTINGS_DEG, intensity_pair, per_field_intensity_pair,
                     polarization_contrast, setting_intensities)
from .photons import (
    contrast_from_tally,
    draw_photon_counts,
    g2_from_tally,
    resolution,
    sipm_roundtrip_ok,
    tally_pairs,
)
from .reconstruct import GridSpec, intensity_ratio, reconstruct_map
from .session import run_session
from .spectral import Condition, ModelParams, field_arrays, signal_spectrum

MANIFEST_NAME = "manifest.json"

# Bytes read per step while a manifest hashes an output, so hashing never
# holds a whole file.
MANIFEST_READ_BYTES = 1 << 20

RATIO_COLUMNS = ["T_fs", "lambda_nm", "gamma_0", "gamma_45"]

# Rows formatted per write.  A chunk's padded byte matrix, its mask and the
# bytes written peak at 4 to 5 x CSV_CHUNK_ROWS x (row width) bytes: 1.9 MiB
# for trajectory.csv's 27-byte rows, 1.1 MiB for records.csv's 17-byte rows
# (tracemalloc).  2^13 to 2^15 rows wrote both files equally fast; 2^16
# wrote records.csv slower, and 2^12 paid more per-chunk overhead.
CSV_CHUNK_ROWS = 1 << 14

# Largest spectra or contrast-map grid: 10x a large (100k-wavelength) map.
MAX_GRID_POINTS = 1_000_000


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


def write_csv(path: Path, header: list[str], blocks: Iterable) -> None:
    """Write blocks of equal-length columns as the rows of one CSV table.

    Each block holds one column per header name, and its rows follow the
    previous block's.  blocks is drawn only once the file is open, so a
    caller can make its rows one block at a time and never hold them all.
    Integers print via str, floats as their shortest round-trip repr
    (float32 and float16 through float()), bools as true/false and strings
    as they are; a float and an integer column therefore differ ("0.0"
    against "0"), so callers keep each column's own type.  Each block is
    checked as it arrives; if one is rejected, or anything else raises while
    the file is written, the partial file is removed.

    The rows are formatted CSV_CHUNK_ROWS at a time, with no Python code per
    row: integer columns become digits by arithmetic on the whole chunk,
    every other column indexes a table of its chunk's distinct values, each
    formatted once.  The cells and separators fill one padded byte matrix,
    and a mask of each cell's length drops the padding before the chunk is
    written.
    """
    with open(path, "wb") as f:
        try:
            f.write((",".join(header) + "\n").encode("utf-8"))
            for block in blocks:
                arrays = _checked_block(path, header, block)
                n_rows = len(arrays[0]) if arrays else 0
                for lo in range(0, n_rows, CSV_CHUNK_ROWS):
                    f.write(_csv_rows([a[lo:lo + CSV_CHUNK_ROWS] for a in arrays]))
        except BaseException:
            f.close()
            path.unlink(missing_ok=True)
            raise


def _checked_block(path: Path, header: list[str], block) -> list[np.ndarray]:
    """A block's columns as arrays, once their count, dtypes and shapes fit."""
    arrays = [np.asarray(column) for column in block]
    if len(arrays) != len(header):
        raise ValueError(f"{path}: a block has {len(arrays)} CSV columns "
                         f"for {len(header)} header names")
    for a in arrays:
        if a.dtype.kind not in "biufU":
            raise TypeError(f"{path}: cannot write a CSV column of dtype {a.dtype}")
    if any(a.ndim != 1 or len(a) != len(arrays[0]) for a in arrays):
        raise ValueError(f"{path}: CSV columns must be 1-D and of equal length")
    return arrays


def _csv_rows(columns: list[np.ndarray]) -> np.ndarray:
    """The UTF-8 bytes of a chunk's CSV rows, as a flat uint8 array.

    Each column settles its cell width first, so the padded matrix of the
    chunk is allocated once and every column writes straight into its slice.
    """
    cells = [_digit_cells(c) if c.dtype.kind in "iu" else _table_cells(c) for c in columns]
    n_rows = len(columns[0])
    width = sum(cell_width + 1 for cell_width, _ in cells)
    text = np.empty((n_rows, width), dtype=np.uint8)
    keep = np.empty((n_rows, width), dtype=bool)
    lo = 0
    for k, (cell_width, fill) in enumerate(cells):
        hi = lo + cell_width
        fill(text[:, lo:hi], keep[:, lo:hi])
        text[:, hi] = ord("\n" if k == len(cells) - 1 else ",")
        keep[:, hi] = True
        lo = hi + 1
    return text[keep]


def _digit_cells(a: np.ndarray):
    """Cell width of an integer column, and a function that writes its
    right-aligned decimal text and the mask of its bytes into a slice.

    Only as many digits are made as the largest magnitude has; the leading
    zeros of shorter values fall outside their length.  The magnitude is
    taken as uint64, which holds every uint64 value and the magnitude of
    -2**63.
    """
    lowest, highest = int(a.min()), int(a.max())
    n_digits = len(str(max(-lowest, highest)))
    width = max(len(str(lowest)), len(str(highest)))

    def fill(text: np.ndarray, keep: np.ndarray) -> None:
        # Negative values wrap modulo 2**64 and are negated back in uint64.
        mag = a.astype(np.uint64)
        if lowest < 0:
            np.negative(mag, out=mag, where=a < 0)
        if max(-lowest, highest) < 2**32:
            mag = mag.astype(np.uint32)  # divides about twice as fast
        digit = np.empty_like(mag)
        lengths = np.ones(a.size, dtype=np.intp)
        for i in range(n_digits):
            np.subtract(mag, mag // 10 * 10, out=digit)
            np.add(digit, ord("0"), out=text[:, width - 1 - i], casting="unsafe")
            mag //= 10
            if i + 1 < n_digits:
                lengths += mag != 0
        if lowest < 0:
            neg = np.flatnonzero(a < 0)
            text[neg, width - 1 - lengths[neg]] = ord("-")
            lengths[neg] += 1
        # Row l of the table keeps the last l bytes of a cell.
        suffix = np.arange(width) >= width - np.arange(width + 1)[:, None]
        keep[...] = np.take(suffix, lengths, axis=0)

    return width, fill


def _table_cells(a: np.ndarray):
    """Cell width of a bool, float or string column, and a function that
    writes its left-aligned UTF-8 text and the mask of its bytes into a
    slice, gathered from a table of the column's distinct values, each
    formatted once.

    Floats are told apart by bit pattern, so -0.0 keeps its own entry.
    """
    if a.dtype.kind == "b":
        index = a.view(np.uint8)
        labels = ["false", "true"]
    elif a.dtype.kind == "f":
        if a.dtype.itemsize > 8:
            a = a.astype(np.float64)
        values, index = np.unique(a.view(f"u{a.dtype.itemsize}"), return_inverse=True)
        labels = map(repr, values.view(a.dtype).tolist())
    else:
        values, index = np.unique(a, return_inverse=True)
        labels = values.tolist()
    encoded = [label.encode("utf-8") for label in labels]
    sizes = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    width = max(1, int(sizes.max()))
    table = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    table_keep = np.arange(width) < sizes[:, None]

    def fill(text: np.ndarray, keep: np.ndarray) -> None:
        text[...] = np.take(table, index, axis=0)
        keep[...] = np.take(table_keep, index, axis=0)

    return width, fill


def write_json(path: Path, payload: dict) -> None:
    """Write payload as indented, key-sorted JSON and a newline, streamed
    to the file piece by piece rather than built as one string."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_manifest(out_dir: Path, command: str, config: dict, seed: int, files: list[Path]) -> Path:
    """Digest every produced file, read MANIFEST_READ_BYTES at a time.
    Deliberately carries no timestamps."""
    from . import __version__

    entries = []
    for f in sorted(files, key=lambda p: p.name):
        digest = hashlib.sha256()
        size = 0
        with open(f, "rb") as fh:
            while data := fh.read(MANIFEST_READ_BYTES):
                digest.update(data)
                size += len(data)
        entries.append({
            "path": f.name,
            "bytes": size,
            "sha256": digest.hexdigest(),
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


def _grid(config: dict, key: str, lo_key: str, hi_key: str) -> np.ndarray:
    """The points-long linspace from config[key][lo_key] to its hi_key.

    The ends must be finite and their span too: past 1.8e308 the step
    overflows and the grid fills with inf and nan.
    """
    section = config[key]
    lo, hi = section[lo_key], section[hi_key]
    if section["points"] < 2:
        raise ConfigError(f"{key}.points must be at least 2")
    if section["points"] > MAX_GRID_POINTS:
        raise ConfigError(f"{key}.points must be at most {MAX_GRID_POINTS:,}, got {section['points']:,}")
    if not lo < hi:
        raise ConfigError(f"{key}.{lo_key} must be below {hi_key}")
    if not all(math.isfinite(v) for v in (lo, hi, hi - lo)):
        raise ConfigError(f"{key}.{lo_key} and {key}.{hi_key} must be finite and less than "
                          f"1.8e308 apart, got {lo!r} and {hi!r}")
    return np.linspace(lo, hi, section["points"])


def _delays(config: dict, key: str) -> list[float]:
    """config[key]["t_list"], once it holds at least one delay, none of them
    negative and none twice as floats (so 0.0 and -0.0 are one delay)."""
    t_list = list(config[key]["t_list"])
    if not t_list or min(t_list) < 0 or len(set(t_list)) < len(t_list):
        raise ConfigError(f"{key}.t_list must be a non-empty list of distinct non-negative "
                          f"delays, got {t_list}")
    return t_list


def run_spectra(config: dict, out_dir: Path) -> list[Path]:
    """One CSV per (delay, tensor condition) over the detection-energy grid."""
    section = config["spectra"]
    params = ModelParams(**config["model"])
    energies = _grid(config, "spectra", "e_min", "e_max")
    conditions = [Condition.from_string(name) for name in section["conditions"]]
    t_list = _delays(config, "spectra")
    if not conditions:
        raise ConfigError("spectra.conditions must not be empty")

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
        write_csv(path, ["E_det", "Re", "Im", "intensity"],
                  [[energies, s.real, s.imag, np.abs(s) ** 2]])
        files.append(path)
    return files


def run_contrast_map(config: dict, out_dir: Path) -> list[Path]:
    """Contrast P(T, lambda, theta) in long form, plus the ratio table.

    ratios.csv uses the exact column layout the reconstruct command reads,
    so the two commands chain without editing.
    """
    params = ModelParams(**config["model"])
    xi = config["grid"]["xi"]
    lams = _grid(config, "contrast_map", "lambda_min", "lambda_max")
    if np.unique(lams).size < lams.size:  # ratios.csv would repeat a (T, lambda) cell
        raise ConfigError("contrast_map.points gives wavelengths that round together "
                          "between lambda_min and lambda_max")
    t_list = _delays(config, "contrast_map")

    contrasts = []
    gammas = []
    for t in t_list:
        a_h, a_v, phi = field_arrays(t, lams, params)
        for theta in SETTINGS:
            i_h, i_v = intensity_pair(a_h, a_v, phi, theta)
            contrasts.append(polarization_contrast(i_h, i_v))
            gammas.append(intensity_ratio(i_h, i_v, xi))
    # Rows run over delays, then (map only) the two settings, then wavelengths.
    n_t, n = len(t_list), lams.size

    out_dir.mkdir(parents=True, exist_ok=True)
    map_path = out_dir / "contrast_map.csv"
    write_csv(map_path, ["T_fs", "lambda_nm", "theta_deg", "P"], [[
        np.repeat(t_list, 2 * n),
        np.tile(lams, 2 * n_t),
        np.tile(np.repeat(SETTINGS_DEG, n), n_t),
        np.concatenate(contrasts),
    ]])
    ratio_path = out_dir / "ratios.csv"
    write_csv(ratio_path, RATIO_COLUMNS, [[
        np.repeat(t_list, n),
        np.tile(lams, n_t),
        np.concatenate(gammas[0::2]),
        np.concatenate(gammas[1::2]),
    ]])
    return [map_path, ratio_path]


def _read_ratio_csv(path: Path) -> np.ndarray:
    """Parse a ratio table into an (n, 4) float64 array, one row per data
    line, enforcing the exact four-column schema and finite T_fs and
    lambda_nm.  Blank lines are skipped; messages give a line's number in
    the file."""
    text = read_utf8(path, "input")
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ConfigError(f"input {path} is empty")
    header = [c.strip() for c in lines[0][1].split(",")]
    if header != RATIO_COLUMNS:
        missing = [c for c in RATIO_COLUMNS if c not in header]
        extra = [c for c in header if c not in RATIO_COLUMNS]
        parts = [f"{label}: {', '.join(cols)}" for label, cols in
                 (("missing columns", missing), ("unexpected columns", extra)) if cols]
        parts = parts or [f"column order must be {', '.join(RATIO_COLUMNS)}"]
        raise ConfigError(f"input {path} does not match the ratio schema ({'; '.join(parts)})")
    data = lines[1:]
    if not data:
        raise ConfigError(f"input {path} has a header but no data rows")
    rows = np.empty((len(data), 4))
    for i, (n, line) in enumerate(data):
        cells = line.split(",")
        if len(cells) != 4:
            raise ConfigError(f"input {path} line {n}: expected 4 cells, got {len(cells)}")
        try:
            rows[i] = [float(c) for c in cells]
        except ValueError:
            raise ConfigError(f"input {path} line {n}: non-numeric cell") from None
    bad_key = ~np.isfinite(rows[:, :2]).all(axis=1)
    if bad_key.any():
        n = data[np.argmax(bad_key)][0]
        raise ConfigError(f"input {path} line {n}: T_fs and lambda_nm must be finite")
    return rows


def run_reconstruct(config: dict, out_dir: Path, input_path: str | None = None) -> list[Path]:
    """Invert a measured ratio table into a field map over its (T, lambda) grid.

    The grid is every distinct T by every distinct lambda, each spelled as in
    its first row (0.0 or -0.0); absent cells and cells with a ratio that is
    negative, non-finite or above reconstruct.MAX_RATIO are written as
    explicit gaps rather than interpolated.
    residuals.json compares the contrast implied by the input ratios against
    the contrast of the reconstructed fields at both wave plate settings.
    """
    source = input_path if input_path is not None else config["reconstruct"]["input"]
    if not source:
        raise ConfigError("reconstruct needs an input ratio table (--input or reconstruct.input)")
    rows = _read_ratio_csv(Path(source))

    _, t_first, t_of = np.unique(rows[:, 0], return_index=True, return_inverse=True)
    _, lam_first, lam_of = np.unique(rows[:, 1], return_index=True, return_inverse=True)
    t_values, lam_values = rows[t_first, 0], rows[lam_first, 1]
    n_cells = t_values.size * lam_values.size
    cell = t_of * lam_values.size + lam_of
    # Rows that are not the first of their cell, in file order.
    repeated = np.setdiff1d(np.arange(cell.size), np.unique(cell, return_index=True)[1])
    if repeated.size:
        t, lam = rows[repeated[0], :2].tolist()
        raise ConfigError(f"input has duplicate rows for T={t:g}, lambda={lam:g}")

    gamma = np.full((n_cells, 2), np.nan)
    gamma[cell] = rows[:, 2:]
    # NaN fails both compares, so a missing or non-finite ratio is a gap too.
    live = ((gamma >= 0) & (gamma <= reconstruct.MAX_RATIO)).all(axis=1)
    pairs = gamma[live]
    grid = GridSpec(**config["grid"])
    fields = np.full((4, n_cells), np.nan)  # A_H, A_V, phi, SE; NaN in gaps
    status = np.full(n_cells, "gap", dtype="U5")
    residuals = np.empty_like(pairs)
    if live.any():
        result = reconstruct_map(pairs, grid)
        fields[:, live] = result.a_h, result.a_v, result.phi, result.se
        status[live] = np.where(result.degenerate, "true", "false")
        # Residuals in blocks of cells, as the ratio tables are built, so
        # the optics temporaries follow the block; every step is elementwise.
        block = reconstruct.RATIO_TABLE_BLOCK_CELLS
        for lo in range(0, len(pairs), block):
            cut = slice(lo, lo + block)
            p_meas = 2.0 * pairs[cut] * (1.0 + grid.xi) / (1.0 + pairs[cut]) - 1.0
            for s, theta in enumerate(SETTINGS):
                residuals[cut, s] = np.abs(polarization_contrast(*per_field_intensity_pair(
                    result.a_h[cut], result.a_v[cut], result.phi[cut], theta)) - p_meas[:, s])

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "reconstruction.csv"
    write_csv(csv_path, ["T_fs", "lambda_nm", "A_H", "A_V", "phi", "SE", "degenerate"],
              [[np.repeat(t_values, lam_values.size), np.tile(lam_values, t_values.size),
                *fields, status]])
    residual_path = out_dir / "residuals.json"
    write_json(residual_path, {
        "cells_total": n_cells,
        "cells_gap": n_cells - len(pairs),
        "cells_degenerate": int(np.count_nonzero(status == "true")),
        "max_abs_p_residual": float(residuals.max()) if residuals.size else None,
        "rms_p_residual": (math.sqrt(math.fsum(np.square(residuals).flat) / residuals.size)
                           if residuals.size else None),
    })
    return [csv_path, residual_path]


def run_qkd(config: dict, seed: int, out_dir: Path) -> list[Path]:
    """Full session: report JSON, per-bit decode trajectory, decoded snapshots."""
    session_config = session_config_from(config, seed)
    report = run_session(session_config)

    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "qkd_report.json"
    write_json(report_path, report.to_dict())

    # One row per slot and budget at which the slot's decode state changes,
    # each marked with whether its estimate matches the slot's bit.
    traj_path = out_dir / "trajectory.csv"
    bits = report.bits
    write_csv(traj_path, ["bit_index", "photons", "contrast", "estimate", "correct"],
              ([slot, photons, contrast, estimate, estimate == bits[slot]]
               for slot, _, photons, contrast, estimate in report.trajectory.change_rows()))

    snap_path = out_dir / "snapshots.txt"
    snap_lines = [
        f"photons_per_bit={b} retained_mean={float(r)!r} decoded={text}"
        for b, r, text in report.snapshots
    ]
    snap_path.write_text("\n".join(snap_lines) + "\n", encoding="utf-8", newline="\n")
    return [report_path, traj_path, snap_path]


def run_detector_check(config: dict, seed: int, out_dir: Path) -> list[Path]:
    """Exercise the photon pipeline at both wave plate settings.

    Counts, the SiPM voltage roundtrip, the measured g2 and the contrast
    resolution between the settings land in one JSON report; every simulated
    pulse is logged to records.csv.  Pulses are drawn, read out, tallied and
    written one block of session.BLOCK_PULSES at a time, so memory follows
    the block, not the pulse count; the generator is positional, so the
    block size never changes a byte.  A setting in which no pulse saw a
    photon is rejected once its rows are written; write_csv removes the file.
    """
    section = config["detector_check"]
    params = ModelParams(**config["model"])
    pulses = section["pulses"]
    if pulses < 1:
        raise ConfigError("detector_check.pulses must be at least 1")
    attenuation = attenuation_from(section)
    # Above this bound the per-record float sums behind g2 could round, and
    # the exact tally would no longer reproduce them.
    n_max = 2 * attenuation.max_photons
    if pulses * n_max * (n_max - 1) >= 2**53:
        raise ConfigError("detector_check.pulses x n_max(n_max-1) must stay below 2^53, "
                          "with n_max = 2 x max_photons")
    t = section["t"]
    ports = setting_intensities(*field_arrays(t, [section["lambda_nm"]], params))[0].tolist()
    settings = {
        f"theta_{theta_deg}": {
            "theta_deg": theta_deg, "i_h": i_h, "i_v": i_v,
            "gamma": float(intensity_ratio(i_h, i_v, config["grid"]["xi"])),
            "clamped_pulses": 0, "sipm_roundtrip_ok": 0, "sipm_roundtrip_total": 2 * pulses,
        } for theta_deg, (i_h, i_v) in zip(SETTINGS_DEG, ports)
    }
    stats = []

    def record_blocks():
        block = session.BLOCK_PULSES
        for idx, record in enumerate(settings.values()):
            tally = Counter()
            for a in range(0, pulses, block):
                m = min(block, pulses - a)
                start = idx * pulses + a
                n_h, n_v, _, clamp = draw_photon_counts(record["i_h"], record["i_v"], attenuation,
                                                        seed, STREAM_DETECTOR, start, m)
                noise = pulse_randoms(seed, STREAM_DETECTOR, (2 + idx) * pulses + a, m)
                record["sipm_roundtrip_ok"] += (sipm_roundtrip_ok(n_h, noise[1])
                                                + sipm_roundtrip_ok(n_v, noise[2]))
                record["clamped_pulses"] += int(np.count_nonzero(clamp))
                tally.update(tally_pairs(n_h, n_v))
                yield [np.arange(start, start + m), np.broadcast_to(t, m),
                       np.broadcast_to(record["theta_deg"], m), n_h, n_v]
            stats.append(contrast_from_tally(tally))
            record["stats"] = {**stats[-1].to_dict(), "g2_measured": g2_from_tally(tally)}

    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    write_csv(records_path, ["pulse_index", "T_fs", "theta_deg", "n_H", "n_V"], record_blocks())
    sep = resolution(*stats)
    json_path = out_dir / "detector_check.json"
    write_json(json_path, {
        "pulses": pulses,
        "backend": BACKEND,
        "seed": seed,
        "config": dict(section),
        "settings": settings,
        "resolution": {
            "value": sep.value if math.isfinite(sep.value) else None,
            "saturated": sep.saturated,
        },
    })
    return [json_path, records_path]
