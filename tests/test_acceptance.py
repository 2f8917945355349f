"""Release acceptance gate.

One test per shipped criterion, each checked at its stated tolerance and
budgeted runtime.  Every test prints a single verdict line; run pytest with
-s to see them all at once.

The final band test is expected to fail and is kept failing on purpose: the
coefficient table pins the split-setting calibration gap at 1.83, outside
the nominal 1.3 band, and recording that mismatch honestly beats widening
the band until it passes.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from scipy.optimize import brentq, minimize_scalar

from conftest import setting_ratios, tree_bytes
from fwmqkd._kernels import STREAM_DETECTOR
from fwmqkd.config import load_config
from fwmqkd.optics import SETTINGS, intensity_pair, setting_intensities
from fwmqkd.photons import (
    AttenuationConfig,
    accumulate_contrast,
    draw_photon_counts,
    g2_from_tally,
    resolution,
    tally_pairs,
)
from fwmqkd.pipeline import run_contrast_map, run_reconstruct
from fwmqkd.reconstruct import DEFAULT_GRID, THETA_MIX, THETA_SPLIT, intensity_ratio, reconstruct_map
from fwmqkd.session import ChannelModel, SessionConfig, run_session
from fwmqkd.spectral import Condition, DEFAULT_PARAMS, field_arrays, hilbert_of_gaussian, signal_spectrum

BASE_SEED = 20260814


def _verdict(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_acceptance_1_model_identities():
    t0 = time.perf_counter()
    grid = np.linspace(-6.0, 6.0, 2048)
    p = DEFAULT_PARAMS
    worst = 0.0
    for t in (0.0, 137.0, 500.0):
        rrrr = signal_spectrum(t, grid, Condition.RRRR, p)
        rrll = signal_spectrum(t, grid, Condition.RRLL, p)
        rrvv = signal_spectrum(t, grid, Condition.RRVV, p)
        rrvh = signal_spectrum(t, grid, Condition.RRVH, p)
        worst = max(
            worst,
            np.abs(rrrr + rrll - 2.0 * rrvv).max() / np.abs(rrvv).max(),
            np.abs(rrvh - 0.5j * (rrll - rrrr)).max() / np.abs(rrvh).max(),
        )
    base = signal_spectrum(0.0, grid, Condition.RRVH, p)
    for t in (50.0, 250.0, 1000.0):
        decayed = signal_spectrum(t, grid, Condition.RRVH, p)
        scale = np.abs(decayed).max()
        worst = max(
            worst, np.abs(decayed - base * math.exp(-p.k_spin * t)).max() / scale
        )
    drift = np.abs(
        signal_spectrum(750.0, grid, Condition.RRVV, p)
        - signal_spectrum(0.0, grid, Condition.RRVV, p)
    ).max()
    worst = max(worst, drift)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"combination/decay/stationarity identities, worst relative error "
        f"{worst:.2e} (tol 1e-12), {elapsed:.2f}s (budget 1s)",
    )


def test_acceptance_2_hilbert_transform_against_fft_oracle():
    t0 = time.perf_counter()
    n_fft = 1 << 22
    span = 4096.0
    x = (np.arange(n_fft) - n_fft // 2) * (2.0 * span / n_fft)
    analytic = scipy.signal.hilbert(np.exp(-x * x / 2.0))
    half = 1 << 13
    window = slice(n_fft // 2 - half, n_fft // 2 + half)
    ref = np.imag(analytic[window])
    got = hilbert_of_gaussian(x[window], 0, DEFAULT_PARAMS)
    err = float(np.max(np.abs(got - ref)))
    n_pts = got.size
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-6 and n_pts == (1 << 14) and elapsed < 5.0
    _verdict(
        2,
        ok,
        f"dispersive part vs FFT analytic signal on {n_pts} points spanning "
        f"+/-16 widths, max abs error {err:.2e} (tol 1e-6), {elapsed:.2f}s (budget 5s)",
    )


def test_acceptance_3_mixed_condition_peaks_and_crossing():
    t0 = time.perf_counter()

    def inten(cond, e):
        return np.abs(signal_spectrum(0.0, np.atleast_1d(e), cond, DEFAULT_PARAMS)) ** 2

    grid = np.linspace(-20.0, 20.0, 80001)
    i_vh = inten(Condition.RRVH, grid)
    i_vv = inten(Condition.RRVV, grid)

    def refine_peak(cond, coarse):
        res = minimize_scalar(
            lambda e: -inten(cond, e)[0],
            bounds=(coarse - 0.01, coarse + 0.01),
            method="bounded",
            options={"xatol": 1e-12},
        )
        return float(res.x), float(-res.fun)

    peak_vh, height_vh = refine_peak(Condition.RRVH, grid[np.argmax(i_vh)])
    peak_vv, height_vv = refine_peak(Condition.RRVV, grid[np.argmax(i_vv)])

    tail = grid <= -4.0
    tail_dominant = bool(np.all(i_vh[tail] > i_vv[tail]))

    def norm_diff(e):
        return inten(Condition.RRVH, e)[0] / height_vh - inten(Condition.RRVV, e)[0] / height_vv

    cross_lo = brentq(norm_diff, 0.0, 0.5, xtol=1e-12)
    cross_hi = brentq(norm_diff, 3.0, 4.5, xtol=1e-12)

    elapsed = time.perf_counter() - t0
    ok = (
        peak_vh < peak_vv
        and abs(peak_vh - (-0.6327866834978360)) < 1e-6
        and abs(peak_vv - 0.7743804937383062) < 1e-6
        and tail_dominant
        and abs(cross_lo - 0.1068370468000398) < 1e-9
        and abs(cross_hi - 3.8712161627235946) < 1e-9
        and elapsed < 10.0
    )
    _verdict(
        3,
        ok,
        f"cross-pol peak {peak_vh:+.6g} below co-pol peak {peak_vv:+.6g}, "
        f"low-tail dominance {tail_dominant}, unit-peak crossings at "
        f"{cross_lo:.12f} and {cross_hi:.12f} (frozen constants), {elapsed:.2f}s",
    )


def test_acceptance_4_reconstruction_roundtrip():
    t0 = time.perf_counter()
    grid = DEFAULT_GRID
    psi_axis, phi_axis = grid.psi_axis(), grid.phi_axis()

    truths = []
    for i in range(10, 315, 10):
        a_h, a_v = math.sin(psi_axis[i]), math.cos(psi_axis[i])
        if a_h * a_v <= 0.05:
            continue
        for j in range(5, 315, 12):
            truths.append((i, j))
    i, j = np.array(truths).T
    result = reconstruct_map(np.column_stack(setting_ratios(
        [math.sin(psi_axis[k]) for k in i], [math.cos(psi_axis[k]) for k in i], phi_axis[j])))
    misses = int(np.sum((abs(result.psi - psi_axis[i]) > grid.psi_step)
                        | (abs(result.phi - phi_axis[j]) > grid.phi_step)))

    rng = np.random.default_rng(BASE_SEED)
    psi_true = math.radians(40.0)
    ports = [[float(port[0]) for port in
              intensity_pair([math.sin(psi_true)], [math.cos(psi_true)], [0.6], theta)]
             for theta in SETTINGS]
    noisy = []
    for _ in range(1000):
        gammas = []
        for i_h, i_v in ports:
            i_h *= 1.0 + rng.normal(0.0, 0.01)
            i_v *= 1.0 + rng.normal(0.0, 0.01)
            gammas.append(intensity_ratio(max(i_h, 0.0), max(i_v, 0.0), DEFAULT_GRID.xi))
        noisy.append(gammas)
    median_err = float(np.median(abs(reconstruct_map(noisy).phi - 0.6)))

    elapsed = time.perf_counter() - t0
    ok = (
        len(truths) >= 500
        and misses == 0
        and median_err <= 0.05
        and elapsed < 60.0
    )
    _verdict(
        4,
        ok,
        f"{len(truths)} lattice truths recovered within one grid step "
        f"({misses} misses), 1% noise median phi error {median_err:.4f} "
        f"(tol 0.05), {elapsed:.1f}s (budget 60s)",
    )


def test_acceptance_5_self_generated_map_residuals(tmp_path):
    t0 = time.perf_counter()
    config = load_config(None)
    map_dir = tmp_path / "map"
    rec_dir = tmp_path / "rec"
    run_contrast_map(config, map_dir)
    run_reconstruct(config, rec_dir, input_path=map_dir / "ratios.csv")
    residuals = json.loads((rec_dir / "residuals.json").read_text())
    elapsed = time.perf_counter() - t0
    ok = (
        residuals["cells_gap"] == 0
        and residuals["max_abs_p_residual"] < 0.05
        and elapsed < 60.0
    )
    _verdict(
        5,
        ok,
        f"self-generated map of {residuals['cells_total']} cells, max abs "
        f"contrast residual {residuals['max_abs_p_residual']:.2e} "
        f"(tol 0.05, rms {residuals['rms_p_residual']:.2e}), {elapsed:.1f}s",
    )


def test_acceptance_6_photon_statistics():
    t0 = time.perf_counter()
    seed, start = 777, 0

    g2_errs = {}
    corr = None
    for target in (1.0, 1.2, 1.5):
        cfg = AttenuationConfig(mean_total_photons=1.0, g2_target=target)
        n_h, n_v, _, _ = draw_photon_counts(0.5, 0.5, cfg, seed, STREAM_DETECTOR, start,
                                            1_000_000)
        start += 1_000_000
        g2_errs[target] = g2_from_tally(tally_pairs(n_h, n_v)) - target
        if target == 1.0:
            corr = float(np.corrcoef(n_h, n_v)[0, 1])

    i_split, i_mix = setting_intensities(*field_arrays(0.0, [540.0], DEFAULT_PARAMS))[0].tolist()
    cfg = AttenuationConfig(mean_total_photons=1.0, g2_target=1.0)
    sizes = (100, 1000, 10_000, 100_000)
    sig_means, res_means = [], []
    for m in sizes:
        sigs, ress = [], []
        for _ in range(8):
            a = draw_photon_counts(i_split[0], i_split[1], cfg, seed, STREAM_DETECTOR, start, m)
            start += m
            b = draw_photon_counts(i_mix[0], i_mix[1], cfg, seed, STREAM_DETECTOR, start, m)
            start += m
            stats_a = accumulate_contrast(*a[:2])
            stats_b = accumulate_contrast(*b[:2])
            sigs.append(stats_a.sigma)
            ress.append(resolution(stats_a, stats_b).value)
        sig_means.append(np.mean(sigs))
        res_means.append(np.mean(ress))
    logm = np.log(sizes)
    sigma_slope = float(np.polyfit(logm, np.log(sig_means), 1)[0])
    res_slope = float(np.polyfit(logm, np.log(res_means), 1)[0])

    elapsed = time.perf_counter() - t0
    ok = (
        all(abs(err) <= 0.05 for err in g2_errs.values())
        and abs(corr) <= 0.005
        and abs(sigma_slope + 0.5) <= 0.05
        and abs(res_slope - 0.5) <= 0.05
        and elapsed < 120.0
    )
    g2_text = ", ".join(f"{k}: {k + v:.4f}" for k, v in sorted(g2_errs.items()))
    _verdict(
        6,
        ok,
        f"g2 over 1e6 pulses {{{g2_text}}} (tol 0.05), port correlation "
        f"{corr:+.5f} (tol 0.005), spread exponent {sigma_slope:+.3f} and "
        f"resolution exponent {res_slope:+.3f} (targets -0.5/+0.5, tol 0.05), "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_acceptance_7_sifting_retention():
    t0 = time.perf_counter()
    # 1786 cycles of the 56-bit message exceed 1e5 pulses
    report = run_session(SessionConfig(cycles=1786, seed=BASE_SEED))
    retention = report.sift_retention
    elapsed = time.perf_counter() - t0
    ok = report.total_pulses >= 100_000 and abs(retention - 0.25) <= 0.01
    _verdict(
        7,
        ok,
        f"retention {retention:.4f} over {report.total_pulses} pulses "
        f"(target 0.25 +/- 0.01), {elapsed:.1f}s",
    )


def test_acceptance_8_end_to_end_sessions():
    t0 = time.perf_counter()
    stats = {}
    for name, lam, theta in (("540nm", 540.0, THETA_SPLIT), ("500nm", 500.0, THETA_MIX)):
        channel = ChannelModel.from_config(
            SessionConfig(lambda_nm=lam, decode_theta=theta)
        )
        accuracies, retained = [], []
        for k in range(100):
            cfg = SessionConfig(lambda_nm=lam, decode_theta=theta, seed=BASE_SEED + k)
            report = run_session(cfg, channel=channel)
            accuracies.append(report.accuracy)
            retained.append(report.convergence_retained_mean)
        stats[name] = {
            "median_accuracy": float(np.median(accuracies)),
            "median_retained": float(np.median(retained)),
            "perfect": sum(a == 1.0 for a in accuracies),
        }
    ratio = stats["500nm"]["median_retained"] / stats["540nm"]["median_retained"]
    elapsed = time.perf_counter() - t0
    ok = (
        stats["540nm"]["median_accuracy"] == 1.0
        and stats["500nm"]["median_accuracy"] == 1.0
        and ratio >= 3.0
        and elapsed < 300.0
    )
    _verdict(
        8,
        ok,
        f"median accuracy 1.0 on both presets "
        f"({stats['540nm']['perfect']}/100 and {stats['500nm']['perfect']}/100 "
        f"perfect), median retained photons per bit "
        f"{stats['540nm']['median_retained']:.2f} vs "
        f"{stats['500nm']['median_retained']:.2f}, ratio {ratio:.1f}x "
        f"(>= 3x), {elapsed:.1f}s (budget 300s)",
    )


def test_channel_gap_matches_measured_reference():
    """Expected to fail: the coefficient table does not allow a 1.3 gap.

    The split-setting contrasts calibrate to +0.829 for the zero-delay bit
    and -0.999 for the relaxed bit, so their gap is 1.828.  The nominal
    band of 1.3 +/- 0.15 for this channel is therefore unreachable with
    these model constants; the check stays as written instead of widening
    the band until it passes.
    """
    channel = ChannelModel.from_config(SessionConfig())
    gap = abs(channel.gap)
    ok = 1.15 <= gap <= 1.45
    _verdict(
        "8-gap",
        ok,
        f"split-setting calibration gap {gap:.4f} vs nominal band "
        f"[1.15, 1.45]; the coefficient table pins the contrasts at "
        f"{channel.cal_p1:+.4f} and {channel.cal_p0:+.4f}",
    )


def test_acceptance_9_byte_identical_reruns(run_cli, tmp_path):
    t0 = time.perf_counter()
    small = {
        "spectra": {"points": 256},
        "contrast_map": {"points": 19, "t_list": [0.0, 500.0]},
        "detector_check": {"pulses": 1200},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(small))

    pairs = []
    for name, args in (
        ("spectra", ["spectra", "--config", str(cfg)]),
        ("contrast-map", ["contrast-map", "--config", str(cfg)]),
        ("qkd", ["qkd"]),
        ("detector-check", ["detector-check", "--config", str(cfg)]),
    ):
        dirs = []
        for run in ("a", "b"):
            out = f"{name}_{run}"
            assert run_cli(*args, "--seed", str(BASE_SEED), "--out", out) == 0
            dirs.append(run_cli.cwd / out)
        pairs.append((name, tree_bytes(dirs[0]) == tree_bytes(dirs[1])))

    ratios = run_cli.cwd / "contrast-map_a" / "ratios.csv"
    rec = []
    for run in ("a", "b"):
        out = f"reconstruct_{run}"
        assert run_cli("reconstruct", "--input", str(ratios), "--seed", str(BASE_SEED),
                       "--out", out) == 0
        rec.append(tree_bytes(run_cli.cwd / out))
    pairs.append(("reconstruct", rec[0] == rec[1]))

    elapsed = time.perf_counter() - t0
    failed = [name for name, same in pairs if not same]
    ok = not failed
    _verdict(
        9,
        ok,
        f"{len(pairs)} rerun comparisons byte-identical including manifests"
        + (f", mismatches: {failed}" if failed else "")
        + f", {elapsed:.1f}s",
    )


def test_acceptance_10_biexciton_lines_carry_the_540nm_channel():
    """The paper: transmission efficiency depends strongly on the biexciton
    states.  With b0's biexciton rows (u = -1, +1) at 0 only the exciton line
    is left, the field is the same at every wavelength, and the 540 nm
    channel needs far more retained photons per bit to converge.  The 500 nm
    ratio is reported, not asserted: that channel decodes about as well
    either way."""
    t0 = time.perf_counter()
    b0 = DEFAULT_PARAMS.b0
    no_biexciton = dataclasses.replace(DEFAULT_PARAMS, b0=((0.0, 0.0), b0[1], (0.0, 0.0)))
    medians = {}
    for name, lam, theta in (("540nm", 540.0, THETA_SPLIT), ("500nm", 500.0, THETA_MIX)):
        for label, params in (("with", DEFAULT_PARAMS), ("without", no_biexciton)):
            cfg = SessionConfig(lambda_nm=lam, decode_theta=theta, params=params)
            channel = ChannelModel.from_config(cfg)
            retained = [run_session(dataclasses.replace(cfg, seed=BASE_SEED + k), channel=channel)
                        .convergence_retained_mean for k in range(20)]
            medians[name, label] = float(np.median(retained))
    ratio = {name: medians[name, "without"] / medians[name, "with"] for name in ("540nm", "500nm")}
    elapsed = time.perf_counter() - t0
    ok = ratio["540nm"] >= 3.0 and elapsed < 120.0
    _verdict(
        10,
        ok,
        f"540nm median retained photons per bit {medians['540nm', 'without']:.2f} without "
        f"the biexciton rows vs {medians['540nm', 'with']:.2f} with, ratio "
        f"{ratio['540nm']:.1f}x (>= 3x); 500nm ratio {ratio['500nm']:.2f} (not asserted), "
        f"{elapsed:.1f}s (budget 120s)",
    )
