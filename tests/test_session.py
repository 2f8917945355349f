"""Message framing, sifting, threshold decoding, and full key sessions."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwmqkd import session
from fwmqkd.errors import MessageEncodingError, ParameterError
from fwmqkd._kernels import STREAM_SESSION, pulse_randoms
from fwmqkd.photons import AttenuationConfig, counts_from_rates, draw_photon_counts, port_rates
from fwmqkd.reconstruct import THETA_MIX, THETA_SPLIT
from fwmqkd.session import (
    BITS_PER_CHAR,
    THRESHOLD_MODES,
    ChannelModel,
    SessionConfig,
    _build_trajectory,
    decode_matrix,
    decode_to_text,
    encode_message,
    run_session,
)


def _channel(lambda_nm=540.0, decode_theta=THETA_SPLIT, **kw):
    return ChannelModel.from_config(
        SessionConfig(lambda_nm=lambda_nm, decode_theta=decode_theta, **kw)
    )


class TestMessageFraming:
    def test_encodes_seven_bits_per_character(self):
        bits = encode_message("T")
        np.testing.assert_array_equal(bits, [1, 0, 1, 0, 1, 0, 0])

    def test_reference_message_is_56_bits(self):
        bits = encode_message("Tar Heel")
        assert bits.size == 8 * BITS_PER_CHAR
        assert decode_to_text(bits) == "Tar Heel"

    def test_empty_message_encodes_to_empty_vector(self):
        assert encode_message("").size == 0

    def test_rejects_non_ascii(self):
        with pytest.raises(MessageEncodingError):
            encode_message("café")

    def test_roundtrip_over_printable_ascii(self):
        text = "".join(chr(c) for c in range(32, 127))
        assert decode_to_text(encode_message(text)) == text

    def test_undecided_bits_render_as_question_marks(self):
        bits = encode_message("T").astype(np.int64)
        bits[3] = -1
        assert decode_to_text(bits) != "T"
        assert decode_to_text(np.full(7, -1)) == "?"

    def test_partial_characters_are_rejected(self):
        with pytest.raises(MessageEncodingError):
            decode_to_text(np.ones(10, dtype=np.int64))

    def test_matches_the_per_character_loop(self):
        rng = np.random.default_rng(8)
        for n_chars in (0, 1, 3, 17, 256):
            for p_undecided in (0.0, 0.02, 0.5):
                bits = rng.integers(0, 2, BITS_PER_CHAR * n_chars)
                bits[rng.uniform(size=bits.size) < p_undecided] = -1
                assert decode_to_text(bits) == _reference_decode_to_text(bits)
                assert decode_to_text(bits.tolist()) == _reference_decode_to_text(bits)


def _reference_decode_to_text(bits) -> str:
    """The per-character loop decode_to_text replaced, kept as its oracle."""
    bits = np.asarray(bits, dtype=np.int64)
    chars = []
    for k in range(0, bits.size, BITS_PER_CHAR):
        group = bits[k : k + BITS_PER_CHAR]
        if np.any(group < 0):
            chars.append("?")
            continue
        code = 0
        for b in group:
            code = (code << 1) | int(b)
        chars.append(chr(code))
    return "".join(chars)


class TestSessionConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SessionConfig(cycles=0)
        with pytest.raises(ParameterError):
            SessionConfig(threshold_mode="adaptive")
        with pytest.raises(ParameterError):
            SessionConfig(delay_bit1=250.0, delay_bit0=250.0)
        with pytest.raises(ParameterError):
            SessionConfig(delay_bit1=-1.0)
        for name, bad in [("delay_bit1", math.nan), ("delay_bit0", math.nan),
                          ("lambda_nm", math.nan), ("lambda_nm", math.inf),
                          ("lambda_nm", -math.inf), ("cycles", 2.5)]:
            with pytest.raises(ParameterError, match=name):
                SessionConfig(**{name: bad})
        # Whether an infinite delay is valid is left to a config-wide decision.
        assert SessionConfig(delay_bit0=math.inf).delay_bit0 == math.inf

    def test_defaults_describe_the_split_channel(self):
        cfg = SessionConfig()
        assert cfg.lambda_nm == 540.0
        assert cfg.decode_theta == THETA_SPLIT
        assert (cfg.delay_bit1, cfg.delay_bit0) == (0.0, 500.0)


class TestChannelModel:
    def test_split_channel_calibration(self):
        ch = _channel(540.0, THETA_SPLIT)
        assert ch.cal_p1 == pytest.approx(0.8290241062105972, abs=1e-12)
        assert ch.cal_p0 == pytest.approx(-0.9990291349852602, abs=1e-12)
        assert ch.gap == pytest.approx(1.8280532411958574, abs=1e-12)
        assert ch.orientation == 1.0
        assert ch.decode_basis == 0

    def test_mixing_channel_calibration(self):
        ch = _channel(500.0, THETA_MIX)
        assert ch.cal_p1 == pytest.approx(-0.5844273698652294, abs=1e-12)
        assert ch.cal_p0 == pytest.approx(-0.011812956376267059, abs=1e-12)
        assert ch.gap == pytest.approx(-0.5726144134889624, abs=1e-12)
        assert ch.orientation == -1.0
        assert ch.decode_basis == 1

    def test_fixed_threshold_sits_between_the_calibrations(self):
        for ch in (_channel(540.0, THETA_SPLIT), _channel(500.0, THETA_MIX)):
            lo, hi = sorted((ch.cal_p0, ch.cal_p1))
            assert lo < ch.fixed_threshold < hi

    def test_decode_basis_follows_the_wave_plate(self):
        assert _channel(540.0, THETA_SPLIT).decode_basis == 0
        assert _channel(540.0, THETA_MIX).decode_basis == 1
        with pytest.raises(ParameterError):
            _channel(540.0, 0.3)


def _session_draw(cfg, channel, start, count):
    """run_session's draw of pulses [start, start + count): (n_h, n_v,
    setting, clamped) at the channel's four setting intensities."""
    return draw_photon_counts(*channel.itable.reshape(4, 2).T, cfg.attenuation, cfg.seed,
                              STREAM_SESSION, start, count)


def sift_mask(setting, designated, decode_basis):
    """run_session's sift: a pulse's setting 2 * Alice bit + Bob basis
    against its slot's bit on the decoding basis."""
    return setting == 2 * np.asarray(designated) + decode_basis


class TestSifting:
    def test_keeps_only_matching_bit_and_basis(self):
        alice = np.array([0, 0, 1, 1, 0, 1])
        basis = np.array([0, 1, 0, 1, 0, 1])
        designated = np.array([0, 0, 1, 0, 1, 1])
        mask = sift_mask(2 * alice + basis, designated, decode_basis=1)
        np.testing.assert_array_equal(mask, [0, 1, 0, 0, 0, 1])

    def test_forced_extremes(self):
        n = 1000
        same = np.zeros(n, dtype=np.int64)
        assert sift_mask(2 * same + same, same, 0).all()
        assert not sift_mask(2 * same + same, 1 - same, 0).any()

    def test_random_retention_is_one_quarter(self):
        ch = _channel()
        cfg = SessionConfig(cycles=1)
        _, _, setting, _ = _session_draw(cfg, ch, 0, 100_000)
        designated = np.repeat(encode_message(cfg.message), 100_000 // 56 + 1)[:100_000]
        mask = sift_mask(setting, designated, ch.decode_basis)
        assert abs(mask.mean() - 0.25) <= 0.01


class TestDecoding:
    def test_running_mean_splits_clear_contrasts(self):
        ch = _channel(540.0, THETA_SPLIT)
        p = np.array([0.8, -0.95, 0.75, -0.9])
        np.testing.assert_array_equal(decode_matrix(p[None, :], ch)[0][0], [1, 0, 1, 0])

    def test_single_sided_rows_fall_back_to_the_calibration_midpoint(self):
        ch = _channel(540.0, THETA_SPLIT)
        # every value on the bit-1 side of the midpoint, spread far below gap/2
        p = np.full(8, ch.cal_p1)
        np.testing.assert_array_equal(decode_matrix(p[None, :], ch)[0][0],
                                      np.ones(8, dtype=np.int64))
        p = np.full(8, ch.cal_p0)
        np.testing.assert_array_equal(decode_matrix(p[None, :], ch)[0][0],
                                      np.zeros(8, dtype=np.int64))

    def test_nan_and_ties_stay_undecided(self):
        ch = _channel(540.0, THETA_SPLIT)
        p = np.array([np.nan, ch.fixed_threshold, 0.8])
        out = decode_matrix(p[None, :], ch, threshold_mode="fixed")[0][0]
        assert out[0] == -1
        assert out[1] == -1
        assert out[2] == 1

    def test_inverted_channel_flips_the_comparison(self):
        ch = _channel(500.0, THETA_MIX)
        p = np.array([ch.cal_p1, ch.cal_p0])
        np.testing.assert_array_equal(decode_matrix(p[None, :], ch)[0][0], [1, 0])

    def test_fixed_mode_uses_the_midpoint_everywhere(self):
        ch = _channel(540.0, THETA_SPLIT)
        eps = 1e-6
        p = np.array([ch.fixed_threshold + eps, ch.fixed_threshold - eps])
        np.testing.assert_array_equal(decode_matrix(p[None, :], ch, "fixed")[0][0], [1, 0])

    def test_rows_report_whether_they_fell_back_to_the_midpoint(self):
        ch = _channel(540.0, THETA_SPLIT)
        rows = np.array([
            [0.8, -0.95, 0.75, -0.9],                     # both bits present
            [ch.cal_p1, ch.cal_p1 + 1e-3, np.nan, 0.81],  # tight cluster
            [np.nan] * 4,                                 # nothing decided yet
        ])
        bits, _, used = decode_matrix(rows, ch)
        np.testing.assert_array_equal(used, [False, True, True])
        np.testing.assert_array_equal(bits[1], [1, 1, -1, 1])
        _, _, used = decode_matrix(rows, ch, "fixed")
        np.testing.assert_array_equal(used, [True, True, True])

    def test_a_spread_of_exactly_half_the_gap_decodes_against_the_running_mean(self):
        # gap 1, midpoint 0.25: every difference and half below is exact.
        ch = dataclasses.replace(_channel(540.0, THETA_SPLIT), cal_p1=0.75, cal_p0=-0.25)
        rows = np.array([
            [0.5, 1.0],     # spread 0.5, half the gap; mean 0.75
            [0.5, 0.9375],  # spread 0.4375, below it
        ])
        bits, threshold, used = decode_matrix(rows, ch)
        np.testing.assert_array_equal(used, [False, True])
        np.testing.assert_array_equal(threshold, [0.75, 0.25])
        np.testing.assert_array_equal(bits, [[0, 1], [1, 1]])

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    @pytest.mark.parametrize("lam, theta", [(540.0, THETA_SPLIT), (500.0, THETA_MIX)])
    def test_slot_major_compare_against_row_thresholds_gives_the_same_bits(self, mode, lam, theta):
        # The change rows decide slot-major blocks against the stored
        # per-row thresholds; the compare is elementwise, so the bits match.
        ch = _channel(lam, theta)
        rng = np.random.default_rng(12)
        p = rng.uniform(-1.0, 1.0, size=(40, 9))
        p[rng.uniform(size=p.shape) < 0.3] = np.nan
        p[5] = ch.fixed_threshold
        bits, threshold, midpoint = decode_matrix(p, ch, mode)
        np.testing.assert_array_equal(threshold == ch.fixed_threshold, midpoint)
        np.testing.assert_array_equal(session._compare(p.T, threshold, ch.orientation), bits.T)

    def test_unknown_mode_is_rejected(self):
        ch = _channel()
        with pytest.raises(ParameterError):
            decode_matrix(np.array([[0.5]]), ch, "median")


class TestRunPulse:
    """Pulses at one fixed setting, drawn from the positional generator."""

    def test_long_delay_extinguishes_the_horizontal_port(self):
        # at 5000 fs the cross-polarized amplitude has decayed by e^-50
        cfg = SessionConfig(seed=5, delay_bit0=5000.0)
        ch = ChannelModel.from_config(cfg)
        u_gain, u_h, u_v, _, _ = pulse_randoms(cfg.seed, STREAM_SESSION, 0, 1000)
        i_h, i_v = ch.itable[0, ch.decode_basis]
        rate_h, rate_v = port_rates(i_h, i_v, cfg.attenuation)
        n_h, n_v, _ = counts_from_rates(u_gain, u_h, u_v, np.array([rate_h]),
                                         np.array([rate_v]), 0, cfg.attenuation)
        assert n_h.sum() == 0
        assert n_v.sum() > 300


class TestRunSession:
    def test_reference_message_decodes_on_both_presets(self):
        for lam, theta in ((540.0, THETA_SPLIT), (500.0, THETA_MIX)):
            report = run_session(SessionConfig(lambda_nm=lam, decode_theta=theta))
            assert report.decoded_message == "Tar Heel"
            assert report.accuracy == 1.0
            assert abs(report.sift_retention - 0.25) <= 0.01

    def test_report_shapes_and_consistency(self):
        report = run_session(SessionConfig(cycles=400, seed=7))
        n = 56
        assert report.bits.size == n
        assert report.decoded_bits.size == n
        assert report.slot_h.size == n
        assert report.slot_v.size == n
        assert report.slot_contrast.size == n
        assert report.total_pulses == 400 * n
        traj = report.trajectory
        assert traj.accuracy[-1] == report.accuracy
        assert traj.budget[0] == 0
        assert traj.budget[-1] == traj.budget.size - 1

    def test_trajectory_photon_axes_are_monotone_and_ordered(self):
        report = run_session(SessionConfig(seed=3))
        traj = report.trajectory
        assert np.all(np.diff(traj.retained_mean) >= 0)
        assert np.all(np.diff(traj.all_photons_mean) >= 0)
        assert np.all(traj.all_photons_mean >= traj.retained_mean)
        # sifting keeps one basis-matched quarter, so the full photon record
        # runs about four times ahead of the retained budget
        tail = traj.retained_mean > 1.0
        ratio = traj.all_photons_mean[tail] / traj.retained_mean[tail]
        assert 2.5 < np.median(ratio) < 6.0

    def test_convergence_budget_marks_a_stable_decode(self):
        report = run_session(SessionConfig(seed=11))
        assert report.converged
        b = int(report.convergence_budget)
        traj = report.trajectory
        assert np.all(traj.accuracy[b:] == 1.0)
        if b > 0:
            assert traj.accuracy[b - 1] < 1.0

    def test_snapshots_end_at_the_final_decode(self):
        report = run_session(SessionConfig(seed=11))
        budgets = [b for b, _, _ in report.snapshots]
        assert budgets == sorted(budgets)
        assert report.snapshots[-1][2] == report.decoded_message
        assert budgets[-1] == report.trajectory.budget[-1]

    def test_fixed_threshold_mode_also_decodes(self):
        report = run_session(SessionConfig(seed=2, threshold_mode="fixed"))
        assert report.decoded_message == "Tar Heel"

    def test_trajectory_reports_the_threshold_each_budget_used(self):
        running = run_session(SessionConfig(seed=2))
        fixed = run_session(SessionConfig(seed=2, threshold_mode="fixed"))
        assert {row["threshold"] for row in fixed.to_dict()["trajectory"]} == {"midpoint"}
        rows = running.to_dict()["trajectory"]
        # budget 0 has seen no photon; the final budget sees both bit values
        assert rows[0]["threshold"] == "midpoint"
        assert rows[-1]["threshold"] == "running-mean"
        # the threshold mode never changes a drawn photon, so a budget that
        # fell back decodes exactly as fixed mode does at that budget
        used = running.trajectory.used_midpoint
        n_slots = running.bits.size
        _, running_contrast, running_estimate = _dense_history(running.trajectory, n_slots)
        _, fixed_contrast, fixed_estimate = _dense_history(fixed.trajectory, n_slots)
        np.testing.assert_array_equal(running_contrast, fixed_contrast)
        np.testing.assert_array_equal(running_estimate[used], fixed_estimate[used])
        np.testing.assert_array_equal(running.trajectory.threshold[used],
                                      fixed.trajectory.threshold[used])

    def test_empty_message_is_rejected(self):
        with pytest.raises(ParameterError):
            run_session(SessionConfig(message=""))

    def test_heavier_cycles_only_help(self):
        report = run_session(SessionConfig(cycles=4000, seed=13))
        assert report.accuracy == 1.0

    def test_report_serializes_to_json(self):
        report = run_session(SessionConfig(cycles=300, seed=4))
        payload = json.dumps(report.to_dict())
        parsed = json.loads(payload)
        assert parsed["decoded_message"] == report.decoded_message
        assert parsed["percent_correct"] == 100.0 * report.accuracy
        assert parsed["channel"]["decode_basis"] in (0, 1)

    def test_shared_channel_reuse_matches_fresh_build(self):
        cfg = SessionConfig(seed=21)
        ch = ChannelModel.from_config(cfg)
        a = run_session(cfg, channel=ch)
        b = run_session(cfg)
        assert a.decoded_message == b.decoded_message
        np.testing.assert_array_equal(a.slot_h, b.slot_h)
        np.testing.assert_array_equal(a.slot_contrast, b.slot_contrast)

    @pytest.mark.parametrize("lam, theta", [(540.0, THETA_SPLIT), (500.0, THETA_MIX)])
    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    @pytest.mark.parametrize("message, cycles, photons", [("T", 1, 0.01), ("Tar", 40, 1.0)])
    def test_final_decode_equals_a_decode_of_the_slot_contrasts(self, lam, theta, mode,
                                                                message, cycles, photons):
        # The report takes its decode from the trajectory's last budget row;
        # decoding the full slot tallies directly is the oracle.
        for seed in (1, 7, 20260814):
            report = run_session(SessionConfig(
                message=message, cycles=cycles, seed=seed, lambda_nm=lam, decode_theta=theta,
                threshold_mode=mode, attenuation=AttenuationConfig(mean_total_photons=photons)))
            want = decode_matrix(report.slot_contrast[None, :], report.channel, mode)[0][0]
            assert report.decoded_bits.dtype == want.dtype
            np.testing.assert_array_equal(report.decoded_bits, want)
            assert report.accuracy == float(np.mean(want == report.bits))
            assert report.decoded_message == decode_to_text(want)


def _reference_trajectory(slots, n_h, n_v, mask, n_slots, bits, channel, threshold_mode):
    """The dense per-slot masking forward-fill, kept as the test oracle.

    Returns the per-budget curves and the dense budget x slot photons,
    contrast and estimate matrices.
    """
    totals = n_h + n_v
    events = mask & (totals > 0)

    kept_per_slot = np.bincount(slots[events], weights=totals[events], minlength=n_slots)
    r_max = int(kept_per_slot.max()) if np.any(events) else 0
    budgets = np.arange(r_max + 1)
    h_mat = np.zeros((r_max + 1, n_slots))
    v_mat = np.zeros((r_max + 1, n_slots))
    a_mat = np.zeros((r_max + 1, n_slots))
    for s in range(n_slots):
        in_slot = slots == s
        ev = events[in_slot]
        if not np.any(ev):
            continue
        ch = np.cumsum(n_h[in_slot][ev])
        cv = np.cumsum(n_v[in_slot][ev])
        ct = ch + cv
        c_all = np.cumsum(totals[in_slot])[ev]
        k = np.searchsorted(ct, budgets, side="right") - 1
        valid = k >= 0
        h_mat[valid, s] = ch[k[valid]]
        v_mat[valid, s] = cv[k[valid]]
        a_mat[valid, s] = c_all[k[valid]]

    t_mat = h_mat + v_mat
    with np.errstate(invalid="ignore"):
        p_mat = np.where(t_mat > 0, (h_mat - v_mat) / np.maximum(t_mat, 1), np.nan)
    decoded, threshold, used_midpoint = session.decode_matrix(p_mat, channel, threshold_mode)
    correct = decoded == bits[None, :]
    return (budgets, t_mat.mean(axis=1), a_mat.mean(axis=1), correct.mean(axis=1),
            (decoded < 0).sum(axis=1), used_midpoint, threshold,
            t_mat.astype(np.int64), p_mat, decoded)


def _expected_trajectory(reference, count_dtype=np.int32):
    """The trajectory curves and the change rows the streamed builder must
    give for a dense reference, with photons in count_dtype.

    A slot gets a change row where its photons, contrast or estimate differs
    from the budget before, two NaN contrasts counting as equal, and at
    budget 0; rows run by slot, then budget.
    """
    *curves, photons, contrast, estimate = reference
    changed = np.ones(photons.shape, dtype=bool)
    same_contrast = (contrast[1:] == contrast[:-1]) | (np.isnan(contrast[1:]) & np.isnan(contrast[:-1]))
    changed[1:] = (photons[1:] != photons[:-1]) | ~same_contrast | (estimate[1:] != estimate[:-1])
    slot, budget = np.nonzero(changed.T)
    r_max = int(curves[0][-1])
    marks = np.array(sorted({b for b in session.SNAPSHOT_BUDGETS if b <= r_max} | {r_max}))
    traj = session.Trajectory(*curves, snapshot_budget=marks,
                              snapshot_estimate=estimate[marks].astype(np.int8),
                              orientation=None, events=None)
    rows = (slot.astype(np.int32), budget, photons[budget, slot].astype(count_dtype),
            contrast[budget, slot], estimate[budget, slot].astype(np.int8))
    return traj, rows


def _rows(traj):
    """The change rows of a trajectory, its generated blocks joined."""
    return tuple(np.concatenate(column) for column in zip(*traj.change_rows()))


def _dense_history(traj, n_slots):
    """Expand the change rows back into budget x slot photons, contrast and
    estimate; every slot has a row at budget 0, so every cell is covered."""
    slot, budget, photons, contrast, estimate = _rows(traj)
    idx = np.full((traj.budget.size, n_slots), -1)
    idx[budget, slot] = np.arange(slot.size)
    np.maximum.accumulate(idx, axis=0, out=idx)
    return photons[idx], contrast[idx], estimate[idx]


def _events(n_h, n_v, mask, cycles):
    """Event arrays of a pulse train, slot by slot: where each slot's events
    start, and the slot's retained H, V and all-photon running counts at
    each event."""
    parts, start = [], [0]
    for s in range(n_h.size // cycles):
        sl = slice(s * cycles, (s + 1) * cycles)
        h, v, m = n_h[sl], n_v[sl], mask[sl]
        ch, cv = np.cumsum(np.where(m, h, 0)), np.cumsum(np.where(m, v, 0))
        c_all = np.cumsum(h + v)
        for k in np.flatnonzero(m & (h + v > 0)):
            parts.append((ch[k], cv[k], c_all[k]))
        start.append(len(parts))
    return np.array(start), tuple(
        np.array([p[i] for p in parts], dtype=np.int32).reshape(-1) for i in range(3))


def _assert_same_trajectory(a, b, context=""):
    """Same curves, thresholds and snapshots, dtypes included."""
    for f in dataclasses.fields(session.Trajectory):
        if f.compare:
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert x.dtype == y.dtype and x.shape == y.shape, f"{context}{f.name}"
            np.testing.assert_array_equal(x, y, err_msg=f"{context}{f.name}")


def _assert_same_rows(got, want, context=""):
    for name, x, y in zip(("slot", "budget", "photons", "contrast", "estimate"), got, want):
        assert x.dtype == y.dtype and x.shape == y.shape, f"{context}{name}"
        np.testing.assert_array_equal(x, y, err_msg=f"{context}{name}")


# Chunk sizes of the streamed trajectory, in cells for n_slots slots: one
# budget row per chunk, one row given exactly, three rows, and all rows.
# The same constant sets the slot blocks of the change rows.
CHUNK_CELLS = {
    "one-cell": lambda n_slots: 1,
    "one-row": lambda n_slots: n_slots,
    "three-rows": lambda n_slots: 3 * n_slots,
    "all-rows": lambda n_slots: 1 << 30,
}


def _check_against_reference(n_h, n_v, mask, cycles, bits, mode="running-mean"):
    """Compare the streamed builder, at every chunk size, with the oracle."""
    n_h, n_v = np.asarray(n_h, dtype=np.int64), np.asarray(n_v, dtype=np.int64)
    mask, bits = np.asarray(mask, dtype=bool), np.asarray(bits, dtype=np.int64)
    channel = _channel()
    slots = np.arange(n_h.size) // cycles
    expected, expected_rows = _expected_trajectory(
        _reference_trajectory(slots, n_h, n_v, mask, bits.size, bits, channel, mode))
    start, events = _events(n_h, n_v, mask, cycles)
    for name, chunk in CHUNK_CELLS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(session, "TRAJECTORY_CHUNK_CELLS", chunk(bits.size))
            got = _build_trajectory(*events, start, bits, channel, mode)
            rows = _rows(got)
        _assert_same_trajectory(got, expected, context=f"chunk size {name}: ")
        _assert_same_rows(rows, expected_rows, context=f"chunk size {name}: ")


@st.composite
def _pulse_trains(draw):
    n_slots = draw(st.integers(1, 6))
    cycles = draw(st.integers(1, 8))
    n = n_slots * cycles
    counts = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return (draw(counts), draw(counts), draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            cycles, draw(st.lists(st.integers(0, 1), min_size=n_slots, max_size=n_slots)),
            draw(st.sampled_from(THRESHOLD_MODES)))


class TestTrajectoryReference:
    @settings(max_examples=200, deadline=None)
    @given(_pulse_trains())
    def test_matches_the_per_slot_forward_fill(self, train):
        _check_against_reference(*train)

    @pytest.mark.parametrize("n_h,n_v,mask,cycles,bits", [
        # slots 0 and 2 see no event: one has no photons, one sifts all away
        ([0, 0, 2, 1, 1, 0], [0, 0, 0, 1, 0, 3], [1, 1, 1, 1, 0, 0], 2, [1, 0, 1]),
        # no photon anywhere, so the budget axis is the single row r_max = 0
        ([0] * 6, [0] * 6, [1] * 6, 3, [0, 1]),
        # one pulse per slot
        ([1, 0, 2, 0, 1], [0, 1, 0, 2, 1], [1, 1, 0, 1, 1], 1, [1, 0, 1, 0, 1]),
        # a single slot
        ([1, 0, 2, 0, 1, 3], [0, 1, 0, 2, 1, 0], [1, 1, 0, 1, 1, 1], 6, [1]),
    ], ids=["empty-slots", "no-photons", "one-cycle", "one-slot"])
    def test_edge_cases(self, n_h, n_v, mask, cycles, bits):
        _check_against_reference(n_h, n_v, mask, cycles, bits)

    def test_a_tight_cluster_falls_back_at_every_budget(self):
        # every photon lands in H, so every decided slot reads contrast +1
        n_h = np.array([1, 0, 2, 1, 1, 0, 0, 3], dtype=np.int64)
        n_v = np.zeros(8, dtype=np.int64)
        mask = np.ones(8, dtype=bool)
        bits = np.array([1, 0, 1, 0], dtype=np.int64)
        start, ev = _events(n_h, n_v, mask, 2)
        traj = _build_trajectory(*ev, start, bits, _channel(), "running-mean")
        assert traj.budget.size == 4 and traj.used_midpoint.all()
        assert {row["threshold"] for row in traj.curve_rows()} == {"midpoint"}
        assert traj.snapshot_budget[-1] == 3
        np.testing.assert_array_equal(traj.snapshot_estimate[-1], [1, 1, 1, 1])

    def test_change_rows_expand_back_to_the_dense_history(self):
        cfg = SessionConfig(message="dense", cycles=80, seed=5)
        channel = ChannelModel.from_config(cfg)
        bits = encode_message(cfg.message)
        total = bits.size * cfg.cycles
        n_h, n_v, setting, _ = _session_draw(cfg, channel, 0, total)
        slots = np.arange(total) // cfg.cycles
        mask = sift_mask(setting, bits[slots], channel.decode_basis)
        *_, photons, contrast, estimate = _reference_trajectory(
            slots, n_h, n_v, mask, bits.size, bits, channel, cfg.threshold_mode)
        got = _dense_history(run_session(cfg, channel).trajectory, bits.size)
        for x, y in zip(got, (photons, contrast, estimate)):
            np.testing.assert_array_equal(x, y)

    def test_session_longer_than_one_block(self, monkeypatch):
        monkeypatch.setattr(session, "BLOCK_PULSES", 200)
        cfg = SessionConfig(message="blocks", cycles=60, seed=17)
        channel = ChannelModel.from_config(cfg)
        bits = encode_message(cfg.message)
        total = bits.size * cfg.cycles
        assert total > 10 * session.BLOCK_PULSES
        n_h, n_v, setting, _ = _session_draw(cfg, channel, 0, total)
        slots = np.arange(total) // cfg.cycles
        mask = sift_mask(setting, bits[slots], channel.decode_basis)
        expected, expected_rows = _expected_trajectory(_reference_trajectory(
            slots, n_h, n_v, mask, bits.size, bits, channel, cfg.threshold_mode),
            session._count_dtype(cfg))
        for name, chunk in CHUNK_CELLS.items():
            monkeypatch.setattr(session, "TRAJECTORY_CHUNK_CELLS", chunk(bits.size))
            traj = run_session(cfg, channel).trajectory
            _assert_same_trajectory(traj, expected, context=f"chunk size {name}: ")
            _assert_same_rows(_rows(traj), expected_rows, context=f"chunk size {name}: ")
            for slot, _, photons, _, estimate in traj.change_rows():
                assert slot.dtype == np.int32
                assert photons.dtype == session._count_dtype(cfg) == np.int16
                assert estimate.dtype == traj.snapshot_estimate.dtype == np.int8


class TestTrajectoryStorage:
    def test_count_dtype_widens_when_a_slot_count_can_pass_int32(self):
        def dtype(cycles, max_photons=AttenuationConfig().max_photons):
            return session._count_dtype(SessionConfig(
                cycles=cycles, attenuation=AttenuationConfig(max_photons=max_photons)))

        assert dtype(1200) == np.int16
        # 2 * max_photons * cycles, which is even, against 2**7, 2**15 and 2**31
        assert dtype(63, max_photons=1) == np.int8
        assert dtype(64, max_photons=1) == np.int16
        assert dtype(2**14 - 1, max_photons=1) == np.int16
        assert dtype(2**14, max_photons=1) == np.int32
        assert dtype(2**30 - 1, max_photons=1) == np.int32
        assert dtype(2**30, max_photons=1) == np.int64
        assert dtype(1, max_photons=2**30) == np.int64

    def test_wide_counts_keep_their_dtype(self):
        n_h = np.array([1, 0, 2, 1], dtype=np.int64)
        n_v = np.array([0, 1, 1, 0], dtype=np.int64)
        bits = np.array([1, 0], dtype=np.int64)
        start, ev = _events(n_h, n_v, np.ones(4, dtype=bool), 2)
        wide = tuple(a.astype(np.int64) for a in ev)
        narrow = _build_trajectory(*ev, start, bits, _channel(), "running-mean")
        traj = _build_trajectory(*wide, start, bits, _channel(), "running-mean")
        _assert_same_trajectory(traj, narrow)
        rows, narrow_rows = _rows(traj), _rows(narrow)
        assert rows[2].dtype == np.int64 and narrow_rows[2].dtype == np.int32
        for x, y in zip(rows, narrow_rows):
            np.testing.assert_array_equal(x, y)

    def test_a_library_session_never_builds_change_rows(self, monkeypatch):
        def refuse(self):
            raise AssertionError("change rows built")

        monkeypatch.setattr(session.Trajectory, "change_rows", refuse)
        assert run_session(SessionConfig(message="lib", cycles=50, seed=3)).accuracy >= 0

    def test_memory_is_bounded_by_the_chunk_not_the_budget_axis(self):
        # 3,000 slots and several thousand budget rows: one dense float64
        # budget x slot matrix is over 72 MB, and the dense builder peaked
        # near 1 GB here.  The streamed build stays near 7 MiB, and the
        # change rows, drawn one slot block at a time, near 4 MiB.
        import tracemalloc

        rng = np.random.default_rng(3)
        n_slots, per_slot = 3000, 12
        counts = rng.integers(1, 500, size=(n_slots, per_slot))
        share = rng.uniform(size=(n_slots, per_slot))
        ch = np.cumsum(np.floor(counts * share).astype(np.int32), axis=1)
        ct = np.cumsum(counts, axis=1).astype(np.int32)
        ev_slot = np.repeat(np.arange(n_slots, dtype=np.int32), per_slot)
        ev_ch = ch.ravel()
        ev_cv = (ct - ch).ravel()
        ev_all = (2 * ct).ravel()
        start = np.arange(n_slots + 1) * per_slot
        bits = rng.integers(0, 2, n_slots)
        channel = _channel()
        assert 2_500 < ct.max() < 6_000
        tracemalloc.start()
        try:
            traj = _build_trajectory(ev_ch, ev_cv, ev_all, start, bits,
                                     channel, "running-mean")
            n_changes = sum(block[0].size for block in traj.change_rows())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.budget.size == ct.max() + 1
        assert n_changes >= ev_slot.size + n_slots
        assert peak < 24 * 2**20

    def test_the_build_adds_nothing_per_event(self):
        # 256 slots of int16 events, one photon per event.  Above the arrays
        # it is handed, the build holds one chunk's window and the per-budget
        # curves, nothing per event; the bound allows 2 B per event.  A new
        # int16 per-event array would fill it, and an events-long slot
        # column, sort order or retained total would add 10 B per event; the
        # build once held all three.
        import tracemalloc

        n_slots = 256
        rng = np.random.default_rng(5)
        peaks = []
        for n_events in (2**19, 2**21):
            per_slot = n_events // n_slots
            ct = np.tile(np.arange(1, per_slot + 1), (n_slots, 1))
            ch = np.cumsum(rng.integers(0, 2, size=ct.shape), axis=1)
            fields = tuple(a.ravel().astype(np.int16) for a in (ch, ct - ch, 2 * ct))
            start = np.arange(n_slots + 1) * per_slot
            bits = rng.integers(0, 2, n_slots)
            tracemalloc.start()
            try:
                traj = _build_trajectory(*fields, start, bits, _channel(), "running-mean")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert traj.budget.size == per_slot + 1
            peaks.append(peak)
        assert peaks[1] - peaks[0] < (2**21 - 2**19) * 2

    def test_a_slot_many_blocks_long_costs_a_block_not_a_slot(self, monkeypatch):
        # Seven slots, each many blocks long.  When the draw loop ends and
        # its first event field is joined, the session's peak so far, less
        # the event parts it holds, is the pulse block's working memory; it
        # must not grow with the slot.  A block once held whole slots, so
        # there a 10x longer slot made each block, and the peak, 10x larger.
        import sys
        import tracemalloc

        monkeypatch.setattr(session, "BLOCK_PULSES", 512)
        join = session._join
        overhead = {}

        def measured(parts):
            if cycles not in overhead:
                _, peak = tracemalloc.get_traced_memory()
                # the three fields' parts match in length and dtype
                held = 3 * (sys.getsizeof(parts) + sum(sys.getsizeof(a) for a in parts))
                overhead[cycles] = peak - held
            return join(parts)

        monkeypatch.setattr(session, "_join", measured)
        for cycles in (4_000, 40_000):
            tracemalloc.start()
            try:
                run_session(SessionConfig(message="A", cycles=cycles, seed=11))
            finally:
                tracemalloc.stop()
        assert overhead[40_000] - overhead[4_000] < 32 * 2**10


class TestBlockInvariance:
    @pytest.mark.parametrize("lambda_nm,theta", [(540.0, THETA_SPLIT), (500.0, THETA_MIX)])
    def test_block_size_never_changes_the_report(self, monkeypatch, lambda_nm, theta):
        cfg = SessionConfig(message="Block!", cycles=50, seed=99,
                            lambda_nm=lambda_nm, decode_theta=theta)
        reference = run_session(cfg)
        reference_rows = _rows(reference.trajectory)
        total = reference.total_pulses
        n_slots = reference.bits.size
        # one pulse; blocks that split slots (just under and over one slot,
        # and a few pulses); one slot; three slots; more than the message
        for block in (1, cfg.cycles - 1, cfg.cycles + 1, 7, cfg.cycles, 3 * cfg.cycles,
                      10 * total):
            monkeypatch.setattr(session, "BLOCK_PULSES", block)
            for chunk in CHUNK_CELLS.values():
                monkeypatch.setattr(session, "TRAJECTORY_CHUNK_CELLS", chunk(n_slots))
                report = run_session(cfg)
                assert report.to_dict() == reference.to_dict()
                _assert_same_trajectory(report.trajectory, reference.trajectory)
                _assert_same_rows(_rows(report.trajectory), reference_rows)
