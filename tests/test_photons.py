"""Gain mixing, per-port Poisson counts, contrast reduction, and the SiPM model."""

import math
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fwmqkd import session
from fwmqkd._kernels import (
    POISSON_STOP_CHECK,
    STREAM_DETECTOR,
    STREAM_SESSION,
    poisson_counts,
    pulse_randoms,
)
from fwmqkd.errors import DegenerateInputError, ParameterError
from fwmqkd.photons import (
    AttenuationConfig,
    ContrastStats,
    Resolution,
    accumulate_contrast,
    compute_g2,
    contrast_from_tally,
    draw_photon_counts,
    emulate_sipm,
    g2_from_tally,
    gain_from_uniform,
    invert_sipm,
    resolution,
    tally_pairs,
)
from fwmqkd.reconstruct import THETA_MIX, THETA_SPLIT


def test_attenuation_config_validation():
    with pytest.raises(ParameterError):
        AttenuationConfig(mean_total_photons=0.0)
    with pytest.raises(ParameterError):
        AttenuationConfig(g2_target=0.9)
    with pytest.raises(ParameterError):
        AttenuationConfig(max_photons=0)


class TestGain:
    def test_poissonian_light_has_constant_gain(self):
        u = np.linspace(0.01, 0.99, 50)
        np.testing.assert_array_equal(gain_from_uniform(u, 1.0), np.ones(50))

    def test_matches_gamma_quantiles(self):
        u = np.linspace(0.05, 0.95, 19)
        got = gain_from_uniform(u, 1.5)
        ref = scipy.stats.gamma.ppf(u, a=2.0, scale=0.5)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_gain_has_unit_mean(self):
        rng = np.random.default_rng(1)
        u = rng.random(200_000)
        assert gain_from_uniform(u, 1.4).mean() == pytest.approx(1.0, abs=0.01)

    def test_rejects_antibunched_targets(self):
        with pytest.raises(ParameterError):
            gain_from_uniform(np.array([0.5]), 0.5)


class TestDrawPhotonCounts:
    def test_dark_port_stays_dark(self):
        batch = draw_photon_counts(0.0, 1.0, AttenuationConfig(), seed=3, count=5000)
        assert not batch.n_h.any()
        assert batch.n_v.any()

    def test_budget_mean_is_respected(self):
        cfg = AttenuationConfig(mean_total_photons=1.0)
        batch = draw_photon_counts(0.5, 0.5, cfg, seed=10, count=100_000)
        total = batch.n_h + batch.n_v
        assert total.mean() == pytest.approx(1.0, abs=0.02)

    def test_ports_split_in_proportion_to_intensity(self):
        cfg = AttenuationConfig(mean_total_photons=1.0)
        batch = draw_photon_counts(0.3, 0.1, cfg, seed=21, count=200_000)
        assert batch.n_h.mean() / batch.n_v.mean() == pytest.approx(3.0, abs=0.2)

    def test_counts_respect_the_resolution_limit(self):
        cfg = AttenuationConfig(mean_total_photons=4.0, max_photons=5)
        batch = draw_photon_counts(0.5, 0.5, cfg, seed=2, count=20_000)
        assert batch.n_h.max() <= 5
        assert batch.n_v.max() <= 5
        assert batch.clamped.any()

    def test_clamping_is_rare_at_the_working_point(self):
        cfg = AttenuationConfig(mean_total_photons=1.0, g2_target=1.2)
        batch = draw_photon_counts(0.5, 0.5, cfg, seed=9, count=100_000)
        rate = batch.clamped.mean()
        assert 0.0 < rate < 0.005

    def test_batches_are_chunk_invariant(self):
        cfg = AttenuationConfig(g2_target=1.2)
        whole = draw_photon_counts(0.4, 0.6, cfg, seed=77, count=200)
        head = draw_photon_counts(0.4, 0.6, cfg, seed=77, count=120)
        tail = draw_photon_counts(0.4, 0.6, cfg, seed=77, count=80, start=120)
        np.testing.assert_array_equal(whole.n_h, np.concatenate([head.n_h, tail.n_h]))
        np.testing.assert_array_equal(whole.n_v, np.concatenate([head.n_v, tail.n_v]))
        np.testing.assert_array_equal(whole.clamped, np.concatenate([head.clamped, tail.clamped]))

    def test_streams_are_independent_draws(self):
        cfg = AttenuationConfig()
        a = draw_photon_counts(0.5, 0.5, cfg, seed=4, count=256)
        b = draw_photon_counts(0.5, 0.5, cfg, seed=4, count=256, stream=STREAM_SESSION)
        assert not np.array_equal(a.n_h, b.n_h) or not np.array_equal(a.n_v, b.n_v)

    def test_poissonian_ports_are_uncorrelated(self):
        batch = draw_photon_counts(0.5, 0.5, AttenuationConfig(), seed=6, count=200_000)
        rho = np.corrcoef(batch.n_h, batch.n_v)[0, 1]
        assert abs(rho) < 0.01

    def test_shared_gain_bunches_the_ports_together(self):
        cfg = AttenuationConfig(g2_target=2.0)
        batch = draw_photon_counts(0.5, 0.5, cfg, seed=6, count=100_000)
        rho = np.corrcoef(batch.n_h, batch.n_v)[0, 1]
        assert rho > 0.2

    def test_input_validation(self):
        cfg = AttenuationConfig()
        with pytest.raises(ParameterError):
            draw_photon_counts(-0.1, 0.5, cfg, seed=1, count=10)
        with pytest.raises(DegenerateInputError):
            draw_photon_counts(0.0, 0.0, cfg, seed=1, count=10)
        with pytest.raises(ParameterError):
            draw_photon_counts(0.5, 0.5, cfg, seed=1, count=-1)


class TestG2:
    def test_single_photon_pulses_show_no_coincidences(self):
        assert compute_g2(np.ones(100, dtype=np.int64)) == 0.0

    def test_constant_pairs(self):
        assert compute_g2(np.full(100, 2)) == pytest.approx(0.5, abs=1e-15)

    def test_half_empty_pairs(self):
        assert compute_g2(np.array([0, 2] * 50)) == pytest.approx(1.0, abs=1e-15)

    def test_empty_record_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            compute_g2(np.zeros(10, dtype=np.int64))

    def test_measured_g2_tracks_the_poisson_target(self):
        batch = draw_photon_counts(0.5, 0.5, AttenuationConfig(), seed=15, count=200_000)
        assert compute_g2(batch.n_h + batch.n_v) == pytest.approx(1.0, abs=0.05)


class TestAccumulateContrast:
    def test_pure_horizontal_records(self):
        stats = accumulate_contrast(np.ones(6, dtype=np.int64), np.zeros(6, dtype=np.int64))
        assert stats.p_bar == 1.0
        assert stats.p_cum == 1.0
        assert stats.sigma == 0.0
        assert (stats.m_total, stats.m_used) == (6, 6)

    def test_alternating_records(self):
        n_h = np.array([1, 0, 1, 0])
        n_v = np.array([0, 1, 0, 1])
        stats = accumulate_contrast(n_h, n_v)
        assert stats.p_bar == 0.0
        assert stats.p_cum == 0.0
        assert stats.sigma == pytest.approx(math.sqrt(4.0 / 12.0), abs=1e-15)

    def test_mixed_records_hand_computed(self):
        stats = accumulate_contrast(np.array([2, 1, 0]), np.array([0, 1, 1]))
        assert stats.to_dict() == {
            "N_H": 3,
            "N_V": 2,
            "P_cum": pytest.approx(0.2, abs=1e-15),
            "P_bar": pytest.approx(0.0, abs=1e-15),
            "sigma_P": pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15),
            "M": 3,
            "M_used": 3,
        }

    def test_empty_records_are_skipped_not_counted(self):
        stats = accumulate_contrast(np.array([3, 0, 1]), np.array([0, 0, 0]))
        assert stats.m_total == 3
        assert stats.m_used == 2
        assert stats.p_bar == 1.0
        assert stats.sigma == 0.0

    def test_single_used_record_has_no_spread_estimate(self):
        stats = accumulate_contrast(np.array([0, 2]), np.array([0, 1]))
        assert stats.m_used == 1
        assert stats.sigma == 0.0
        assert stats.p_bar == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_mean_is_order_independent(self):
        rng = np.random.default_rng(12)
        n_h = rng.integers(0, 4, 500)
        n_v = rng.integers(0, 4, 500)
        if (n_h + n_v).sum() == 0:
            n_h[0] = 1
        base = accumulate_contrast(n_h, n_v)
        perm = rng.permutation(500)
        shuffled = accumulate_contrast(n_h[perm], n_v[perm])
        assert base.p_bar == shuffled.p_bar
        assert base.sigma == shuffled.sigma

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=300)
           .filter(lambda rows: any(h + v for h, v in rows)))
    def test_sums_match_the_per_record_reference(self, rows):
        # Reference: per-record generator sums, which the array sums must equal.
        n_h = np.array([h for h, _ in rows], dtype=np.int64)
        n_v = np.array([v for _, v in rows], dtype=np.int64)
        totals = n_h + n_v
        mask = totals > 0
        p_k = (n_h[mask] - n_v[mask]) / totals[mask]
        m_used = p_k.size
        p_bar = math.fsum(p_k) / m_used
        stats = accumulate_contrast(n_h, n_v)
        assert stats.p_bar == p_bar
        if m_used > 1:
            residual = math.fsum((p - p_bar) ** 2 for p in p_k)
            assert stats.sigma == math.sqrt(residual / (m_used * (m_used - 1)))

    def test_degenerate_and_invalid_inputs(self):
        with pytest.raises(DegenerateInputError):
            accumulate_contrast(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
        with pytest.raises(ParameterError):
            accumulate_contrast(np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64))


def _reference_contrast(n_h, n_v) -> ContrastStats:
    """The per-record reduction the pair tally replaced, kept as the oracle."""
    n_h = np.asarray(n_h, dtype=np.int64)
    n_v = np.asarray(n_v, dtype=np.int64)
    totals = n_h + n_v
    mask = totals > 0
    m_used = int(np.count_nonzero(mask))
    total_h = int(n_h.sum())
    total_v = int(n_v.sum())
    pooled = total_h + total_v
    if pooled == 0:
        raise DegenerateInputError("no photons in any record, contrast is undefined")
    p_k = (n_h[mask] - n_v[mask]) / totals[mask]
    p_bar = math.fsum(p_k.tolist()) / m_used
    if m_used < 2:
        sigma = 0.0
    else:
        residual = math.fsum(((p_k - p_bar) ** 2).tolist())
        sigma = math.sqrt(residual / (m_used * (m_used - 1)))
    return ContrastStats(p_bar, (total_h - total_v) / pooled, sigma, int(n_h.size), m_used,
                         total_h, total_v)


def _reference_g2(total_counts) -> float:
    """The per-record float mean the integer sums replaced, kept as the oracle."""
    n = np.asarray(total_counts, dtype=np.float64)
    mean = n.mean()
    if mean == 0.0:
        raise DegenerateInputError("no photons recorded, g2 is undefined")
    return float((n * (n - 1.0)).mean() / (mean * mean))


@st.composite
def _split_records(draw):
    """Port counts up to max_photons, cut into blocks (repeated cuts give
    empty blocks): mixed records, all-dark records, or one used record."""
    max_photons = draw(st.one_of(st.sampled_from([1, 5, 100]), st.integers(1, 100)))
    n = draw(st.integers(1, 300))
    counts = hnp.arrays(np.int64, n, elements=st.integers(0, max_photons))
    n_h, n_v = draw(counts), draw(counts)
    kind = draw(st.sampled_from(["mixed", "dark", "one-used"]))
    if kind != "mixed":
        n_h[:] = n_v[:] = 0
    if kind == "one-used":
        i = draw(st.integers(0, n - 1))
        n_h[i] = draw(st.integers(0, max_photons))
        n_v[i] = draw(st.integers(1 if n_h[i] == 0 else 0, max_photons))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    return n_h, n_v, cuts


@settings(max_examples=300)
@given(_split_records())
def test_merged_block_tallies_match_the_per_record_reduction(records):
    n_h, n_v, cuts = records
    tally = Counter()
    for h, v in zip(np.split(n_h, cuts), np.split(n_v, cuts)):
        tally.update(tally_pairs(h, v))
    if not (n_h + n_v).any():
        for reduce in (lambda: contrast_from_tally(tally), lambda: g2_from_tally(tally),
                       lambda: accumulate_contrast(n_h, n_v), lambda: compute_g2(n_h + n_v)):
            with pytest.raises(DegenerateInputError):
                reduce()
        return
    # repr tells every float apart bit for bit, -0.0 from 0.0 included
    expected = list(map(repr, astuple(_reference_contrast(n_h, n_v))))
    assert list(map(repr, astuple(contrast_from_tally(tally)))) == expected
    assert list(map(repr, astuple(accumulate_contrast(n_h, n_v)))) == expected
    g2 = repr(_reference_g2(n_h + n_v))
    assert repr(g2_from_tally(tally)) == g2
    assert repr(compute_g2(n_h + n_v)) == g2


def test_tallies_of_large_counts_keep_every_pair():
    # a key range past int64 falls back to counting the pairs one by one
    n_h = np.array([-(2**62), 2**62, 5, 5])
    n_v = np.array([0, 2**62, 1, 1])
    assert tally_pairs(n_h, n_v) == Counter({(-(2**62), 0): 1, (2**62, 2**62): 1, (5, 1): 2})


def _stats(p_bar, sigma):
    return ContrastStats(p_bar, p_bar, sigma, 10, 10, 5, 5)


class TestResolution:
    def test_symmetric_separation(self):
        res = resolution(_stats(0.5, 0.1), _stats(-0.5, 0.1))
        assert res.value == pytest.approx(7.0710678118654755, abs=1e-12)
        assert not res.saturated

    def test_zero_spread_saturates(self):
        res = resolution(_stats(0.5, 0.0), _stats(-0.5, 0.0))
        assert res.value == math.inf
        assert res.saturated

    def test_identical_estimates_resolve_to_zero(self):
        res = resolution(_stats(0.3, 0.05), _stats(0.3, 0.05))
        assert res.value == 0.0
        assert not res.saturated


class TestSiPM:
    def test_noiseless_emulation_is_linear(self):
        volts = emulate_sipm(np.array([0, 1, 3]))
        np.testing.assert_allclose(volts, [0.0, 0.6, 1.8], atol=1e-15)

    def test_inversion_rounds_to_nearest_step(self):
        counts = invert_sipm(np.array([-0.2, 0.05, 0.61, 1.75]))
        np.testing.assert_array_equal(counts, [0, 0, 1, 3])
        assert counts.dtype == np.int64

    def test_roundtrip_with_noise_is_exact(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 6, 100_000)
        volts = emulate_sipm(counts, noise_u=rng.random(100_000))
        np.testing.assert_array_equal(invert_sipm(volts), counts)

    def test_extreme_uniforms_stay_finite(self):
        # u = 0 and u = 1 clip to an 8.2 sigma excursion: finite, and at
        # 0.41 V it can shift the rounding by at most one step
        volts = emulate_sipm(np.array([2, 2]), noise_u=np.array([0.0, 1.0]))
        assert np.all(np.isfinite(volts))
        assert np.abs(invert_sipm(volts) - 2).max() <= 1


def test_resolution_type_is_frozen():
    res = Resolution(1.0, False)
    with pytest.raises(AttributeError):
        res.value = 2.0


def _old_poisson_counts(u, lam, max_photons):
    """poisson_counts as it was before it updated p, cdf and n in place."""
    u = np.asarray(u, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    p = np.exp(-lam)
    cdf = p.copy()
    n = np.zeros(lam.shape, dtype=np.int64)
    for k in range(1, max_photons + 1):
        n += u > cdf
        p = p * (lam / k)
        cdf = cdf + p
        if k % POISSON_STOP_CHECK == 0 and not p.any():
            n += (max_photons - k) * (u > cdf)
            break
    clamped = u > cdf
    return n, clamped


def _old_counts(u_gain, u_h, u_v, i_h, i_v, config):
    """Port counts with the rate worked out per pulse from the intensities,
    gain * (mean * (i / (i_h + i_v))), then the old Poisson body."""
    gain = gain_from_uniform(u_gain, config.g2_target)
    total = i_h + i_v
    lam_h = gain * (config.mean_total_photons * (i_h / total))
    lam_v = gain * (config.mean_total_photons * (i_v / total))
    n_h, clamped_h = _old_poisson_counts(u_h, lam_h, config.max_photons)
    n_v, clamped_v = _old_poisson_counts(u_v, lam_v, config.max_photons)
    return n_h, n_v, clamped_h | clamped_v


def _assert_bitwise_equal(got, want):
    for x, y in zip(got, want, strict=True):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape
        np.testing.assert_array_equal(x, y)


# 16 and 17 sit either side of the first early-stop check, 100 runs past
# several; a rate of 1e-300 underflows p at once, so the early stop runs.
OLD_PATH_MAX_PHOTONS = [1, 5, 16, 17, 100]
OLD_PATH_MEANS = [1e-300, 0.05, 1.0, 6.0, 40.0]


class TestCountsMatchTheOldPerPulsePath:
    @settings(max_examples=80, deadline=None)
    @given(max_photons=st.sampled_from(OLD_PATH_MAX_PHOTONS),
           rates=st.lists(st.sampled_from([0.0, 1e-300, 0.3, 5.0, 50.0, 746.0]),
                          min_size=1, max_size=40),
           data=st.data())
    def test_poisson_counts_match_the_old_body(self, max_photons, rates, data):
        u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(rates),
                                        max_size=len(rates))))
        lam = np.array(rates)
        _assert_bitwise_equal(poisson_counts(u, lam, max_photons),
                              _old_poisson_counts(u, lam, max_photons))

    @settings(max_examples=40, deadline=None)
    @given(max_photons=st.sampled_from(OLD_PATH_MAX_PHOTONS),
           g2=st.sampled_from([1.0, 2.5]),
           mean=st.sampled_from(OLD_PATH_MEANS),
           preset=st.sampled_from([(540.0, THETA_SPLIT), (500.0, THETA_MIX)]),
           seed=st.integers(0, 2**64 - 1),
           start=st.integers(0, 2**40),
           count=st.integers(0, 2000))
    def test_session_draw_matches_the_per_pulse_rate(self, max_photons, g2, mean, preset,
                                                     seed, start, count):
        attenuation = AttenuationConfig(mean_total_photons=mean, g2_target=g2,
                                        max_photons=max_photons)
        cfg = session.SessionConfig(seed=seed, lambda_nm=preset[0], decode_theta=preset[1],
                                    attenuation=attenuation)
        channel = session.ChannelModel.from_config(cfg)
        got = session._draw_batch(cfg, session._rate_tables(cfg, channel), start, count)
        u_gain, u_h, u_v, alice, basis = pulse_randoms(seed, STREAM_SESSION, start, count)
        want = _old_counts(u_gain, u_h, u_v, channel.itable[alice, basis, 0],
                           channel.itable[alice, basis, 1], attenuation)
        _assert_bitwise_equal(got, (*want[:2], alice, basis, want[2]))

    @settings(max_examples=40, deadline=None)
    @given(max_photons=st.sampled_from(OLD_PATH_MAX_PHOTONS),
           g2=st.sampled_from([1.0, 2.5]),
           mean=st.sampled_from(OLD_PATH_MEANS),
           i_h=st.floats(0.0, 2.0), i_v=st.floats(1e-6, 2.0),
           seed=st.integers(0, 2**64 - 1),
           count=st.integers(0, 2000))
    def test_detector_draw_matches_the_per_pulse_rate(self, max_photons, g2, mean, i_h, i_v,
                                                      seed, count):
        attenuation = AttenuationConfig(mean_total_photons=mean, g2_target=g2,
                                        max_photons=max_photons)
        batch = draw_photon_counts(i_h, i_v, attenuation, seed, count)
        u_gain, u_h, u_v, _, _ = pulse_randoms(seed, STREAM_DETECTOR, 0, count)
        want = _old_counts(u_gain, u_h, u_v, np.asarray(i_h), np.asarray(i_v), attenuation)
        _assert_bitwise_equal(astuple(batch), want)
