"""Gain mixing, per-port Poisson counts, contrast reduction, and the SiPM model."""

import math
import warnings
from collections import Counter
from dataclasses import astuple

import mpmath

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fwmqkd import _kernels, photons, session
from fwmqkd._kernels import (
    BRACKET_MAX_LEVEL,
    BRACKET_MAX_RATE,
    CDF_SLACK,
    POISSON_STOP_CHECK,
    STREAM_DETECTOR,
    STREAM_SESSION,
    poisson_counts,
    pulse_randoms,
)
from fwmqkd.errors import DegenerateInputError, ParameterError
from fwmqkd.photons import (
    SIPM_COUNT_BOUND,
    SIPM_SAFE_U,
    AttenuationConfig,
    ContrastStats,
    Resolution,
    GAIN_KNOTS,
    GAIN_SLACK,
    accumulate_contrast,
    contrast_from_tally,
    counts_from_rates,
    draw_photon_counts,
    emulate_sipm,
    g2_from_tally,
    gain_cells,
    gain_from_uniform,
    invert_sipm,
    resolution,
    sipm_roundtrip_ok,
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
    for name, bad in [("mean_total_photons", math.nan), ("mean_total_photons", math.inf),
                      ("g2_target", math.nan), ("g2_target", math.inf), ("max_photons", 2.5)]:
        with pytest.raises(ParameterError, match=name):
            AttenuationConfig(**{name: bad})
    assert AttenuationConfig(max_photons=np.int64(3)).max_photons == 3


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


def _detector_draw(i_h, i_v, cfg, seed, count, start=0):
    """(n_h, n_v, clamped) of draw_photon_counts on STREAM_DETECTOR."""
    n_h, n_v, _, clamped = draw_photon_counts(i_h, i_v, cfg, seed, STREAM_DETECTOR, start, count)
    return n_h, n_v, clamped


class TestDrawPhotonCounts:
    def test_dark_port_stays_dark(self):
        n_h, n_v, _ = _detector_draw(0.0, 1.0, AttenuationConfig(), seed=3, count=5000)
        assert not n_h.any()
        assert n_v.any()

    def test_budget_mean_is_respected(self):
        cfg = AttenuationConfig(mean_total_photons=1.0)
        n_h, n_v, _ = _detector_draw(0.5, 0.5, cfg, seed=10, count=100_000)
        total = n_h + n_v
        assert total.mean() == pytest.approx(1.0, abs=0.02)

    def test_ports_split_in_proportion_to_intensity(self):
        cfg = AttenuationConfig(mean_total_photons=1.0)
        n_h, n_v, _ = _detector_draw(0.3, 0.1, cfg, seed=21, count=200_000)
        assert n_h.mean() / n_v.mean() == pytest.approx(3.0, abs=0.2)

    def test_counts_respect_the_resolution_limit(self):
        cfg = AttenuationConfig(mean_total_photons=4.0, max_photons=5)
        n_h, n_v, clamped = _detector_draw(0.5, 0.5, cfg, seed=2, count=20_000)
        assert n_h.max() <= 5
        assert n_v.max() <= 5
        assert clamped.any()

    def test_clamping_is_rare_at_the_working_point(self):
        cfg = AttenuationConfig(mean_total_photons=1.0, g2_target=1.2)
        _, _, clamped = _detector_draw(0.5, 0.5, cfg, seed=9, count=100_000)
        rate = clamped.mean()
        assert 0.0 < rate < 0.005

    def test_batches_are_chunk_invariant(self):
        cfg = AttenuationConfig(g2_target=1.2)
        whole = _detector_draw(0.4, 0.6, cfg, seed=77, count=200)
        head = _detector_draw(0.4, 0.6, cfg, seed=77, count=120)
        tail = _detector_draw(0.4, 0.6, cfg, seed=77, count=80, start=120)
        np.testing.assert_array_equal(whole[0], np.concatenate([head[0], tail[0]]))
        np.testing.assert_array_equal(whole[1], np.concatenate([head[1], tail[1]]))
        np.testing.assert_array_equal(whole[2], np.concatenate([head[2], tail[2]]))

    def test_poissonian_ports_are_uncorrelated(self):
        n_h, n_v, _ = _detector_draw(0.5, 0.5, AttenuationConfig(), seed=6, count=200_000)
        rho = np.corrcoef(n_h, n_v)[0, 1]
        assert abs(rho) < 0.01

    def test_shared_gain_bunches_the_ports_together(self):
        cfg = AttenuationConfig(g2_target=2.0)
        n_h, n_v, _ = _detector_draw(0.5, 0.5, cfg, seed=6, count=100_000)
        rho = np.corrcoef(n_h, n_v)[0, 1]
        assert rho > 0.2

    def test_input_validation(self):
        cfg = AttenuationConfig()
        with pytest.raises(ParameterError):
            _detector_draw(-0.1, 0.5, cfg, seed=1, count=10)
        with pytest.raises(DegenerateInputError):
            _detector_draw(0.0, 0.0, cfg, seed=1, count=10)
        with pytest.raises(ParameterError):
            _detector_draw(0.5, 0.5, cfg, seed=1, count=-1)
        for count in (10, 3):
            with pytest.raises(ParameterError, match="scalars"):
                _detector_draw(np.full(3, 0.5), 0.5, cfg, seed=1, count=count)


def _g2(n_h, n_v):
    """g2 of one block of port counts."""
    return g2_from_tally(tally_pairs(n_h, n_v))


class TestG2:
    def test_single_photon_pulses_show_no_coincidences(self):
        assert _g2(np.ones(100, dtype=np.int64), np.zeros(100, dtype=np.int64)) == 0.0

    def test_constant_pairs(self):
        assert _g2(np.full(100, 1), np.full(100, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_half_empty_pairs(self):
        assert _g2(np.array([0, 2] * 50), np.zeros(100)) == pytest.approx(1.0, abs=1e-15)

    def test_empty_record_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            _g2(np.zeros(10, dtype=np.int64), np.zeros(10, dtype=np.int64))

    def test_measured_g2_tracks_the_poisson_target(self):
        n_h, n_v, _ = _detector_draw(0.5, 0.5, AttenuationConfig(), seed=15, count=200_000)
        assert _g2(n_h, n_v) == pytest.approx(1.0, abs=0.05)


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
                       lambda: accumulate_contrast(n_h, n_v), lambda: _g2(n_h, n_v)):
            with pytest.raises(DegenerateInputError):
                reduce()
        return
    # repr tells every float apart bit for bit, -0.0 from 0.0 included
    expected = list(map(repr, astuple(_reference_contrast(n_h, n_v))))
    assert list(map(repr, astuple(contrast_from_tally(tally)))) == expected
    assert list(map(repr, astuple(accumulate_contrast(n_h, n_v)))) == expected
    g2 = repr(_reference_g2(n_h + n_v))
    assert repr(g2_from_tally(tally)) == g2
    assert repr(_g2(n_h, n_v)) == g2


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
        volts = emulate_sipm(np.array([0, 1, 3]), noise_u=np.full(3, 0.5))
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
        # 0.41 V it shifts the rounding by one step
        counts, u = np.array([2, 2]), np.array([0.0, 1.0])
        volts = emulate_sipm(counts, noise_u=u)
        assert np.all(np.isfinite(volts))
        np.testing.assert_array_equal(invert_sipm(volts), [1, 3])
        assert sipm_roundtrip_ok(counts, u) == 0

    # Each edge of the decided band, one ulp either side, the clip limits and
    # the first misround (z = -6).
    EDGE_U = [0.0, 1.0 - 2**-53, 9.865520423775206e-10, 1.0 - 9.865520423775206e-10,
              *(np.nextafter(edge, to) for edge in (SIPM_SAFE_U, 1.0 - SIPM_SAFE_U)
                for to in (-np.inf, edge, np.inf))]

    @given(st.lists(st.tuples(
        st.one_of(st.integers(0, 5), st.integers(-2, -1),
                  st.integers(SIPM_COUNT_BOUND - 2, SIPM_COUNT_BOUND + 2)),
        st.one_of(st.sampled_from(EDGE_U), st.floats(0.0, 1.0, exclude_max=True),
                  st.floats(0.0, 2e-8), st.floats(1.0 - 2e-8, 1.0, exclude_max=True))),
        max_size=40))
    def test_decided_roundtrip_equals_the_exact_count(self, pulses):
        counts = np.array([n for n, _ in pulses], dtype=np.int64)
        u = np.array([u for _, u in pulses], dtype=np.float64)
        exact = np.count_nonzero(invert_sipm(emulate_sipm(counts, u)) == counts)
        assert sipm_roundtrip_ok(counts, u) == exact

    def test_only_the_tail_pulses_are_emulated(self, monkeypatch):
        seen = []
        monkeypatch.setattr(photons, "emulate_sipm",
                            lambda counts, noise_u: seen.append(counts.size) or emulate_sipm(counts, noise_u))
        counts = np.array([0, 1, 5, SIPM_COUNT_BOUND, -1, 3])
        u = np.array([0.5, SIPM_SAFE_U, 0.0, 0.5, 0.5, 1.0 - SIPM_SAFE_U])
        assert sipm_roundtrip_ok(counts, u) == 4
        assert seen == [3]

    def test_an_empty_block_counts_nothing_and_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sipm_roundtrip_ok(np.array([], dtype=np.int64), np.array([])) == 0


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
        got = draw_photon_counts(*channel.itable.reshape(4, 2).T, attenuation, seed,
                                 STREAM_SESSION, start, count)
        u_gain, u_h, u_v, alice, basis = pulse_randoms(seed, STREAM_SESSION, start, count)
        want = _old_counts(u_gain, u_h, u_v, channel.itable[alice, basis, 0],
                           channel.itable[alice, basis, 1], attenuation)
        _assert_bitwise_equal(got, (*want[:2], (alice << 1) | basis, want[2]))

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
        got = _detector_draw(i_h, i_v, attenuation, seed, count)
        u_gain, u_h, u_v, _, _ = pulse_randoms(seed, STREAM_DETECTOR, 0, count)
        want = _old_counts(u_gain, u_h, u_v, np.asarray(i_h), np.asarray(i_v), attenuation)
        _assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("g2", [1.0, 2.5])
    @settings(max_examples=40, deadline=None)
    @given(max_photons=st.sampled_from(OLD_PATH_MAX_PHOTONS),
           mean=st.sampled_from(OLD_PATH_MEANS),
           i_h=st.floats(0.0, 2.0), i_v=st.floats(1e-6, 2.0),
           stream=st.sampled_from([STREAM_SESSION, STREAM_DETECTOR]),
           seed=st.integers(0, 2**64 - 1),
           start=st.integers(0, 2**40),
           count=st.integers(0, 2000))
    def test_four_equal_settings_draw_what_the_scalar_pair_draws(self, g2, max_photons, mean,
                                                                 i_h, i_v, stream, seed, start,
                                                                 count):
        # The scalar pair only saves the per-pulse gather of the rate tables.
        attenuation = AttenuationConfig(mean_total_photons=mean, g2_target=g2,
                                        max_photons=max_photons)
        scalar = draw_photon_counts(i_h, i_v, attenuation, seed, stream, start, count)
        table = draw_photon_counts(np.full(4, i_h), np.full(4, i_v), attenuation, seed, stream,
                                   start, count)
        _assert_bitwise_equal(scalar, table)


def _ref_counts_from_rates(u_gain, u_h, u_v, rate_h, rate_v, config):
    """counts_from_rates as it was before the gain-knot bracket: every
    pulse's gain from gammaincinv, then both Poisson draws."""
    gain = gain_from_uniform(u_gain, config.g2_target)
    n_h, clamped_h = poisson_counts(u_h, gain * rate_h, config.max_photons)
    n_v, clamped_v = poisson_counts(u_v, gain * rate_v, config.max_photons)
    return n_h, n_v, clamped_h | clamped_v


def _counts_per_pulse(u_gain, u_h, u_v, rate_h, rate_v, config):
    """counts_from_rates on scalar or per-pulse rates: 1-entry tables and
    setting 0, or a table of every pulse's rates and setting i for pulse i."""
    rate_h, rate_v = (np.asarray(r, dtype=np.float64).reshape(-1)
                      for r in np.broadcast_arrays(rate_h, rate_v))
    setting = 0 if rate_h.size == 1 else np.arange(rate_h.size)
    return counts_from_rates(u_gain, u_h, u_v, rate_h, rate_v, setting, config)


def _cdf_levels(lam, levels):
    """The CDF after each of levels + 1 steps of poisson_counts' recurrence,
    with its operations in its order: rows are levels 0..levels."""
    lam = np.asarray(lam, dtype=np.float64)
    p = np.exp(-lam)
    cdf = p.copy()
    out = [cdf.copy()]
    for k in range(1, levels + 1):
        p *= lam / k
        cdf += p
        out.append(cdf.copy())
    return np.array(out)


BRACKET_G2 = [1.0, 1.0 + 2**-52, 1.01, 1.2, 2.0, 2.5, 3.0, 50.0]
BRACKET_RATES = [0.0, 1e-300, 0.05, 0.5, 1.0, 5.0, 40.0, 300.0, 746.0]


@st.composite
def _gain_uniforms(draw, n):
    """u_gain on a knot, one ulp either side of one, at 0, in the last knot
    cell, or anywhere in [0, 1)."""
    knots = GAIN_KNOTS

    def one():
        kind = draw(st.sampled_from(["knot", "below", "above", "zero", "last", "any"]))
        j = draw(st.integers(1, knots - 1))
        if kind == "knot":
            return j / knots
        if kind == "below":
            return np.nextafter(j / knots, 0.0)
        if kind == "above":
            return np.nextafter(j / knots, 1.0)
        if kind == "zero":
            return 0.0
        if kind == "last":
            return draw(st.sampled_from([1.0 - 1.0 / knots, 1.0 - 2**-53,
                                         np.nextafter(1.0 - 1.0 / knots, 1.0)]))
        return draw(st.integers(0, 2**53 - 1)) * 2**-53
    return np.array([one() for _ in range(n)])


@st.composite
def _bracket_case(draw):
    g2 = draw(st.one_of(st.sampled_from(BRACKET_G2), st.floats(1.0 + 2**-52, 50.0)))
    max_photons = draw(st.one_of(st.sampled_from([1, 5, 16, 17, 100, 120]),
                                 st.integers(1, 120)))
    n = draw(st.integers(0, 40))
    u_gain = draw(_gain_uniforms(n))
    rate = st.one_of(st.sampled_from(BRACKET_RATES), st.floats(0.0, 800.0))
    rates = []
    for _ in range(2):
        if draw(st.booleans()):
            rates.append(draw(rate))
        else:
            rates.append(np.array([draw(rate) for _ in range(n)]))
    # Port uniforms anywhere, or within an ulp of one of the pulse's own
    # computed CDF levels, where a count turns on the last bit.
    lam = gain_from_uniform(u_gain, g2)
    ports = []
    for r in rates:
        levels = _cdf_levels(lam * r, max_photons)
        u = np.empty(n)
        for i in range(n):
            if draw(st.booleans()):
                u[i] = draw(st.integers(0, 2**53 - 1)) * 2**-53
            else:
                c = levels[draw(st.integers(0, max_photons)), i]
                u[i] = min(np.nextafter(c, draw(st.sampled_from([0.0, c, 2.0]))), 1.0 - 2**-53)
        ports.append(u)
    config = AttenuationConfig(g2_target=g2, max_photons=max_photons)
    return u_gain, ports[0], ports[1], rates[0], rates[1], config


@settings(max_examples=400, deadline=None)
@given(_bracket_case())
def test_counts_from_rates_match_the_per_pulse_gain_path(case):
    _assert_bitwise_equal(_counts_per_pulse(*case), _ref_counts_from_rates(*case))


# --- The two assumptions the bracket's exactness rests on ------------------


@pytest.mark.parametrize("g2", [g2 for g2 in BRACKET_G2 if g2 > 1.0])
def test_every_gain_table_has_finite_non_decreasing_knots(g2):
    lo, hi = gain_cells(g2)
    assert lo.shape == hi.shape == (GAIN_KNOTS,)
    assert not lo.flags.writeable and not hi.flags.writeable
    knots = gain_from_uniform(np.arange(GAIN_KNOTS) / GAIN_KNOTS, g2)
    assert np.all(np.isfinite(knots)) and np.all(np.diff(knots) >= 0.0)
    assert np.all(lo <= knots) and np.all(hi[:-1] >= knots[1:])
    assert gain_cells(g2) is gain_cells(g2)


def test_a_table_that_fails_its_check_sends_every_pulse_to_the_exact_path(monkeypatch):
    g2 = 1.0 + 2**-40   # a g2 no other test caches

    def decreasing(u, g2):
        return 1.0 - np.asarray(u)

    def no_bracket(*args):
        raise AssertionError("the bracket ran without a table")

    monkeypatch.setattr(photons, "gain_from_uniform", decreasing)
    try:
        assert gain_cells(g2) is None
        monkeypatch.undo()
        monkeypatch.setattr(photons, "poisson_bracket", no_bracket)
        rng = np.random.default_rng(3)
        case = (rng.random(500), rng.random(500), rng.random(500), 0.7, 0.3,
                AttenuationConfig(g2_target=g2))
        _assert_bitwise_equal(_counts_per_pulse(*case), _ref_counts_from_rates(*case))
    finally:
        gain_cells.cache_clear()


@settings(max_examples=300, deadline=None)
@given(g2=st.one_of(st.sampled_from(BRACKET_G2[1:]), st.floats(1.0 + 2**-52, 50.0)),
       data=st.data())
def test_every_gain_lies_inside_its_cell_bracket(g2, data):
    # gammaincinv(a, .) wobbles by a few ulps, so a u just past a knot can
    # give a gain below the knot's; GAIN_SLACK must cover that.
    u = data.draw(_gain_uniforms(50))
    u = u[u < 1.0 - 1.0 / GAIN_KNOTS]
    cell = (u * GAIN_KNOTS).astype(np.intp)
    lo, hi = gain_cells(g2)
    gain = gain_from_uniform(u, g2)
    assert np.all(lo[cell] <= gain) and np.all(gain <= hi[cell])


def test_gain_wobble_is_far_inside_the_slack():
    # Every u within 64 ulps of a knot: the largest relative step back from
    # the knot's gain, which GAIN_SLACK / 2 bounds in gain_cells' argument.
    worst = 0.0
    for g2 in BRACKET_G2[1:]:
        knots = gain_from_uniform(np.arange(1, GAIN_KNOTS) / GAIN_KNOTS, g2)
        for d in range(1, 65):
            u = np.arange(1, GAIN_KNOTS) / GAIN_KNOTS
            after = gain_from_uniform(u + d * 2**-53, g2)
            before = gain_from_uniform(u - d * 2**-53, g2)
            scale = np.where(knots > 0.0, knots, 1.0)
            worst = max(worst, ((knots - after) / scale).max(), ((before - knots) / scale).max())
    assert worst < GAIN_SLACK / 2**16


def _cdf_error_bound(k):
    """poisson_bracket's bound on the computed CDF's error at level k."""
    return (3 * k + 9) * 2.0**-53


def test_the_slack_covers_twice_the_error_bound_at_every_decided_level():
    assert 2 * _cdf_error_bound(BRACKET_MAX_LEVEL) + 2 * 2.0**-53 <= CDF_SLACK
    assert np.exp(-BRACKET_MAX_RATE) >= np.finfo(np.float64).tiny


def _exact_cdfs(lam, levels):
    """The Poisson CDF of the float lam at levels 0..levels, to 50 digits."""
    with mpmath.workdps(50):
        lam = mpmath.mpf(float(lam))
        term = mpmath.exp(-lam)
        total = term
        out = [total]
        for k in range(1, levels + 1):
            term = term * lam / k
            total += term
            out.append(total)
        return out


@settings(max_examples=60, deadline=None)
@given(lam=st.one_of(st.sampled_from([0.0, 1e-300, 2**-30, 0.5, 1.0, 7.5, 120.0,
                                      BRACKET_MAX_RATE]),
                     st.floats(0.0, BRACKET_MAX_RATE)),
       max_photons=st.integers(1, 120))
def test_the_computed_cdf_is_within_half_the_slack(lam, max_photons):
    computed = _cdf_levels(np.array([lam]), max_photons)[:, 0]
    for k, (c, exact) in enumerate(zip(computed, _exact_cdfs(lam, max_photons))):
        err = abs(mpmath.mpf(float(c)) - exact)
        assert err <= _cdf_error_bound(k) <= CDF_SLACK / 2, (lam, k, float(err))


@pytest.mark.parametrize("lam", [0.3, 350.0, BRACKET_MAX_RATE])
def test_the_cdf_error_bound_holds_up_to_the_last_decided_level(lam):
    computed = _cdf_levels(np.array([lam]), BRACKET_MAX_LEVEL)[:, 0]
    for k, (c, exact) in enumerate(zip(computed, _exact_cdfs(lam, BRACKET_MAX_LEVEL))):
        assert abs(mpmath.mpf(float(c)) - exact) <= _cdf_error_bound(k), (lam, k)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.0, 50.0), k=st.integers(0, 40))
def test_the_cdf_helper_is_poisson_counts_recurrence(lam, k):
    # A uniform at c_k stops at level k or below; one ulp above, past it.
    c = _cdf_levels(np.array([lam]), k)[k]
    n, _ = poisson_counts(c, np.array([lam]), k + 1)
    assert n[0] <= k
    if c[0] < 1.0:
        n, _ = poisson_counts(np.nextafter(c, 2.0), np.array([lam]), k + 1)
        assert n[0] == k + 1


# --- No floating-point warnings on any path --------------------------------

NO_WARNING_G2 = [1.0 + 2**-52, 1.2, 50.0]


@pytest.mark.parametrize("g2", NO_WARNING_G2)
def test_counts_from_rates_warns_about_nothing(g2, capfd):
    last = [1.0 - 2**-53, 1.0 - 1.0 / GAIN_KNOTS]
    u_gain = np.array(last + [0.0, 0.5, 1.0 / GAIN_KNOTS, 0.999])
    u = np.linspace(0.0, 1.0 - 2**-53, u_gain.size)
    config = AttenuationConfig(g2_target=g2, max_photons=100)
    # A zero rate against the last cell's unbounded gain, and means far past
    # BRACKET_MAX_RATE.
    for rate_h, rate_v in [(0.0, 1.0), (np.array([0.0, 5.0, 0.0, 1e-300, 800.0, 1.0]), 0.3),
                           (1e300, 1.0)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _counts_per_pulse(u_gain, u, u[::-1], rate_h, rate_v, config)
        _assert_bitwise_equal(got, _ref_counts_from_rates(u_gain, u, u[::-1], rate_h, rate_v,
                                                          config))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("g2", NO_WARNING_G2)
def test_a_small_detector_check_warns_about_nothing(g2, run_cli, tmp_path, capfd):
    pulses = 4000
    # Pulses 0..2 * pulses draw the counts; at least one is in the last cell.
    u_gain = pulse_randoms(6, STREAM_DETECTOR, 0, 2 * pulses)[0]
    assert np.any(u_gain >= 1.0 - 1.0 / GAIN_KNOTS)
    cfg = tmp_path / "c.json"
    cfg.write_text(f'{{"detector_check": {{"pulses": {pulses}, "g2_target": {g2!r}}}}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("detector-check", "--config", cfg, "--seed", 6, "--out", "out") == 0
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("cap", [1, 2, 7])
def test_pulses_past_the_last_decided_level_take_the_exact_path(cap, monkeypatch):
    # Shrink BRACKET_MAX_LEVEL below max_photons so the cap, not the clamp,
    # ends the loop for every pulse that may count past it.
    monkeypatch.setattr(_kernels, "BRACKET_MAX_LEVEL", cap)
    rng = np.random.default_rng(cap)
    for g2, mean, max_photons in [(1.2, 1.0, 20), (2.5, 5.0, 9), (50.0, 0.5, 120)]:
        case = (rng.random(3000), rng.random(3000), rng.random(3000), 0.8 * mean,
                rng.random(3000) * mean,
                AttenuationConfig(mean_total_photons=mean, g2_target=g2, max_photons=max_photons))
        _assert_bitwise_equal(_counts_per_pulse(*case), _ref_counts_from_rates(*case))


# --- The g2 = 1 count table -------------------------------------------------

TABLE_RATES = [0.0, 1e-300, 0.5, 746.0]
TABLE_MAX_PHOTONS = [1, 5, 16, 17, 126, 127, 1000]


def _near(values):
    """Each value, and the floats one ulp either side, inside [0, 1)."""
    u = np.concatenate([values, np.nextafter(values, -1.0), np.nextafter(values, 2.0)])
    return np.clip(u, 0.0, 1.0 - 2**-53)


def _table_uniforms(table, max_photons, setting, rng):
    """Port uniforms of the pulses at each setting: at and one ulp either side
    of every computed CDF level of that setting's rate, then anywhere."""
    levels = _cdf_levels(table, max_photons)
    u = rng.integers(0, 2**53, setting.size) * 2**-53
    for s in range(table.size):
        near = _near(np.unique(levels[:, s]))
        u[np.flatnonzero(setting == s)[:near.size]] = near
    return u


@st.composite
def _table_case(draw):
    max_photons = draw(st.one_of(st.sampled_from(TABLE_MAX_PHOTONS), st.integers(1, 200)))
    n_settings = draw(st.integers(1, photons.COUNT_TABLE_SETTINGS))
    rate = st.one_of(st.sampled_from(TABLE_RATES), st.floats(0.0, 800.0))
    tables = [np.array([draw(rate) for _ in range(n_settings)]) for _ in range(2)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Enough pulses for every level of every setting, or up to a whole block.
    per_setting = 3 * (max_photons + 1)
    n = draw(st.sampled_from([n_settings * per_setting, 1 << 14]))
    setting = np.resize(np.arange(n_settings), max(n, n_settings * per_setting))
    rng.shuffle(setting)
    u_h, u_v = (_table_uniforms(t, max_photons, setting, rng) for t in tables)
    return u_h, u_v, tables, setting, max_photons


@settings(max_examples=150, deadline=None)
@given(_table_case())
def test_the_count_table_gives_the_per_pulse_poisson_counts(case):
    u_h, u_v, (rate_h, rate_v), setting, max_photons = case
    config = AttenuationConfig(max_photons=max_photons)
    assert photons.count_buckets(rate_h, max_photons) is not None
    want_h, clamped_h = poisson_counts(u_h, rate_h[setting], max_photons)
    want_v, clamped_v = poisson_counts(u_v, rate_v[setting], max_photons)
    got = counts_from_rates(np.zeros(u_h.size), u_h, u_v, rate_h, rate_v, setting, config)
    _assert_bitwise_equal(got, (want_h, want_v, clamped_h | clamped_v))
    # One index for every pulse gives the same counts as an index array.
    first = counts_from_rates(np.zeros(u_h.size), u_h, u_v, rate_h, rate_v, 0, config)
    want_h, clamped_h = poisson_counts(u_h, np.full(u_h.size, rate_h[0]), max_photons)
    want_v, clamped_v = poisson_counts(u_v, np.full(u_v.size, rate_v[0]), max_photons)
    _assert_bitwise_equal(first, (want_h, want_v, clamped_h | clamped_v))


TABLE_CASES = [([0.5], 5), ([0.0, 1e-300, 0.5, 746.0], 1), ([0.3, 5.0, 40.0, 700.0], 17),
               ([0.02, 0.98, 1.0, 0.5], 126), ([2.0, 1e300, np.inf, 6.0], 127),
               ([0.5, 120.0], 1000), ([0.5, 3.0], 2000)]


@pytest.mark.parametrize("rates, max_photons", TABLE_CASES)
def test_every_decided_bucket_holds_the_count_at_both_of_its_ends(rates, max_photons):
    rates = np.array(rates)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = photons.count_buckets(rates, max_photons)
    n_buckets = photons.COUNT_BUCKETS
    assert table.shape == (rates.size, n_buckets)
    assert table.dtype == (np.int8 if max_photons < 127 else np.int64)
    assert not table.flags.writeable
    assert photons.count_buckets(rates.copy(), max_photons) is table
    assert table.min() >= -1 and table.max() <= max_photons + 1
    first = np.arange(n_buckets) / n_buckets
    last = np.nextafter(first + 1.0 / n_buckets, 0.0)
    # Only rates too large to bracket decide no bucket at all.
    assert np.array_equal((table >= 0).any(axis=1), rates <= BRACKET_MAX_RATE)
    for s in np.flatnonzero(rates <= BRACKET_MAX_RATE):
        rate, decided = rates[s], table[s] >= 0
        for u in (first, last):
            n, clamped = poisson_counts(u, np.full(n_buckets, rate), max_photons)
            np.testing.assert_array_equal(table[s][decided], (n + clamped)[decided])


@pytest.mark.parametrize("rates, max_photons", TABLE_CASES)
def test_a_bucket_is_decided_when_every_level_lies_the_slack_outside_it(rates, max_photons):
    # The table, rebuilt from the computed CDF levels alone: a bucket holds
    # the number of levels up to min(max_photons, BRACKET_MAX_LEVEL) that
    # lie more than CDF_SLACK below it, when every such level lies that far
    # below or above it and, past the cap, the last one lies above.
    rates = np.array(rates)
    table = photons.count_buckets(rates, max_photons)
    n_buckets = photons.COUNT_BUCKETS
    first = np.arange(n_buckets) / n_buckets
    last = np.nextafter(first + 1.0 / n_buckets, 0.0)
    top = min(max_photons, BRACKET_MAX_LEVEL)
    for s, rate in enumerate(rates):
        if not rate <= BRACKET_MAX_RATE:
            assert (table[s] == -1).all()
            continue
        levels = _cdf_levels(np.array(rate), top)
        below = levels[:, None] + CDF_SLACK < first
        above = last <= levels[:, None] - CDF_SLACK
        decided = (below | above).all(axis=0)
        if top < max_photons:
            decided &= above[top]
        want = np.where(decided, below.sum(axis=0), -1)
        np.testing.assert_array_equal(table[s], want)


def test_only_small_rate_tables_get_a_count_table():
    rates = np.linspace(0.1, 1.0, photons.COUNT_TABLE_SETTINGS + 1)
    assert photons.count_buckets(rates[:-1], 5) is not None
    assert photons.count_buckets(rates, 5) is None
    u = np.linspace(0.0, 1.0 - 2**-53, rates.size)
    got = counts_from_rates(u, u, u[::-1], rates, rates[::-1], np.arange(rates.size),
                            AttenuationConfig())
    _assert_bitwise_equal(got, _ref_counts_from_rates(u, u, u[::-1], rates, rates[::-1],
                                                      AttenuationConfig()))


@pytest.mark.parametrize("cap", [1, 2, 7])
def test_buckets_past_the_last_decided_level_take_the_exact_path(cap, monkeypatch):
    # Below max_photons, the cap and not the clamp ends the level loop.
    monkeypatch.setattr(_kernels, "BRACKET_MAX_LEVEL", cap)
    photons._count_buckets.cache_clear()
    try:
        rng = np.random.default_rng(cap)
        for rates, max_photons in [([0.8, 0.2, 3.0, 1e-300], 20), ([5.0], 9)]:
            rates = np.array(rates)
            setting = rng.integers(0, rates.size, 5000)
            u = rng.random(5000)
            got = counts_from_rates(u, u, u[::-1], rates, rates, setting,
                                    AttenuationConfig(max_photons=max_photons))
            want = _ref_counts_from_rates(u, u, u[::-1], rates[setting], rates[setting],
                                          AttenuationConfig(max_photons=max_photons))
            _assert_bitwise_equal(got, want)
    finally:
        photons._count_buckets.cache_clear()


@pytest.mark.parametrize("preset", [(540.0, THETA_SPLIT), (500.0, THETA_MIX)])
def test_a_default_session_sends_few_pulses_to_the_exact_path(preset, monkeypatch):
    seen = []

    def counted(u, lam, max_photons):
        seen.append(np.size(u))
        return poisson_counts(u, lam, max_photons)

    monkeypatch.setattr(photons, "poisson_counts", counted)
    cfg = session.SessionConfig(lambda_nm=preset[0], decode_theta=preset[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = session.run_session(cfg)
    # Each pulse on the exact path is one call's element at each port.
    assert 0 < sum(seen) / 2 <= 0.01 * report.total_pulses
