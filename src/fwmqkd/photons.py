"""Photon statistics of the attenuated signal at the two detector ports.

Each pulse carries a random overall gain (a Gamma variate that reproduces a
requested zero-delay correlation g2) and the two ports then receive
independent Poisson counts whose means split the per-pulse budget in
proportion to the port intensities.  Counts are clamped at a configurable
photon-number resolution, mirroring a detector that cannot distinguish
higher numbers.

All randomness flows through the counter-based generator in _kernels, so a
batch of pulses is reproducible from (seed, stream, pulse index) alone and
independent of batch boundaries.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, ndtri

from ._kernels import STREAM_DETECTOR, poisson_bracket, poisson_counts, pulse_randoms
from .errors import DegenerateInputError, ParameterError

VOLTS_PER_PHOTON = 0.6
SIPM_NOISE_VOLTS = 0.05

# The gain map is tabulated at u = j / GAIN_KNOTS, and each cell's gain
# bracket is widened by GAIN_SLACK relative at both ends (see gain_cells).
GAIN_KNOTS = 1 << 12
GAIN_SLACK = 2.0**-24


@dataclass(frozen=True)
class AttenuationConfig:
    """Mean photon budget per pulse and the pulse-to-pulse gain statistics.

    The seed is deliberately not part of this config: one run-level seed
    governs every stream of an artifact, so attenuation stays a pure
    description of the source.
    """

    mean_total_photons: float = 1.0
    g2_target: float = 1.0
    max_photons: int = 5

    def __post_init__(self) -> None:
        if self.mean_total_photons <= 0:
            raise ParameterError("mean_total_photons must be positive")
        if self.g2_target < 1.0:
            raise ParameterError("g2_target below 1 is not reachable with a gain mixture")
        if self.max_photons < 1:
            raise ParameterError("max_photons must be at least 1")


def gain_from_uniform(u, g2: float):
    """Map uniforms to Gamma-distributed gains with unit mean.

    The gain variance equals g2 - 1, which is exactly the excess the mixed
    Poisson counts show in their normalized second-order correlation.  At
    g2 = 1 the gain collapses to the constant 1 and no special function is
    evaluated.
    """
    var = g2 - 1.0
    if var < 0:
        raise ParameterError("g2 must be at least 1")
    u = np.asarray(u, dtype=np.float64)
    if var == 0.0:
        return np.ones_like(u)
    return gammaincinv(1.0 / var, u) * var


@dataclass(frozen=True)
class DetectionBatch:
    """Port counts of a contiguous run of pulses, and where either clamped."""

    n_h: np.ndarray
    n_v: np.ndarray
    clamped: np.ndarray


def draw_photon_counts(
    i_h,
    i_v,
    config: AttenuationConfig,
    seed: int,
    count: int,
    start: int = 0,
    stream: int = STREAM_DETECTOR,
) -> DetectionBatch:
    """Draw per-pulse photon counts for both ports.

    i_h and i_v may be scalars or per-pulse arrays of length count.
    """
    if count < 0:
        raise ParameterError("count must be non-negative")
    i_h = np.asarray(i_h, dtype=np.float64)
    i_v = np.asarray(i_v, dtype=np.float64)
    if np.any(i_h < 0) or np.any(i_v < 0):
        raise ParameterError("intensities must be non-negative")
    total = i_h + i_v
    if np.any(total <= 0):
        raise DegenerateInputError("zero total intensity cannot split a photon budget")

    u_gain, u_h, u_v, _, _ = pulse_randoms(seed, stream, start, count)
    rate_h, rate_v = port_rates(i_h, i_v, config)
    return DetectionBatch(*counts_from_rates(u_gain, u_h, u_v, rate_h, rate_v, config))


def port_rates(i_h, i_v, config: AttenuationConfig):
    """Each port's share of the photon budget, mean * (i / (i_h + i_v)),
    evaluated in that order, for intensities with a positive sum."""
    total = i_h + i_v
    return (config.mean_total_photons * (i_h / total),
            config.mean_total_photons * (i_v / total))


def counts_from_rates(u_gain, u_h, u_v, rate_h, rate_v, config: AttenuationConfig):
    """Map one batch of pulse uniforms to clamped port counts.

    Each port's Poisson mean is the gain times its port_rates share,
    gain * rate.  u_gain, u_h and u_v are 1-D arrays of uniforms in [0, 1);
    rate_h and rate_v are scalars or per-pulse arrays.  Returns
    (n_h, n_v, clamped), clamped where either port clamped.

    At g2 > 1 the counts are poisson_counts(u, gain * rate) without the
    gain: a pulse in knot cell j = floor(u_gain * GAIN_KNOTS) has its gain
    inside gain_cells' bracket [lo_j, hi_j], and rounding is monotone, so
    its means lie in [lo_j * rate, hi_j * rate].  poisson_bracket decides
    every level at both ends of that range, and a decided count equals the
    exact one.  Only a pulse that either port leaves undecided, or that
    lies in the last cell, whose gain is unbounded, takes the exact path:
    gain_from_uniform, then poisson_counts, on that subset alone.  Both are
    elementwise, so the subset gets the bits the whole batch would.  At
    g2 = 1, or when the table fails its check, every pulse takes that path.
    """
    g2 = config.g2_target
    cells = gain_cells(g2) if g2 > 1.0 else None
    if cells is None:
        return _exact_counts(u_gain, u_h, u_v, rate_h, rate_v, config)
    u_gain = np.asarray(u_gain, dtype=np.float64)
    cell = (u_gain * GAIN_KNOTS).astype(np.intp)
    lo, hi = cells[0][cell], cells[1][cell]
    n_h, clamped_h, decided_h = poisson_bracket(u_h, lo * rate_h, hi * rate_h, config.max_photons)
    n_v, clamped_v, decided_v = poisson_bracket(u_v, lo * rate_v, hi * rate_v, config.max_photons)
    clamped = clamped_h | clamped_v
    redo = np.flatnonzero(~(decided_h & decided_v) | (cell == GAIN_KNOTS - 1))
    if redo.size:
        n_h[redo], n_v[redo], clamped[redo] = _exact_counts(
            u_gain[redo], u_h[redo], u_v[redo], _pick(rate_h, redo), _pick(rate_v, redo), config)
    return n_h, n_v, clamped


def _exact_counts(u_gain, u_h, u_v, rate_h, rate_v, config: AttenuationConfig):
    """Every pulse's gain from gain_from_uniform, then both Poisson draws."""
    gain = gain_from_uniform(u_gain, config.g2_target)
    n_h, clamped_h = poisson_counts(u_h, gain * rate_h, config.max_photons)
    n_v, clamped_v = poisson_counts(u_v, gain * rate_v, config.max_photons)
    return n_h, n_v, clamped_h | clamped_v


def _pick(rate, idx):
    """A scalar rate, or a per-pulse rate array's entries at idx."""
    rate = np.asarray(rate, dtype=np.float64)
    return rate if rate.ndim == 0 else rate[idx]


@functools.lru_cache(maxsize=8)
def gain_cells(g2: float):
    """Gain brackets (lo, hi) of the GAIN_KNOTS cells of u, or None.

    With G_j = gain_from_uniform(j / GAIN_KNOTS, g2), cell j covers
    u in [j / GAIN_KNOTS, (j + 1) / GAIN_KNOTS) and gets
    lo_j = G_j * (1 - GAIN_SLACK) and hi_j = G_{j+1} * (1 + GAIN_SLACK).
    The last cell's G_{j+1} would be gammaincinv(a, 1) = inf; its hi is a
    finite placeholder, since counts_from_rates sends that cell to the exact
    path.  The knots are exact (GAIN_KNOTS is a power of two) and so is the
    cell index floor(u * GAIN_KNOTS).

    The bracket holds every computed gain of its cell as long as
    gammaincinv(a, .) never decreases by more than GAIN_SLACK / 2 relative
    from one u to a larger one.  gammaincinv is not monotone to the last
    bit: its value wobbles by up to a few hundred ulps (about 5e-14
    relative was the most seen, at g2 = 50), and a u one ulp past a knot can
    give a gain just below the knot's, so an unwidened bracket would not
    hold.  Every table
    is checked to have finite, non-decreasing knots; if one does not, this
    returns None and every pulse takes the exact path.  Both arrays are
    read-only, 64 KiB in all, built on first use of each g2.
    """
    g = gain_from_uniform(np.arange(GAIN_KNOTS) / GAIN_KNOTS, g2)
    if not (np.all(np.isfinite(g)) and np.all(np.diff(g) >= 0.0)):
        return None
    lo = g * (1.0 - GAIN_SLACK)
    hi = np.append(g[1:], g[-1]) * (1.0 + GAIN_SLACK)
    for a in (lo, hi):
        a.flags.writeable = False
    return lo, hi


def compute_g2(total_counts) -> float:
    """Normalized second-order correlation <n(n-1)> / <n>^2 of integer pulse
    totals: g2_from_tally of one block, with the totals standing in for n_H."""
    n = np.asarray(total_counts, dtype=np.int64)
    return g2_from_tally(tally_pairs(n, np.zeros_like(n)))


@dataclass(frozen=True)
class ContrastStats:
    """Contrast estimates over a set of pulse records.

    p_bar averages the per-record contrast over the m_used records that saw
    at least one photon; p_cum is the contrast of the pooled counts.  sigma
    is the standard error of p_bar and is reported as 0.0 when fewer than two
    records contribute, since a spread cannot be estimated from them.
    """

    p_bar: float
    p_cum: float
    sigma: float
    m_total: int
    m_used: int
    total_h: int
    total_v: int

    def to_dict(self) -> dict:
        return {
            "N_H": self.total_h,
            "N_V": self.total_v,
            "P_cum": self.p_cum,
            "P_bar": self.p_bar,
            "sigma_P": self.sigma,
            "M": self.m_total,
            "M_used": self.m_used,
        }


def accumulate_contrast(n_h, n_v) -> ContrastStats:
    """Reduce per-pulse counts to contrast estimates: contrast_from_tally of
    one block."""
    return contrast_from_tally(tally_pairs(n_h, n_v))


def tally_pairs(n_h, n_v) -> Counter:
    """Count the records of a block at each distinct (n_H, n_V) pair.

    Every statistic of the records depends only on these counts, so a run
    can add up the tallies of its blocks (Counter.update) and keep nothing
    else.  The pairs are found by one np.unique over a 1-D key.
    """
    n_h = np.asarray(n_h, dtype=np.int64)
    n_v = np.asarray(n_v, dtype=np.int64)
    if n_h.shape != n_v.shape:
        raise ParameterError("port count arrays must have matching shapes")
    if n_h.size == 0:
        return Counter()
    low_h, low_v = int(n_h.min()), int(n_v.min())
    width = int(n_v.max()) - low_v + 1
    if (int(n_h.max()) - low_h + 1) * width > 2**63:
        return Counter(zip(n_h.ravel().tolist(), n_v.ravel().tolist()))
    keys, counts = np.unique((n_h - low_h) * width + (n_v - low_v), return_counts=True)
    h, v = np.divmod(keys, width)
    return Counter(dict(zip(zip((h + low_h).tolist(), (v + low_v).tolist()), counts.tolist())))


def contrast_from_tally(pairs: Counter) -> ContrastStats:
    """Contrast estimates of the records a tally counts.

    Each distinct pair's contrast, and its squared residual, is one float
    operation as it would be per record.  Their sums over the records are
    taken as exact fractions and rounded once, which is the correctly
    rounded sum math.fsum gives over the records one by one.
    """
    m_total = sum(pairs.values())
    total_h = sum(h * c for (h, _), c in pairs.items())
    total_v = sum(v * c for (_, v), c in pairs.items())
    pooled = total_h + total_v
    if pooled == 0:
        raise DegenerateInputError("no photons in any record, contrast is undefined")
    p_cum = (total_h - total_v) / pooled
    used = [((h - v) / (h + v), c) for (h, v), c in pairs.items() if h + v > 0]
    m_used = sum(c for _, c in used)
    p_bar = _exact_sum(used) / m_used
    if m_used < 2:
        sigma = 0.0
    else:
        residual = _exact_sum(((p - p_bar) * (p - p_bar), c) for p, c in used)
        sigma = math.sqrt(residual / (m_used * (m_used - 1)))
    return ContrastStats(p_bar, p_cum, sigma, m_total, m_used, total_h, total_v)


def g2_from_tally(pairs: Counter) -> float:
    """Normalized second-order correlation <n(n-1)> / <n>^2 of the pulse
    totals n = n_H + n_V a tally counts.

    The sums of n and n(n-1) are exact integers.  While they stay below
    2**53, a float sum over the records is exact too, so the result is the
    per-record float mean's bit for bit.
    """
    count = sum(pairs.values())
    s1 = sum((h + v) * c for (h, v), c in pairs.items())
    s2 = sum((h + v) * (h + v - 1) * c for (h, v), c in pairs.items())
    if s1 == 0:
        raise DegenerateInputError("no photons recorded, g2 is undefined")
    mean = s1 / count
    return (s2 / count) / (mean * mean)


def _exact_sum(terms) -> float:
    """Sum of value * count over (float, int) terms, rounded once.

    Every float is an integer over a power of two, so the sum is one exact
    fraction over the largest of those powers, and int / int rounds it
    correctly.
    """
    ratios = [(value.as_integer_ratio(), count) for value, count in terms]
    scale = max(d for (_, d), _ in ratios)
    return sum(n * count * (scale // d) for (n, d), count in ratios) / scale


@dataclass(frozen=True)
class Resolution:
    """Separation of two contrast estimates in units of their joint error."""

    value: float
    saturated: bool


def resolution(stats_a: ContrastStats, stats_b: ContrastStats) -> Resolution:
    """Distinguishability |p_bar_a - p_bar_b| / sqrt(sigma_a^2 + sigma_b^2).

    When both spreads are zero the settings are either identical or
    trivially separated; the value saturates to inf and the flag records
    that the denominator carried no information.
    """
    denom = math.hypot(stats_a.sigma, stats_b.sigma)
    num = abs(stats_a.p_bar - stats_b.p_bar)
    if denom == 0.0:
        return Resolution(math.inf, True)
    return Resolution(num / denom, False)


def emulate_sipm(counts, noise_u=None):
    """Convert photon counts to detector voltages, VOLTS_PER_PHOTON each.

    noise_u, when given, is a uniform array mapped through the normal
    quantile to gaussian jitter of width SIPM_NOISE_VOLTS, a twelfth of the
    single-photon step, so a misround needs a six sigma excursion.
    """
    volts = np.asarray(counts, dtype=np.float64) * VOLTS_PER_PHOTON
    if noise_u is not None:
        u = np.clip(np.asarray(noise_u, dtype=np.float64), 1e-16, 1.0 - 1e-16)
        volts = volts + SIPM_NOISE_VOLTS * ndtri(u)
    return volts


def invert_sipm(volts) -> np.ndarray:
    """Recover photon numbers from voltages by rounding to the nearest step."""
    counts = np.rint(np.asarray(volts, dtype=np.float64) / VOLTS_PER_PHOTON)
    return np.maximum(counts, 0.0).astype(np.int64)
