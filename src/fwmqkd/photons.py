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
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, ndtri

from ._kernels import poisson_bracket, poisson_counts, pulse_randoms
from .errors import DegenerateInputError, ParameterError

VOLTS_PER_PHOTON = 0.6
SIPM_NOISE_VOLTS = 0.05

# sipm_roundtrip_ok decides a pulse without the emulation when its noise
# uniform lies in [SIPM_SAFE_U, 1 - SIPM_SAFE_U] and its count in
# [0, SIPM_COUNT_BOUND); see there.
SIPM_SAFE_U = 1e-8
SIPM_COUNT_BOUND = 1 << 20

# The gain map is tabulated at u = j / GAIN_KNOTS, and each cell's gain
# bracket is widened by GAIN_SLACK relative at both ends (see gain_cells).
GAIN_KNOTS = 1 << 12
GAIN_SLACK = 2.0**-24

# At g2 = 1 the counts are looked up in COUNT_BUCKETS buckets of u per
# setting, for rate tables of at most COUNT_TABLE_SETTINGS entries (a
# session's four); see count_buckets.
COUNT_BUCKETS = 1 << 12
COUNT_TABLE_SETTINGS = 4


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
        if not 0 < self.mean_total_photons < math.inf:
            raise ParameterError("mean_total_photons must be positive and finite")
        if not 1.0 <= self.g2_target < math.inf:
            raise ParameterError("g2_target must be finite and at least 1 for a gain mixture")
        if not isinstance(self.max_photons, numbers.Integral) or not 1 <= self.max_photons < 2**63:
            raise ParameterError("max_photons must be an integer from 1 to 2^63 - 1")


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


def draw_photon_counts(i_h, i_v, config: AttenuationConfig, seed: int, stream: int,
                       start: int, count: int):
    """Draw both ports' photon counts for pulses start .. start + count - 1.

    Each pulse's uniforms, Alice's bit and Bob's basis come from
    pulse_randoms on stream, so a batch is the matching slice of any larger
    batch.  i_h and i_v are the port intensities of the four settings
    2 * bit + basis, which each pulse's setting indexes, or one scalar pair
    that every pulse shares (its rate tables indexed by the scalar 0).
    Returns (n_h, n_v, setting, clamped): the counts, each pulse's uint8
    setting and where either port clamped.
    """
    if count < 0:
        raise ParameterError("count must be non-negative")
    i_h = np.asarray(i_h, dtype=np.float64)
    i_v = np.asarray(i_v, dtype=np.float64)
    if i_h.shape != i_v.shape or i_h.shape not in ((), (4,)):
        raise ParameterError("intensities must be scalars or tables of the four settings")
    if np.any(i_h < 0) or np.any(i_v < 0):
        raise ParameterError("intensities must be non-negative")
    if np.any(i_h + i_v <= 0):
        raise DegenerateInputError("zero total intensity cannot split a photon budget")
    rate_h, rate_v = port_rates(np.atleast_1d(i_h), np.atleast_1d(i_v), config)
    u_gain, u_h, u_v, setting, basis = pulse_randoms(seed, stream, start, count)
    setting <<= 1
    setting |= basis
    n_h, n_v, clamped = counts_from_rates(u_gain, u_h, u_v, rate_h, rate_v,
                                          setting if i_h.ndim else 0, config)
    return n_h, n_v, setting, clamped


def port_rates(i_h, i_v, config: AttenuationConfig):
    """Each port's share of the photon budget, mean * (i / (i_h + i_v)),
    evaluated in that order, for intensities with a positive sum."""
    total = i_h + i_v
    return (config.mean_total_photons * (i_h / total),
            config.mean_total_photons * (i_v / total))


def counts_from_rates(u_gain, u_h, u_v, rate_h, rate_v, setting, config: AttenuationConfig):
    """Map one batch of pulse uniforms to clamped port counts.

    rate_h and rate_v are 1-D tables of each port's port_rates share, and
    setting indexes them: an index array with one entry per pulse, or one
    index for every pulse.  A pulse's Poisson means are its gain times
    rate_h[setting] and rate_v[setting].  u_gain, u_h and u_v are 1-D arrays
    of uniforms in [0, 1).  Returns (n_h, n_v, clamped), clamped where
    either port clamped; each pulse's values are those of
    poisson_counts(u, gain * rate), and gain_from_uniform gives the gain.

    Most pulses are decided from a cached table; the rest take that exact
    path on their subset alone, which gets the bits the whole batch would,
    as both functions are elementwise.

    At g2 = 1 the gain is 1, so a count depends only on the setting and u.
    count_buckets holds each port's count at every bucket of u that no CDF
    level comes near, and one gather per port decides those pulses.  When
    a rate table has more than COUNT_TABLE_SETTINGS entries, every pulse
    takes the exact path.

    At g2 > 1 a pulse in knot cell j = floor(u_gain * GAIN_KNOTS) has its
    gain inside gain_cells' bracket [lo_j, hi_j], and rounding is monotone,
    so its means lie in [lo_j * rate, hi_j * rate].  poisson_bracket decides
    every level at both ends of that range, and a decided count equals the
    exact one.  A pulse that either port leaves undecided, or that lies in
    the last cell, whose gain is unbounded, takes the exact path; every
    pulse does when the gain table fails its check.
    """
    if config.g2_target > 1.0:
        decided = _bracket_counts(u_gain, u_h, u_v, rate_h[setting], rate_v[setting], config)
    else:
        decided = _table_counts(u_h, u_v, rate_h, rate_v, setting, config.max_photons)
    if decided is None:
        return _exact_counts(u_gain, u_h, u_v, rate_h[setting], rate_v[setting], config)
    n_h, n_v, clamped, redo = decided
    if redo.size:
        pick = setting if np.ndim(setting) == 0 else setting[redo]
        n_h[redo], n_v[redo], clamped[redo] = _exact_counts(
            u_gain[redo], u_h[redo], u_v[redo], rate_h[pick], rate_v[pick], config)
    return n_h, n_v, clamped


def _table_counts(u_h, u_v, rate_h, rate_v, setting, max_photons: int):
    """Counts and clamp flags from count_buckets, and the pulses it leaves
    undecided (the redo indices), or None without a table."""
    tables = count_buckets(rate_h, max_photons), count_buckets(rate_v, max_photons)
    if tables[0] is None or tables[1] is None:
        return None
    base = np.multiply(setting, COUNT_BUCKETS, dtype=np.intp)
    t_h, t_v = (table.take((u * COUNT_BUCKETS).astype(np.intp) + base)
                for table, u in zip(tables, (u_h, u_v)))
    redo = np.flatnonzero((t_h | t_v) < 0)
    return (np.minimum(t_h, max_photons, dtype=np.int64),
            np.minimum(t_v, max_photons, dtype=np.int64),
            np.maximum(t_h, t_v) > max_photons, redo)


def _bracket_counts(u_gain, u_h, u_v, rate_h, rate_v, config: AttenuationConfig):
    """Counts and clamp flags from the gain-knot bracket, and the pulses it
    leaves undecided (the redo indices), or None without a gain table."""
    cells = gain_cells(config.g2_target)
    if cells is None:
        return None
    u_gain = np.asarray(u_gain, dtype=np.float64)
    cell = (u_gain * GAIN_KNOTS).astype(np.intp)
    lo, hi = cells[0][cell], cells[1][cell]
    n_h, clamped_h, decided_h = poisson_bracket(u_h, lo * rate_h, hi * rate_h, config.max_photons)
    n_v, clamped_v, decided_v = poisson_bracket(u_v, lo * rate_v, hi * rate_v, config.max_photons)
    redo = np.flatnonzero(~(decided_h & decided_v) | (cell == GAIN_KNOTS - 1))
    return n_h, n_v, clamped_h | clamped_v, redo


def _exact_counts(u_gain, u_h, u_v, rate_h, rate_v, config: AttenuationConfig):
    """Every pulse's gain from gain_from_uniform, then both ports' Poisson
    draws in one poisson_counts call on the ports joined end to end."""
    gain = gain_from_uniform(u_gain, config.g2_target)
    n, clamped = poisson_counts(np.concatenate([u_h, u_v]),
                                np.concatenate([gain * rate_h, gain * rate_v]), config.max_photons)
    m = gain.size
    return n[:m], n[m:], clamped[:m] | clamped[m:]


def count_buckets(rates, max_photons: int):
    """The g2 = 1 count of each (setting, bucket of u), or None.

    rates is a 1-D table of Poisson means, one per setting.  Returns None
    for more than COUNT_TABLE_SETTINGS of them, else a read-only
    (settings, COUNT_BUCKETS) integer table, cached per bit pattern of the
    rates and max_photons.  Bucket b covers u in [b / COUNT_BUCKETS,
    (b + 1) / COUNT_BUCKETS); COUNT_BUCKETS is a power of two, so a
    pulse's bucket floor(u * COUNT_BUCKETS) is exact.  An entry is
    poisson_counts' count for every u of its bucket, max_photons + 1 where
    every u clamps, or -1 where poisson_bracket cannot decide the bucket.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.size > COUNT_TABLE_SETTINGS:
        return None
    return _count_buckets(rates.tobytes(), max_photons)


@functools.lru_cache(maxsize=8)
def _count_buckets(key: bytes, max_photons: int) -> np.ndarray:
    """count_buckets' table for the rates whose bytes are key.

    poisson_bracket, with both means at the setting's rate, decides each
    bucket's first u and its last.  u only grows across a bucket, so when
    both ends give the same count and clamp, every level lies at least
    CDF_SLACK outside the bucket, and poisson_bracket's docstring shows that
    every u in it then gets that count.  One call per setting and end keeps
    the bracket's arrays at one bucket row.
    """
    rates = np.frombuffer(key)
    ends = (np.arange(COUNT_BUCKETS) / COUNT_BUCKETS,
            np.nextafter(np.arange(1, COUNT_BUCKETS + 1) / COUNT_BUCKETS, 0.0))
    dtype = np.int8 if max_photons + 1 <= np.iinfo(np.int8).max else np.int64
    table = np.empty((rates.size, COUNT_BUCKETS), dtype=dtype)
    for s, rate in enumerate(rates):
        lam = np.full(COUNT_BUCKETS, rate)
        (n0, c0, d0), (n1, c1, d1) = (poisson_bracket(u, lam, lam, max_photons) for u in ends)
        table[s] = np.where(d0 & d1 & (n0 == n1) & (c0 == c1), n0 + c0, -1)
    table.flags.writeable = False
    return table


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


def emulate_sipm(counts, noise_u):
    """Convert photon counts to noisy detector voltages, VOLTS_PER_PHOTON each.

    noise_u is a uniform array mapped through the normal quantile to
    gaussian jitter of width SIPM_NOISE_VOLTS, a twelfth of the single-photon
    step, so a misround needs a six sigma excursion; sipm_roundtrip_ok
    counts the round trips without emulating the pulses that cannot have one.
    """
    u = np.clip(np.asarray(noise_u, dtype=np.float64), 1e-16, 1.0 - 1e-16)
    return np.asarray(counts, dtype=np.float64) * VOLTS_PER_PHOTON + SIPM_NOISE_VOLTS * ndtri(u)


def invert_sipm(volts) -> np.ndarray:
    """Recover photon numbers from voltages by rounding to the nearest step."""
    counts = np.rint(np.asarray(volts, dtype=np.float64) / VOLTS_PER_PHOTON)
    return np.maximum(counts, 0.0).astype(np.int64)


def sipm_roundtrip_ok(counts, noise_u) -> int:
    """Number of pulses whose emulate_sipm voltage invert_sipm reads back as
    the count: np.count_nonzero(invert_sipm(emulate_sipm(counts, noise_u))
    == counts), for an integer counts array.

    A pulse whose uniform lies in [SIPM_SAFE_U, 1 - SIPM_SAFE_U] has
    |ndtri(u)| <= 5.6121, so its voltage is within 5.6121 x SIPM_NOISE_VOLTS
    of count x VOLTS_PER_PHOTON: 0.468 of a step, which leaves a 0.032 step
    margin before rounding can move it.  Below SIPM_COUNT_BOUND the three
    roundings of the voltage and its quotient add under 1e-9 step, so such a
    pulse with a count in [0, SIPM_COUNT_BOUND) always reads back.  A count
    of 1 or more first misrounds at u = 9.87e-10 (z = -6); a count of 0
    never does on the low side, as invert_sipm clamps at 0.  Every other
    pulse takes the exact path on its subset alone, which gets the bits the
    whole batch would, as both functions are elementwise.
    """
    counts, u = np.broadcast_arrays(counts, np.asarray(noise_u, dtype=np.float64))
    tail = ~((u >= SIPM_SAFE_U) & (u <= 1.0 - SIPM_SAFE_U))
    if counts.size and not (counts.min() >= 0 and counts.max() < SIPM_COUNT_BOUND):
        tail |= (counts < 0) | (counts >= SIPM_COUNT_BOUND)
    n = counts[tail]
    return counts.size - n.size + int(np.count_nonzero(invert_sipm(emulate_sipm(n, u[tail])) == n))
