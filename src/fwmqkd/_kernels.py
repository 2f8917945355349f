"""Sampling and search kernels: counter-based RNG, Poisson inversion, argmin.

The Philox generator works in pure integer arithmetic on 32-bit words held
in uint64 lanes, so its uniforms depend only on (seed, stream, pulse index).
The Poisson search accumulates its CDF in a fixed order, so a count depends
only on the uniform and the rate.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# Stream identifiers keep independent uses of the same seed uncorrelated.
STREAM_GENERIC = 0
STREAM_SESSION = 1
STREAM_DETECTOR = 2

# Pulses per Philox pass.  The (4, 2 * chunk) uint64 working buffer is then
# 1 MiB, small enough to stay in a core's L2 cache across the ten rounds.
CHUNK_PULSES = 1 << 14

# Ratio pairs per se_argmin block.  Its bound arrays are (pairs, rows): 128
# pairs on the default 315-row grid keep each near 320 KiB, where bounding all
# 2,000 pairs of a field map at once raised the run's peak RSS by half.
ARGMIN_BLOCK_PAIRS = 128

# poisson_counts tests for an all-zero p only every this many levels, so the
# usual small max_photons never pays for the extra pass.
POISSON_STOP_CHECK = 16

# Philox4x32-10 constants (multipliers and Weyl key increments).
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def _philox_rounds(x: np.ndarray, k0: int, k1: int, tmp: np.ndarray) -> None:
    """Run 10 Philox4x32 rounds in place.

    x is a (4, m) uint64 array whose rows are the four 32-bit counter words
    of m blocks; tmp is (2, m) uint64 scratch.  Every word stays below 2**32.
    """
    mask = np.uint64(_MASK32)
    shift = np.uint64(32)
    p0, p1 = tmp
    for r in range(10):
        rk0 = np.uint64((k0 + r * _W0) & _MASK32)
        rk1 = np.uint64((k1 + r * _W1) & _MASK32)
        np.multiply(x[0], _M0, out=p0)
        np.multiply(x[2], _M1, out=p1)
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ rk0, lo1, hi0 ^ c3 ^ rk1, lo0)
        np.right_shift(p1, shift, out=x[0])
        x[0] ^= x[1]
        x[0] ^= rk0
        np.bitwise_and(p1, mask, out=x[1])
        np.right_shift(p0, shift, out=x[2])
        x[2] ^= x[3]
        x[2] ^= rk1
        np.bitwise_and(p0, mask, out=x[3])


def philox4x32(ctr: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Run 10 Philox4x32 rounds on an (n, 4) uint32 counter block."""
    ctr = np.asarray(ctr, dtype=np.uint32)
    x = ctr.T.astype(np.uint64)
    _philox_rounds(x, int(key[0]) & _MASK32, int(key[1]) & _MASK32,
                   np.empty((2, ctr.shape[0]), dtype=np.uint64))
    return x.T.astype(np.uint32)


def pulse_randoms(seed: int, stream: int, start: int, count: int):
    """Positional per-pulse randoms for pulses [start, start+count).

    Returns (u_gain, u_h, u_v, delay_bit, basis_bit).  Pulse i consumes the
    two counter blocks (lo32(i), hi32(i), stream, 0|1), so the mapping from
    pulse index to randoms is fixed regardless of chunking.  Pulse indices
    wrap modulo 2**64.  Each uniform takes 53 bits from two 32-bit words
    (low word first); each bit is the top bit of one word.
    """
    first = int(np.uint64(start))
    stream = np.uint32(stream)
    k0, k1 = seed & _MASK32, (seed >> 32) & _MASK32
    u_gain, u_h, u_v = (np.empty(count) for _ in range(3))
    delay_bit, basis_bit = (np.empty(count, dtype=np.uint8) for _ in range(2))
    chunk = max(1, min(CHUNK_PULSES, count))
    offsets = np.arange(chunk, dtype=np.uint64)
    # Columns [0, m) hold block 0 of each pulse, columns [m, 2m) block 1.
    buf = np.empty((4, 2 * chunk), dtype=np.uint64)
    tmp = np.empty((2, 2 * chunk), dtype=np.uint64)
    mask, shift32, shift11, shift31 = (np.uint64(v) for v in (_MASK32, 32, 11, 31))
    for a in range(0, count, chunk):
        m = min(chunk, count - a)
        x, t = buf[:, : 2 * m], tmp[:, : 2 * m]
        idx = x[0, :m]
        np.add(offsets[:m], np.uint64((first + a) & 0xFFFFFFFFFFFFFFFF), out=idx)
        np.right_shift(idx, shift32, out=x[1, :m])
        idx &= mask
        x[:2, m:] = x[:2, :m]
        x[2] = stream
        x[3, :m] = 0
        x[3, m:] = 1
        _philox_rounds(x, k0, k1, t)
        # word = lo | hi << 32, uniform = (word >> 11) * 2**-53
        for lo, hi in ((x[0], x[1]), (x[2, :m], x[3, :m])):
            hi <<= shift32
            hi |= lo
            hi >>= shift11
        b = slice(a, a + m)
        np.multiply(x[1, :m], _INV53, out=u_gain[b])
        np.multiply(x[3, :m], _INV53, out=u_h[b])
        np.multiply(x[1, m:], _INV53, out=u_v[b])
        np.right_shift(x[2, m:], shift31, out=delay_bit[b])
        np.right_shift(x[3, m:], shift31, out=basis_bit[b])
    return u_gain, u_h, u_v, delay_bit, basis_bit


def poisson_counts(u: np.ndarray, lam: np.ndarray, max_photons: int):
    """Poisson inverse-CDF search clamped at max_photons.

    The count is the number of CDF levels below u, accumulated with the
    recurrence p_k = p_{k-1} * lam / k, so a clamp is exactly the event
    u > CDF(max_photons).  Once every p has underflowed to 0 the CDF is
    final and each remaining level adds the same u > cdf, so the loop adds
    them in one step; it looks for that every POISSON_STOP_CHECK levels.
    Returns (counts int64, clamped bool).
    """
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


def _range_bound(lo, hi, g):
    """Lower bound of the computed (t - g) ** 2 over every t in [lo, hi]."""
    return np.where(g < lo, (lo - g) ** 2, np.where(g > hi, (hi - g) ** 2, 0.0))


def _squared_errors(tab0, tab45, rows, g0, g45):
    """The brute-force SE on table row rows[j] against pair j, one row each."""
    return (tab0[rows] - g0[:, None]) ** 2 + (tab45[rows] - g45[:, None]) ** 2


def _search_block(tab0, tab45, row_stats, g0, g45, tie_eps):
    """se_argmin's four result arrays for one block of pairs."""
    n_rows = tab0.shape[0]
    lo0, hi0, lo45, hi45 = row_stats
    bound = _range_bound(lo0, hi0, g0[:, None]) + _range_bound(lo45, hi45, g45[:, None])
    best = np.argmin(bound, axis=1)
    ub = _squared_errors(tab0, tab45, best, g0, g45).min(axis=1)
    # Row-major order, so each pair's candidate rows are contiguous and the
    # first minimum among them is the brute force's first minimum.
    pair, row = np.nonzero(bound <= (ub + tie_eps)[:, None])
    starts = np.searchsorted(pair, np.arange(g0.size))

    def exact(cand):
        # At most n_rows candidate rows at a time: no more memory than the table.
        for a in range(0, cand.size, n_rows):
            c = cand[a:a + n_rows]
            yield c, _squared_errors(tab0, tab45, row[c], g0[pair[c]], g45[pair[c]])

    row_min = np.empty(pair.size)
    row_arg = np.empty(pair.size, dtype=np.intp)
    for c, se in exact(np.arange(pair.size)):
        row_min[c] = se.min(axis=1)
        row_arg[c] = se.argmin(axis=1)
    se_min = np.minimum.reduceat(row_min, starts)
    first = np.minimum.reduceat(
        np.where(row_min == se_min[pair], np.arange(pair.size), pair.size), starts)
    threshold = se_min + tie_eps
    n_ties = np.zeros(g0.size, dtype=np.int64)
    for c, se in exact(np.flatnonzero(row_min <= threshold[pair])):
        np.add.at(n_ties, pair[c], np.count_nonzero(se <= threshold[pair[c], None], axis=1))
    return row[first], row_arg[first], se_min, n_ties


def se_argmin(tab0: np.ndarray, tab45: np.ndarray, g0, g45, tie_eps: float):
    """Squared-error argmin over the (psi, phi) ratio tables, per ratio pair.

    The result is the brute force's: SE = (tab0 - g0)**2 + (tab45 - g45)**2
    over the whole table, its row-major first minimum (ties resolve to the
    lowest psi index, then the lowest phi index), and n_ties, the count of
    grid points with SE <= SE_min + tie_eps.  g0 and g45 are 1-D arrays of
    equal length; returns (i_psi, i_phi, se_min, n_ties) as int64, int64,
    float64 and int64 arrays of that length.  Tables and ratios are finite.

    Pairs are searched in blocks of ARGMIN_BLOCK_PAIRS, at most one per table
    column, so a block's (pairs, rows) arrays never outgrow the tables.  Per
    pair, every row gets a lower bound on its SE from the row's tab0 and
    tab45 ranges.  The exact SE of the row with the least bound gives an
    upper bound ub on the minimum, and only rows whose bound is at most
    ub + tie_eps are evaluated in full.

    The bound needs no slack.  Round-to-nearest subtraction is monotone in
    each operand, squaring is monotone in the magnitude and addition is
    monotone in each term, so the same expression evaluated on the row's
    range ends (every cell lies between them) is <= the computed SE of every
    cell in the row.  A pruned row has bound > ub + tie_eps >= SE_min +
    tie_eps, so it holds neither the minimum nor a tie, and index, SE and
    n_ties are exact.
    """
    tab0 = np.asarray(tab0, dtype=np.float64)
    tab45 = np.asarray(tab45, dtype=np.float64)
    g0 = np.asarray(g0, dtype=np.float64)
    g45 = np.asarray(g45, dtype=np.float64)
    row_stats = (tab0.min(axis=1), tab0.max(axis=1), tab45.min(axis=1), tab45.max(axis=1))
    out = (np.empty(g0.size, dtype=np.int64), np.empty(g0.size, dtype=np.int64),
           np.empty(g0.size), np.empty(g0.size, dtype=np.int64))
    block = max(1, min(ARGMIN_BLOCK_PAIRS, tab0.shape[1]))
    for a in range(0, g0.size, block):
        b = slice(a, a + block)
        for arr, part in zip(out, _search_block(tab0, tab45, row_stats, g0[b], g45[b], tie_eps)):
            arr[b] = part
    return out
