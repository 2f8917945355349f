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

# poisson_bracket's decision margin (the delta of its docstring), the largest
# mean it brackets (exp(-700) is still a normal float) and the last level it
# decides; its docstring derives all three.
CDF_SLACK = 2.0**-40
BRACKET_MAX_RATE = 700.0
BRACKET_MAX_LEVEL = 1024

# Philox4x32-10 constants (multipliers and Weyl key increments).
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def _philox_rounds(x: np.ndarray, k0: int, k1: int, tmp: np.ndarray, first: int = 0) -> None:
    """Run Philox4x32 rounds first to 9 (all 10 by default) in place.

    x is a (4, m) uint64 array whose rows are the four 32-bit counter words
    of m blocks; tmp is (2, m) uint64 scratch.  Every word stays below 2**32.
    """
    mask = np.uint64(_MASK32)
    shift = np.uint64(32)
    p0, p1 = tmp
    for r in range(first, 10):
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

    No pass straddles a change of hi32(i), so rounds 0 to 2 fold onto the
    words a pass shares; rounds 3 to 9 run as philox4x32's, same words.
    """
    first = int(np.uint64(start))
    stream = int(np.uint32(stream))
    k0, k1 = seed & _MASK32, (seed >> 32) & _MASK32
    u_gain, u_h, u_v = (np.empty(count) for _ in range(3))
    delay_bit, basis_bit = (np.empty(count, dtype=np.uint8) for _ in range(2))
    chunk = max(1, min(CHUNK_PULSES, count))
    offsets = np.arange(chunk, dtype=np.uint64)
    # Rounds 0 to 2 fold onto a pass's shared words in tmp; from round 3,
    # columns [0, m) of buf hold block 0 of each pulse, [m, 2m) block 1.
    # buf and tmp share one allocation (1.5 MiB at CHUNK_PULSES).  Freeing it
    # sets glibc's dynamic mmap threshold to its size and the heap trim
    # threshold to twice that (mallopt(3)), above what a block of pulses
    # frees.  Two buffers left the trim threshold near 2 MiB, and most
    # processes gave the heap top back and faulted it in again after every block.
    work = np.empty((6, 2 * chunk), dtype=np.uint64)
    buf, tmp = work[:4], work[4:]
    mask, shift32, shift11, shift31 = (np.uint64(v) for v in (_MASK32, 32, 11, 31))
    s_hi, s_lo = divmod(stream * int(_M1), 1 << 32)
    (rk0, rk1), (rk2, rk3) = (((k0 + r * _W0) & _MASK32, (k1 + r * _W1) & _MASK32) for r in (1, 2))
    a = 0
    while a < count:
        hi, lo = divmod((first + a) & 0xFFFFFFFFFFFFFFFF, 1 << 32)
        m = min(chunk, count - a, (1 << 32) - lo)
        x, shared, c2 = buf[:, : 2 * m], tmp[0, :m], tmp[1, : 2 * m]
        p_hi, p_lo = divmod((s_hi ^ hi ^ k0) * int(_M0), 1 << 32)
        # Round 0 <- (s_hi ^ hi ^ k0, s_lo, hi(lo32(i) * M0) ^ k1 ^ b, lo(lo32(i) * M0))
        np.add(offsets[:m], np.uint64(lo), out=shared)
        shared *= _M0
        np.right_shift(shared, shift32, out=c2[:m])
        c2[:m] ^= np.uint64(k1)
        np.bitwise_xor(c2[:m], np.uint64(1), out=c2[m:])
        # Round 1 <- (hi(c2 * M1) ^ s_lo ^ rk0, lo(c2 * M1), p_hi ^ c3 ^ rk1, p_lo)
        shared &= mask
        shared ^= np.uint64(p_hi ^ rk1)
        c2 *= _M1
        np.right_shift(c2, shift32, out=x[0])
        x[0] ^= np.uint64(s_lo ^ rk0)
        np.bitwise_and(c2, mask, out=x[1])
        # Round 2 <- (hi(c2 * M1) ^ c1 ^ rk2, lo(c2 * M1), hi(c0 * M0) ^ p_lo ^ rk3, lo(c0 * M0))
        np.multiply(shared, _M1, out=c2[:m])
        np.right_shift(c2[:m], shift32, out=shared)
        shared ^= np.uint64(rk2)
        x[0] *= _M0
        np.right_shift(x[0], shift32, out=x[2])
        x[2] ^= np.uint64(p_lo ^ rk3)
        np.bitwise_and(x[0], mask, out=x[3])
        np.bitwise_xor(x[1].reshape(2, m), shared, out=x[0].reshape(2, m))
        np.bitwise_and(c2[:m], mask, out=x[1, :m])
        x[1, m:] = x[1, :m]
        _philox_rounds(x, k0, k1, tmp[:, : 2 * m], 3)
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
        a += m
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
    # p, cdf and n are updated in place: the same operations in the same
    # order as p = p * (lam / k) and cdf = cdf + p, with no new arrays.
    p = np.negative(lam)
    np.exp(p, out=p)
    cdf = p.copy()
    n = np.zeros(lam.shape, dtype=np.int64)
    above = np.empty(lam.shape, dtype=bool)
    step = np.empty(lam.shape)
    for k in range(1, max_photons + 1):
        n += np.greater(u, cdf, out=above)
        np.divide(lam, k, out=step)
        p *= step
        cdf += p
        if k % POISSON_STOP_CHECK == 0 and not p.any():
            n += (max_photons - k) * (u > cdf)
            break
    return n, np.greater(u, cdf, out=above)


def poisson_bracket(u: np.ndarray, lam_lo: np.ndarray, lam_hi: np.ndarray, max_photons: int):
    """poisson_counts for every pulse whose count and clamp are the same at
    every mean in [lam_lo, lam_hi].

    u, lam_lo and lam_hi are 1-D arrays of one length, lam_lo <= lam_hi.
    The poisson_counts recurrence runs at both ends; c_k(lam) is its CDF
    after level k.  Level k is counted (u > c_k(lam)) for every lam in the
    range when u > c_k(lam_lo) + delta, and for none when
    u <= c_k(lam_hi) - delta, with delta = CDF_SLACK.  Level max_photons
    decides the clamp the same way.  A pulse is decided when every level up
    to max_photons is; one with lam_hi > BRACKET_MAX_RATE, or that may still
    count level BRACKET_MAX_LEVEL < max_photons, is not.  Returns
    (counts int64, clamped bool, decided bool); counts and clamped are
    poisson_counts' wherever decided, and mean nothing elsewhere.

    Both exact count caches in photons decide with it: the g2 > 1 gain-knot
    bracket on each pulse's mean range, the g2 = 1 table (_count_buckets) at
    its buckets' ends with lam_lo = lam_hi.

    c_k never decreases in k, so once no decided pulse may count level k,
    none counts a later one and every count is final.  The loop stops at
    the first such level, so its length follows the counts, not
    max_photons.

    Why delta suffices.  Let F_k be the exact Poisson CDF, which decreases
    in lam, and u' = 2**-53.  With lam <= BRACKET_MAX_RATE, p_0 = exp(-lam)
    is normal.  Taking exp within 4 ulp (2**-50 relative, a wide margin over
    numpy's float64 exp), k divides and k multiplies put p_k within
    (8 + 2k) u' of its value relative, and the k adds move c_k by at most
    u' each, so
    |c_k - F_k| <= E_k = (3k + 9) u'.  Terms that fall into subnormals
    after the peak add under 2**-1074 each, inside the 9.  So
    c_k(lam_lo) >= F_k(lam_lo) - E_k >= F_k(lam) - E_k >= c_k(lam) - 2 E_k,
    and the same bound from above at lam_hi.  Rounding c_k +- delta moves
    it by at most 2 u', so a level decided here is decided the same way at
    lam once delta >= 2 E_k + 2 u', that is 6k + 20 <= 2**13, which holds
    for every k <= BRACKET_MAX_LEVEL.
    """
    u = np.asarray(u, dtype=np.float64)
    lo = np.asarray(lam_lo, dtype=np.float64)
    hi = np.asarray(lam_hi, dtype=np.float64)
    undecided = ~(hi <= BRACKET_MAX_RATE)
    if undecided.any():
        # Finite stand-ins keep inf and nan out of the recurrence.
        lo, hi = np.where(undecided, 0.0, lo), np.where(undecided, 0.0, hi)
    # The same in-place operations, in the same order, as poisson_counts.
    p_lo, p_hi = np.negative(lo), np.negative(hi)
    np.exp(p_lo, out=p_lo)
    np.exp(p_hi, out=p_hi)
    c_lo, c_hi = p_lo.copy(), p_hi.copy()
    n = np.zeros(u.shape, dtype=np.int64)
    above, maybe, split = (np.empty(u.shape, dtype=bool) for _ in range(3))
    step = np.empty(u.shape)
    last = min(max_photons, BRACKET_MAX_LEVEL)
    for k in range(last + 1):
        # above: level k is counted; maybe: it may be.  They differ where
        # level k is undecided.  step doubles as scratch for the edges.
        np.greater(u, np.add(c_lo, CDF_SLACK, out=step), out=above)
        np.greater(u, np.subtract(c_hi, CDF_SLACK, out=step), out=maybe)
        undecided |= np.not_equal(above, maybe, out=split)
        if k == max_photons:
            break
        n += above
        if k == last:
            undecided |= maybe
            break
        if not np.greater(maybe, undecided, out=split).any():
            # No decided pulse can count a later level: every count is final.
            above[:] = False
            break
        np.divide(lo, k + 1, out=step)
        p_lo *= step
        c_lo += p_lo
        np.divide(hi, k + 1, out=step)
        p_hi *= step
        c_hi += p_hi
    return n, above, ~undecided


def _range_bound(lo, hi, g):
    """Lower bound of the computed (t - g) ** 2 over every t in [lo, hi].

    Below the range this is (lo - g) ** 2 and above it (hi - g) ** 2, bit for
    bit, since fl(hi - g) == -fl(g - hi) and squaring drops the sign; inside
    it both differences are <= 0 and the bound is +0.0.
    """
    d = lo - g
    np.maximum(d, g - hi, out=d)
    np.maximum(d, 0.0, out=d)
    return np.square(d, out=d)


def _squared_errors(tab0, tab45, rows, g0, g45):
    """The brute-force SE on table row rows[j] against pair j, one row each."""
    return (tab0[rows] - g0[:, None]) ** 2 + (tab45[rows] - g45[:, None]) ** 2


def _scan_candidates(tab0, tab45, bound, ub, g0, g45, tie_eps):
    """se_argmin's four result arrays for pairs whose bound leaves several rows open."""
    n_rows = tab0.shape[0]
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


def _search_block(tab0, tab45, row_stats, g0, g45, tie_eps):
    """se_argmin's four result arrays for one block of pairs."""
    lo0, hi0, lo45, hi45 = row_stats
    bound = _range_bound(lo0, hi0, g0[:, None])
    bound += _range_bound(lo45, hi45, g45[:, None])
    best = np.argmin(bound, axis=1)
    se = _squared_errors(tab0, tab45, best, g0, g45)
    ub = se.min(axis=1)
    threshold = (ub + tie_eps)[:, None]
    # The best row's bound is <= ub, so it is always open.  Where it is the
    # only open row, every other row is pruned and its SE row is the result.
    out = best, se.argmin(axis=1), ub, np.count_nonzero(se <= threshold, axis=1)
    rest = np.flatnonzero(np.count_nonzero(bound <= threshold, axis=1) > 1)
    if rest.size:
        for arr, part in zip(out, _scan_candidates(tab0, tab45, bound[rest], ub[rest],
                                                   g0[rest], g45[rest], tie_eps)):
            arr[rest] = part
    return out


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
    upper bound ub on the minimum.  Where no other row's bound is at most
    ub + tie_eps, that one row gives the result; otherwise every row whose
    bound is at most ub + tie_eps is evaluated in full.

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
