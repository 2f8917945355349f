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


def se_argmin(tab0: np.ndarray, tab45: np.ndarray, g0: float, g45: float,
              tie_eps: float):
    """Squared-error argmin over the (psi, phi) ratio tables.

    Row-major first minimum, i.e. ties resolve to the lowest psi index and
    then the lowest phi index.  Returns (i_psi, i_phi, se_min, n_ties) where
    n_ties counts grid points within tie_eps of the minimum.
    """
    se = (tab0 - g0) ** 2 + (tab45 - g45) ** 2
    flat = int(np.argmin(se))
    se_min = float(se.flat[flat])
    n_ties = int(np.count_nonzero(se <= se_min + tie_eps))
    i_psi, i_phi = divmod(flat, se.shape[1])
    return i_psi, i_phi, se_min, n_ties
