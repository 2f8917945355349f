"""Counter RNG, count sampling, and argmin kernels."""

import copy
import hashlib
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fwmqkd import _kernels
from fwmqkd._kernels import (
    STREAM_DETECTOR,
    STREAM_GENERIC,
    STREAM_SESSION,
    poisson_counts,
    se_argmin,
)

# The kernel module, under the backend name that manifests record.
BACKENDS = [pytest.param(_kernels, id=_kernels.BACKEND)]

# Published known-answer vectors for the 10-round Philox4x32 generator.
KAT = [
    (
        (0, 0, 0, 0),
        (0, 0),
        (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8),
    ),
    (
        (0xFFFFFFFF,) * 4,
        (0xFFFFFFFF,) * 2,
        (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
    ),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("ctr,key,expected", KAT)
def test_philox_known_answer_vectors(backend, ctr, key, expected):
    ctr_arr = np.array([ctr], dtype=np.uint32)
    key_arr = np.array(key, dtype=np.uint32)
    out = np.asarray(backend.philox4x32(ctr_arr, key_arr))
    assert out.dtype == np.uint32
    assert tuple(int(w) for w in out[0]) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_philox_counter_blocks_are_independent_rows(backend):
    ctrs = np.array([[i, 0, 0, 0] for i in range(8)], dtype=np.uint32)
    key = np.array([123, 456], dtype=np.uint32)
    batch = np.asarray(backend.philox4x32(ctrs, key))
    for i in range(8):
        single = np.asarray(backend.philox4x32(ctrs[i : i + 1], key))
        assert np.array_equal(batch[i], single[0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_pulse_randoms_chunk_invariance(backend):
    seed = 20260814
    whole = backend.pulse_randoms(seed, STREAM_SESSION, 0, 100)
    parts = [
        backend.pulse_randoms(seed, STREAM_SESSION, 0, 37),
        backend.pulse_randoms(seed, STREAM_SESSION, 37, 41),
        backend.pulse_randoms(seed, STREAM_SESSION, 78, 22),
    ]
    for k in range(5):
        joined = np.concatenate([np.asarray(p[k]) for p in parts])
        assert np.array_equal(np.asarray(whole[k]), joined)


@pytest.mark.parametrize("backend", BACKENDS)
def test_streams_do_not_collide(backend):
    seed = 11
    a = np.asarray(backend.pulse_randoms(seed, STREAM_GENERIC, 0, 256)[0])
    b = np.asarray(backend.pulse_randoms(seed, STREAM_SESSION, 0, 256)[0])
    c = np.asarray(backend.pulse_randoms(seed, STREAM_DETECTOR, 0, 256)[0])
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


@pytest.mark.parametrize("backend", BACKENDS)
def test_uniforms_live_in_unit_interval(backend):
    u_gain, u_h, u_v, delay, basis = backend.pulse_randoms(
        5, STREAM_DETECTOR, 0, 50_000
    )
    for u in (u_gain, u_h, u_v):
        u = np.asarray(u)
        assert u.min() >= 0.0
        assert u.max() < 1.0
    for bits in (delay, basis):
        bits = np.asarray(bits)
        assert set(np.unique(bits)) <= {0, 1}
        # fair-coin check, 3 sigma on 50k draws is about 0.007
        assert abs(bits.mean() - 0.5) < 0.01


def test_poisson_counts_match_quantile_function():
    rng = np.random.default_rng(7)
    u = rng.random(5000)
    lam = rng.uniform(0.01, 6.0, 5000)
    n, clamped = poisson_counts(u, lam, 5)
    ref = np.minimum(scipy.stats.poisson.ppf(u, lam), 5).astype(np.int64)
    assert np.array_equal(np.asarray(n), ref)
    assert np.array_equal(np.asarray(clamped), u > scipy.stats.poisson.cdf(5, lam))


def test_poisson_counts_zero_rate_gives_zero():
    n, clamped = poisson_counts(np.array([0.0, 0.5, 0.999999]), np.zeros(3), 5)
    assert np.array_equal(np.asarray(n), np.zeros(3, dtype=np.int64))
    assert not np.asarray(clamped).any()


def _ref_poisson_counts(u, lam, max_photons):
    """poisson_counts without its early stop: one pass per photon level."""
    u = np.asarray(u, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    p = np.exp(-lam)
    cdf = p.copy()
    n = np.zeros(lam.shape, dtype=np.int64)
    for k in range(1, max_photons + 1):
        n += u > cdf
        p = p * (lam / k)
        cdf = cdf + p
    clamped = u > cdf
    return n, clamped


# From no light and a vanishing rate up to rates whose exp(-lam) is near the
# bottom of the float range (700) or underflows to 0 (746, 1e4).
POISSON_RATES = [0.0, 1e-300, 0.3, 5.0, 50.0, 700.0, 746.0, 1e4]


@settings(max_examples=60)
@given(rates=st.lists(st.sampled_from(POISSON_RATES), min_size=1, max_size=8),
       max_photons=st.one_of(st.integers(0, 40), st.integers(0, 3000)),
       data=st.data())
def test_poisson_counts_early_stop_matches_the_full_loop(rates, max_photons, data):
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(rates),
                                    max_size=len(rates))))
    lam = np.array(rates)
    _assert_same_arrays(poisson_counts(u, lam, max_photons),
                        _ref_poisson_counts(u, lam, max_photons))


def test_se_argmin_prefers_first_row_major_minimum():
    zeros = np.zeros((2, 2))
    # se = [[1, 0], [0, 1]]: two exact ties, first in row-major order is (0, 1)
    tab0 = np.array([[2.0, 1.0], [1.0, 2.0]])
    i_psi, i_phi, se_min, n_ties = (v[0] for v in se_argmin(tab0, zeros, [1.0], [0.0], 1e-12))
    assert (i_psi, i_phi, n_ties) == (0, 1, 2)
    assert se_min == 0.0

    # unique minimum at (1, 0)
    tab0 = np.array([[5.0, 3.0], [1.0, 4.0]])
    i_psi, i_phi, se_min, n_ties = (v[0] for v in se_argmin(tab0, zeros, [1.0], [0.0], 1e-12))
    assert (i_psi, i_phi, n_ties) == (1, 0, 1)


def test_se_argmin_tie_tolerance_window():
    zeros = np.zeros((1, 3))
    # offsets 0, 1e-7, 1e-5 -> squared errors 0, 1e-14, 1e-10
    tab0 = np.array([[1.0, 1.0 + 1e-7, 1.0 + 1e-5]])
    i_psi, i_phi, _, n_ties = (v[0] for v in se_argmin(tab0, zeros, [1.0], [0.0], 1e-12))
    assert (i_psi, i_phi) == (0, 0)
    assert n_ties == 2


def _ref_se_argmin(tab0, tab45, g0, g45, tie_eps):
    """The brute-force search the pruned se_argmin replaced, kept as its oracle."""
    se = (tab0 - g0) ** 2 + (tab45 - g45) ** 2
    flat = int(np.argmin(se))
    se_min = float(se.flat[flat])
    n_ties = int(np.count_nonzero(se <= se_min + tie_eps))
    i_psi, i_phi = divmod(flat, se.shape[1])
    return i_psi, i_phi, se_min, n_ties


def _assert_matches_oracle(tab0, tab45, g0, g45, tie_eps):
    got = se_argmin(tab0, tab45, g0, g45, tie_eps)
    ref = [_ref_se_argmin(tab0, tab45, a, b, tie_eps) for a, b in zip(g0, g45)]
    want = [np.array(col, dtype=dtype).reshape(len(ref))
            for col, dtype in zip(zip(*ref), (np.int64, np.int64, np.float64, np.int64))]
    assert len(got) == 4
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# Small tables built to stress the pruning: duplicated levels and rows, a
# constant row, rows out of order, and values 1e-7 apart whose squared errors
# differ by about 1e-14, next to tie windows from 0 to 0.3.
_LEVELS = [0.0, 0.25, 0.5, 1.0, 1.0 + 1e-7, 1.0 + 2e-7, 1.05, 1.1, 1.5, 2.0, 3.0]
_TIE_EPS = [0.0, 1e-14, 1e-12, 1e-6, 0.01, 0.0525, 0.3]


@st.composite
def _search_cases(draw):
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    cell = st.one_of(st.sampled_from(_LEVELS), st.floats(0.0, 4.0))

    def table(sorted_share):
        rows = []
        for _ in range(n_rows):
            kind = draw(st.sampled_from(["random", "constant", "copy"] + ["sorted"] * sorted_share))
            if kind == "copy" and rows:
                row = list(draw(st.sampled_from(rows)))
                row[draw(st.integers(0, n_cols - 1))] += draw(st.sampled_from([0.0, 1e-7, -0.05]))
            elif kind == "constant":
                row = [draw(cell)] * n_cols
            else:
                row = draw(st.lists(cell, min_size=n_cols, max_size=n_cols))
                if kind == "sorted":
                    row.sort()
            rows.append(row)
        return np.array(rows, dtype=np.float64)

    tab0, tab45 = table(1), table(4)
    values = np.concatenate([tab0.ravel(), tab45.ravel()])
    mids = (tab45[:, 1:] + tab45[:, :-1]).ravel() / 2.0
    ratio = st.one_of(
        st.sampled_from(values.tolist()),
        st.sampled_from(mids.tolist() or [0.0]),
        st.just(0.0),
        st.sampled_from(values.tolist()).map(lambda v: v + 1e-7),
        st.floats(0.0, 4.0),
    )
    pairs = draw(st.lists(st.tuples(ratio, ratio), min_size=1, max_size=12))
    g0, g45 = (np.array(col) for col in zip(*pairs))
    return tab0, tab45, g0, g45, draw(st.sampled_from(_TIE_EPS))


@pytest.mark.parametrize("block", [1, 3, 4, _kernels.ARGMIN_BLOCK_PAIRS])
@settings(max_examples=150)
@given(case=_search_cases())
def test_pruned_se_argmin_matches_the_brute_force(block, case):
    tab0, tab45, g0, g45, tie_eps = case
    with mock.patch.object(_kernels, "ARGMIN_BLOCK_PAIRS", block):
        _assert_matches_oracle(tab0, tab45, g0, g45, tie_eps)


def test_pruned_se_argmin_on_the_default_grid(tmp_path):
    from fwmqkd.config import DEFAULTS
    from fwmqkd.pipeline import _read_ratio_csv, run_contrast_map
    from fwmqkd.reconstruct import DEFAULT_GRID, _ratio_tables

    config = copy.deepcopy(DEFAULTS)
    config["contrast_map"]["points"] = 1000
    ratio_csv = run_contrast_map(config, tmp_path)[1]
    g0, g45 = np.array([row[2:] for row in _read_ratio_csv(ratio_csv)]).T
    assert g0.size == 2000
    # Grid points, the psi = 0 row, zero ratios and midpoints between
    # adjacent tab45 entries, next to the contrast-map pairs.
    _, _, tab0, tab45 = _ratio_tables(DEFAULT_GRID)
    rows = np.arange(0, tab0.shape[0], 7)
    g0 = np.concatenate([g0, tab0[rows, rows % 300], tab0[0, :3], [0.0, 0.0, 1.0],
                         tab0[rows, 5]])
    g45 = np.concatenate([g45, tab45[rows, rows % 300], tab45[0, :3], [0.0, 1.0, 0.0],
                          (tab45[rows, 5] + tab45[rows, 6]) / 2.0])
    _assert_matches_oracle(tab0, tab45, g0, g45, DEFAULT_GRID.tie_eps)


def test_bench_times_every_kernel():
    from fwmqkd.bench import format_report, run_bench

    report = run_bench(pulses=2000, pairs=2, repeats=1)
    assert set(report["kernels"]) == {"pulse_randoms", "poisson_counts", "se_argmin"}
    for entry in report["kernels"].values():
        assert set(entry) == {"seconds"}
        assert entry["seconds"] > 0.0
    text = format_report(report)
    assert "pulse_randoms" in text


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Golden digests of the kernel outputs, captured from the numpy backend.
# Every later rewrite of the kernels must reproduce them.
# The last case keys the generator with the all-ones seed and starts above
# 2**32, so the high counter word is non-zero.
KERNEL_GOLDEN = [
    (20260814, STREAM_SESSION, 0, 1000,
     "f4aeda27f59f58b7ca9b2bb3c2dc3fb2c3461ffcc0073f276b8d78a5ddad258b",
     "07799dd6b6d564c9a65eb3a5565a678cd11c2025287d509118db691e187e2fad"),
    (7, STREAM_DETECTOR, 2**32 - 300, 1000,
     "e613fa4fd731377c8a185204e8b51b8d5686e6414b161fab7064bf75585e8b85",
     "db0add2e271b047bd702297930de19c2c279849bd69553f58dee4c7566ca4c0a"),
    (2**64 - 1, STREAM_GENERIC, 5 * 2**32 + 17, 257,
     "9260c5696d34b5e51c980105f95443d6367cdd9855335155c063a57b4d4f2502",
     "59c170ab5de7cf53955ac63c3eb18fa75b577cd47c89781d0e6a2322c00a7a2a"),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed,stream,start,count,randoms_sha,counts_sha", KERNEL_GOLDEN)
def test_kernel_outputs_match_golden_digests(backend, seed, stream, start, count,
                                             randoms_sha, counts_sha):
    randoms = [np.asarray(a) for a in backend.pulse_randoms(seed, stream, start, count)]
    assert [a.dtype for a in randoms] == [np.float64] * 3 + [np.uint8] * 2
    assert _digest(*randoms) == randoms_sha
    n, clamped = backend.poisson_counts(randoms[1], np.linspace(0.0, 4.0, count), 5)
    n, clamped = np.asarray(n), np.asarray(clamped)
    assert (n.dtype, clamped.dtype) == (np.int64, np.bool_)
    assert _digest(n, clamped) == counts_sha


# Reference Philox and per-pulse randoms: the row-wise numpy code the in-place
# chunked kernel replaced, kept as the oracle for it.
_MASK32 = 0xFFFFFFFF


def _ref_philox4x32(ctr, key):
    ctr = np.asarray(ctr, dtype=np.uint32)
    c0 = ctr[:, 0].astype(np.uint64)
    c1 = ctr[:, 1].astype(np.uint64)
    c2 = ctr[:, 2].astype(np.uint64)
    c3 = ctr[:, 3].astype(np.uint64)
    k0 = int(key[0]) & _MASK32
    k1 = int(key[1]) & _MASK32
    mask = np.uint64(_MASK32)
    m0 = np.uint64(0xD2511F53)
    m1 = np.uint64(0xCD9E8D57)
    for r in range(10):
        rk0 = np.uint64((k0 + r * 0x9E3779B9) & _MASK32)
        rk1 = np.uint64((k1 + r * 0xBB67AE85) & _MASK32)
        p0 = m0 * c0
        p1 = m1 * c2
        hi0 = p0 >> np.uint64(32)
        lo0 = p0 & mask
        hi1 = p1 >> np.uint64(32)
        lo1 = p1 & mask
        c0 = hi1 ^ c1 ^ rk0
        c1 = lo1
        c2 = hi0 ^ c3 ^ rk1
        c3 = lo0
    out = np.empty((ctr.shape[0], 4), dtype=np.uint32)
    out[:, 0] = c0.astype(np.uint32)
    out[:, 1] = c1.astype(np.uint32)
    out[:, 2] = c2.astype(np.uint32)
    out[:, 3] = c3.astype(np.uint32)
    return out


def _ref_u01(lo, hi):
    word = lo.astype(np.uint64) | (hi.astype(np.uint64) << np.uint64(32))
    return (word >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _ref_pulse_randoms(seed, stream, start, count):
    idx = (np.uint64(start) + np.arange(count, dtype=np.uint64))
    ctr = np.empty((2 * count, 4), dtype=np.uint32)
    lo = (idx & np.uint64(_MASK32)).astype(np.uint32)
    hi = (idx >> np.uint64(32)).astype(np.uint32)
    ctr[0::2, 0] = lo
    ctr[1::2, 0] = lo
    ctr[0::2, 1] = hi
    ctr[1::2, 1] = hi
    ctr[:, 2] = np.uint32(stream)
    ctr[0::2, 3] = 0
    ctr[1::2, 3] = 1
    key = np.array([seed & _MASK32, (seed >> 32) & _MASK32], dtype=np.uint32)
    w = _ref_philox4x32(ctr, key)
    blk0 = w[0::2]
    blk1 = w[1::2]
    u_gain = _ref_u01(blk0[:, 0], blk0[:, 1])
    u_h = _ref_u01(blk0[:, 2], blk0[:, 3])
    u_v = _ref_u01(blk1[:, 0], blk1[:, 1])
    delay_bit = (blk1[:, 2] >> np.uint32(31)).astype(np.uint8)
    basis_bit = (blk1[:, 3] >> np.uint32(31)).astype(np.uint8)
    return u_gain, u_h, u_v, delay_bit, basis_bit


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert np.array_equal(g, w)


_starts = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(1, 40).map(lambda k: 2**32 - k),
    st.integers(2**32, 2**40),
    st.integers(1, 40).map(lambda k: 2**64 - k),
)

SMALL_CHUNK = 4


@given(seed=st.integers(0, 2**64 - 1), stream=st.sampled_from([0, 1, 2]), start=_starts,
       count=st.sampled_from([0, 1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1,
                              3 * SMALL_CHUNK + 2]))
def test_pulse_randoms_match_reference_with_a_small_chunk(seed, stream, start, count):
    with mock.patch.object(_kernels, "CHUNK_PULSES", SMALL_CHUNK):
        got = _kernels.pulse_randoms(seed, stream, start, count)
    _assert_same_arrays(got, _ref_pulse_randoms(seed, stream, start, count))


CHUNK = _kernels.CHUNK_PULSES


@pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
@pytest.mark.parametrize("seed,stream,start", [
    (0, STREAM_GENERIC, 0),
    (20260814, STREAM_SESSION, 2**32 - 1000),
    (2**64 - 1, STREAM_DETECTOR, 2**64 - 5000),
])
def test_pulse_randoms_match_reference_at_the_real_chunk(seed, stream, start, count):
    got = _kernels.pulse_randoms(seed, stream, start, count)
    _assert_same_arrays(got, _ref_pulse_randoms(seed, stream, start, count))


@given(seed=st.integers(0, 2**64 - 1),
       ctr=st.lists(st.tuples(*[st.integers(0, _MASK32)] * 4), min_size=0, max_size=9))
def test_philox_matches_reference(seed, ctr):
    ctr = np.array(ctr, dtype=np.uint32).reshape(-1, 4)
    key = np.array([seed & _MASK32, seed >> 32], dtype=np.uint32)
    _assert_same_arrays([_kernels.philox4x32(ctr, key)], [_ref_philox4x32(ctr, key)])
