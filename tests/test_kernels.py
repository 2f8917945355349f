"""Counter RNG, count sampling, and argmin kernels, on every available backend."""

import hashlib

import numpy as np
import pytest
import scipy.stats

from fwmqkd._kernels import (
    BACKEND,
    STREAM_DETECTOR,
    STREAM_GENERIC,
    STREAM_SESSION,
    poisson_counts,
    se_argmin,
)
from fwmqkd._kernels import _purepy

try:
    from fwmqkd._kernels import _core
except ImportError:
    _core = None

BACKENDS = [pytest.param(_purepy, id="numpy")]
if _core is not None:
    BACKENDS.append(pytest.param(_core, id="cython"))

requires_core = pytest.mark.skipif(_core is None, reason="compiled core not built")

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


@requires_core
def test_backends_agree_bitwise():
    seed, count = 987654321, 4096
    for stream in (STREAM_GENERIC, STREAM_SESSION, STREAM_DETECTOR):
        a = _purepy.pulse_randoms(seed, stream, 0, count)
        b = _core.pulse_randoms(seed, stream, 0, count)
        for x, y in zip(a, b):
            assert np.array_equal(np.asarray(x), np.asarray(y))

    rng = np.random.default_rng(3)
    u = rng.random(2000)
    lam = rng.uniform(0.05, 4.0, 2000)
    n1, c1 = _purepy.poisson_counts(u, lam, 5)
    n2, c2 = _core.poisson_counts(u, lam, 5)
    assert np.array_equal(np.asarray(n1), np.asarray(n2))
    assert np.array_equal(np.asarray(c1), np.asarray(c2))

    tab0 = rng.random((37, 53))
    tab45 = rng.random((37, 53))
    assert _purepy.se_argmin(tab0, tab45, 0.4, 0.6, 1e-12) == _core.se_argmin(
        tab0, tab45, 0.4, 0.6, 1e-12
    )


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


def test_se_argmin_prefers_first_row_major_minimum():
    zeros = np.zeros((2, 2))
    # se = [[1, 0], [0, 1]]: two exact ties, first in row-major order is (0, 1)
    tab0 = np.array([[2.0, 1.0], [1.0, 2.0]])
    i_psi, i_phi, se_min, n_ties = se_argmin(tab0, zeros, 1.0, 0.0, 1e-12)
    assert (i_psi, i_phi, n_ties) == (0, 1, 2)
    assert se_min == 0.0

    # unique minimum at (1, 0)
    tab0 = np.array([[5.0, 3.0], [1.0, 4.0]])
    i_psi, i_phi, se_min, n_ties = se_argmin(tab0, zeros, 1.0, 0.0, 1e-12)
    assert (i_psi, i_phi, n_ties) == (1, 0, 1)


def test_se_argmin_tie_tolerance_window():
    zeros = np.zeros((1, 3))
    # offsets 0, 1e-7, 1e-5 -> squared errors 0, 1e-14, 1e-10
    tab0 = np.array([[1.0, 1.0 + 1e-7, 1.0 + 1e-5]])
    i_psi, i_phi, _, n_ties = se_argmin(tab0, zeros, 1.0, 0.0, 1e-12)
    assert (i_psi, i_phi) == (0, 0)
    assert n_ties == 2


def test_bench_exercises_every_backend():
    from fwmqkd.bench import format_report, run_bench

    report = run_bench(pulses=2000, pairs=2, repeats=1)
    assert set(report["kernels"]) == {"pulse_randoms", "poisson_counts", "se_argmin"}
    for entry in report["kernels"].values():
        assert entry["seconds_numpy"] > 0.0
        if report["compiled_available"]:
            assert entry["seconds_compiled"] > 0.0
            assert entry["speedup"] > 0.0
    assert report["compiled_available"] == (_core is not None)
    text = format_report(report)
    assert "pulse_randoms" in text


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Golden digests of the kernel outputs, captured from the numpy backend.
# Every backend and every later rewrite of the kernels must reproduce them.
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
