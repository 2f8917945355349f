"""Wave-plate algebra and the two detection settings."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fwmqkd.errors import DegenerateFieldError, DegenerateInputError, ParameterError
from fwmqkd.optics import (
    SignalField,
    detected_intensities,
    intensity_pair,
    per_field_intensity_pair,
    polarization_contrast,
    qwp_matrix,
    rotation_matrix,
    wrap_phase,
)
from fwmqkd.reconstruct import DEFAULT_GRID, THETA_MIX, THETA_SPLIT

THETAS = (0.0, 0.3, math.pi / 4, 1.2, -0.8)


@pytest.mark.parametrize(
    "raw,expected",
    [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi, math.pi),
        (2 * math.pi, 0.0),
        (-math.pi / 2, -math.pi / 2),
        (math.pi + 0.25, -math.pi + 0.25),
    ],
)
def test_wrap_phase(raw, expected):
    assert wrap_phase(raw) == pytest.approx(expected, abs=1e-12)
    assert -math.pi < wrap_phase(raw) <= math.pi


def _old_wrap_phase(phi):
    return -((-phi + math.pi) % (2.0 * math.pi) - math.pi)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


# Angles next to odd multiples of pi, where the remainder can round up to
# 2 pi, and zeros of both signs.
_NEAR_PI = st.builds(lambda k, up: float(np.nextafter(k * math.pi, math.inf if up else -math.inf)),
                     st.integers(-9, 9).map(lambda k: 2 * k + 1), st.booleans())
_ANGLES = st.one_of(_NEAR_PI, st.sampled_from([0.0, -0.0, math.pi, -math.pi]),
                    st.floats(-1e6, 1e6))


@given(angles=st.lists(_ANGLES, min_size=1, max_size=8))
def test_wrap_phase_stays_in_range_and_keeps_the_old_bits(angles):
    phi = np.array(angles)
    old = _old_wrap_phase(phi)
    for wrapped in (wrap_phase(phi), np.array([wrap_phase(a) for a in angles])):
        assert np.all((wrapped > -math.pi) & (wrapped <= math.pi))
        keep = old > -math.pi
        assert np.array_equal(_bits(wrapped)[keep], _bits(old)[keep])
        assert np.all(wrapped[~keep] == math.pi)
    assert type(wrap_phase(angles[0])) is float


def test_wrap_phase_just_above_pi_builds_a_field():
    above = float(np.nextafter(math.pi, 4.0))
    assert wrap_phase(above) == math.pi
    assert SignalField.normalized(1.0, 1.0, above).phi == math.pi
    assert math.copysign(1.0, wrap_phase(0.0)) == -1.0


@pytest.mark.parametrize("theta", [0.0, -0.0, math.pi / 4, 0.3, -1.234, 2.5e-8])
def test_qwp_matrix_cache_is_bit_exact_and_read_only(theta):
    fresh = rotation_matrix(-theta) @ np.diag([1.0 + 0.0j, 1.0j]) @ rotation_matrix(theta)
    for q in (qwp_matrix(theta), qwp_matrix(np.float64(theta))):
        assert q.dtype == fresh.dtype
        assert np.array_equal(q.view(np.uint64), fresh.view(np.uint64))
        with pytest.raises(ValueError):
            q[0, 0] = 0.0


def test_rotation_matrices_are_orthonormal():
    for theta in THETAS:
        r = rotation_matrix(theta)
        np.testing.assert_allclose(r.T @ r, np.eye(2), atol=1e-15)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-15)


def test_qwp_is_unitary_everywhere():
    for theta in THETAS:
        q = qwp_matrix(theta)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-15)


def test_qwp_at_zero_only_retards_the_vertical_port():
    np.testing.assert_allclose(qwp_matrix(0.0), np.diag([1.0, 1.0j]), atol=1e-15)


def test_qwp_at_the_mixing_angle_matches_closed_form():
    expected = 0.5 * np.array([[1.0 + 1.0j, 1.0j - 1.0], [1.0j - 1.0, 1.0 + 1.0j]])
    np.testing.assert_allclose(qwp_matrix(math.pi / 4), expected, atol=1e-15)


def test_split_setting_reads_amplitudes_and_ignores_phase():
    f1 = SignalField.normalized(0.6, 0.8, 0.3)
    f2 = SignalField.normalized(0.6, 0.8, -2.9)
    i1 = detected_intensities(f1, 0.0)
    i2 = detected_intensities(f2, 0.0)
    assert i1[0] == pytest.approx(0.36, abs=1e-12)
    assert i1[1] == pytest.approx(0.64, abs=1e-12)
    assert i1 == pytest.approx(i2, abs=1e-15)


def test_mixing_setting_matches_interference_formula():
    rng = np.random.default_rng(42)
    for _ in range(200):
        psi = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(-math.pi, math.pi)
        f = SignalField(math.cos(psi), math.sin(psi), phi)
        i_h, i_v = detected_intensities(f, math.pi / 4)
        expected = 0.5 * (1.0 + 2.0 * f.a_h * f.a_v * math.sin(phi))
        assert i_h == pytest.approx(expected, abs=1e-12)
        assert i_v == pytest.approx(1.0 - expected, abs=1e-12)


def test_circular_field_exits_one_port():
    f = SignalField(1.0 / math.sqrt(2), 1.0 / math.sqrt(2), math.pi / 2)
    i_h, i_v = detected_intensities(f, math.pi / 4)
    assert i_h == pytest.approx(1.0, abs=1e-12)
    assert i_v == pytest.approx(0.0, abs=1e-12)


def test_energy_is_conserved_at_every_setting():
    rng = np.random.default_rng(11)
    for theta in THETAS:
        for _ in range(50):
            psi = rng.uniform(0.0, math.pi / 2)
            f = SignalField(math.cos(psi), math.sin(psi), rng.uniform(-math.pi, math.pi))
            i_h, i_v = detected_intensities(f, theta)
            assert i_h + i_v == pytest.approx(1.0, abs=1e-12)


def test_broadcasting_route_agrees_with_matrix_route():
    rng = np.random.default_rng(5)
    psi = rng.uniform(0.0, math.pi / 2, 64)
    phi = rng.uniform(-math.pi, math.pi, 64)
    a_h, a_v = np.cos(psi), np.sin(psi)
    for theta in THETAS:
        vec_h, vec_v = intensity_pair(a_h, a_v, phi, theta)
        for k in range(64):
            i_h, i_v = detected_intensities(SignalField(a_h[k], a_v[k], phi[k]), theta)
            assert vec_h[k] == pytest.approx(i_h, abs=1e-14)
            assert vec_v[k] == pytest.approx(i_v, abs=1e-14)


def _assert_per_field_bits(a_h, a_v, phi):
    """per_field_intensity_pair against one intensity_pair call per field on
    its Python floats, compared as bits so that -0.0 counts."""
    for theta in (THETA_SPLIT, THETA_MIX):
        got = per_field_intensity_pair(np.array(a_h), np.array(a_v), np.array(phi), theta)
        want = np.array([intensity_pair(*field, theta) for field in zip(a_h, a_v, phi)])
        for port in range(2):
            np.testing.assert_array_equal(_bits(got[port]), _bits(want[:, port]))


# Grid points as reconstruct_map builds its fields: A_H = sin psi and
# A_V = cos psi by math, phi on the principal branch.
_GRID_POINTS = st.tuples(st.floats(0.0, math.pi / 2), st.floats(-math.pi / 2, math.pi / 2))


@given(points=st.lists(_GRID_POINTS, min_size=1, max_size=40))
def test_per_field_pairs_keep_the_scalar_bits(points):
    _assert_per_field_bits([math.sin(psi) for psi, _ in points],
                           [math.cos(psi) for psi, _ in points],
                           [phi for _, phi in points])


def test_per_field_pairs_keep_the_scalar_bits_on_the_default_grid():
    psi = DEFAULT_GRID.psi_axis().tolist()
    phi = DEFAULT_GRID.phi_axis().tolist()
    _assert_per_field_bits([math.sin(p) for p in psi for _ in phi],
                           [math.cos(p) for p in psi for _ in phi],
                           phi * len(psi))


def test_per_field_pairs_keep_the_scalar_bits_on_edge_fields():
    fields = [(a_h, a_v, phi) for a_h, a_v in ((0.0, 1.0), (1.0, 0.0))
              for phi in (math.pi / 2, -math.pi / 2, 0.0, -0.0, math.pi)]
    _assert_per_field_bits(*map(list, zip(*fields)))


def test_polarization_contrast_values_and_errors():
    assert polarization_contrast(0.3, 0.1) == pytest.approx(0.5, abs=1e-15)
    assert polarization_contrast(1.0, 0.0) == 1.0
    assert polarization_contrast(0.0, 1.0) == -1.0
    with pytest.raises(ParameterError):
        polarization_contrast(-0.1, 0.5)
    with pytest.raises(DegenerateInputError):
        polarization_contrast(0.0, 0.0)


class TestSignalField:
    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ParameterError):
            SignalField(1.0, 1.0, 0.0)

    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ParameterError):
            SignalField(-0.6, 0.8, 0.0)

    def test_rejects_out_of_range_phase(self):
        with pytest.raises(ParameterError):
            SignalField(1.0, 0.0, -math.pi)

    def test_normalized_constructor_rescales_and_wraps(self):
        f = SignalField.normalized(3.0, 4.0, 2 * math.pi + 0.5)
        assert f.a_h == pytest.approx(0.6, abs=1e-15)
        assert f.a_v == pytest.approx(0.8, abs=1e-15)
        assert f.phi == pytest.approx(0.5, abs=1e-12)

    def test_normalized_rejects_the_zero_field(self):
        with pytest.raises(DegenerateFieldError):
            SignalField.normalized(0.0, 0.0, 0.0)
