"""Lineshapes, coefficient tables, composed spectra, and the wavelength map."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from fwmqkd.errors import ParameterError
from fwmqkd.spectral import (
    B0_TABLE,
    DEFAULT_PARAMS,
    DELTA_EV,
    EXCITON_WAVELENGTH_NM,
    RESONANCES,
    Condition,
    ModelParams,
    coefficients_at,
    complex_lineshape,
    field_arrays,
    gaussian_lineshape,
    hilbert_of_gaussian,
    signal_spectrum,
    wavelength_to_energy,
)

GRID = np.linspace(-6.0, 6.0, 481)


def test_gaussian_peaks_at_each_resonance():
    p = DEFAULT_PARAMS
    for u in RESONANCES:
        assert gaussian_lineshape(np.array([u * p.delta]), u, p)[0] == 1.0
        off = gaussian_lineshape(np.array([u * p.delta + p.delta]), u, p)[0]
        assert off == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_gaussian_width_scales_with_delta():
    wide = ModelParams(delta=2.0)
    # at E = delta the argument is one width, same as E = 1 for delta = 1
    assert gaussian_lineshape(np.array([2.0]), 0, wide)[0] == pytest.approx(
        math.exp(-0.5), abs=1e-15
    )


def test_hilbert_part_is_odd_about_each_center():
    p = DEFAULT_PARAMS
    for u in RESONANCES:
        c = u * p.delta
        assert hilbert_of_gaussian(np.array([c]), u, p)[0] == 0.0
        x = np.linspace(0.1, 5.0, 40)
        left = hilbert_of_gaussian(c - x, u, p)
        right = hilbert_of_gaussian(c + x, u, p)
        np.testing.assert_allclose(left, -right, atol=1e-15)


def test_hilbert_part_matches_principal_value_integral():
    """Independent check against the Cauchy principal value quadrature."""
    p = DEFAULT_PARAMS

    def gauss(t):
        return math.exp(-t * t / 2.0)

    for x in (-3.0, -0.7, 0.4, 1.0, 2.5):
        pv, _ = quad(gauss, -60.0, 60.0, weight="cauchy", wvar=x, limit=400)
        ref = -pv / math.pi
        got = hilbert_of_gaussian(np.array([x]), 0, p)[0]
        assert got == pytest.approx(ref, abs=1e-12)


def test_hilbert_frozen_value_at_one_width():
    got = hilbert_of_gaussian(np.array([1.0]), 0, DEFAULT_PARAMS)[0]
    assert got == pytest.approx(0.5782895424442387, abs=1e-15)


def test_hilbert_sign_flips_odd_part_only():
    flipped = ModelParams(hilbert_sign=-1)
    np.testing.assert_array_equal(
        hilbert_of_gaussian(GRID, 0, flipped),
        -hilbert_of_gaussian(GRID, 0, DEFAULT_PARAMS),
    )
    np.testing.assert_array_equal(
        gaussian_lineshape(GRID, 0, flipped), gaussian_lineshape(GRID, 0, DEFAULT_PARAMS)
    )


def test_complex_lineshape_at_center_and_tail():
    p = DEFAULT_PARAMS
    assert complex_lineshape(np.array([0.0]), 0, p)[0] == 1.0 + 0.0j
    # the Gaussian part is dead at eight widths, the dispersive tail is not
    tail = complex_lineshape(np.array([8.0]), 0, p)[0]
    assert abs(tail.real) < 1e-3
    assert abs(tail) == pytest.approx(0.10137342492952119, abs=1e-15)


def test_coefficients_at_zero_delay_reproduce_table():
    for j, cond in enumerate((Condition.RRRR, Condition.RRLL)):
        got = coefficients_at(0.0, cond, DEFAULT_PARAMS)
        np.testing.assert_array_equal(got, [row[j] for row in B0_TABLE])


def test_coefficients_relax_to_column_mean():
    late = coefficients_at(1e9, Condition.RRRR, DEFAULT_PARAMS)
    np.testing.assert_allclose(late, [math.sqrt(2) / 2, -1.5, 1.0], atol=1e-12)
    also = coefficients_at(1e9, Condition.RRLL, DEFAULT_PARAMS)
    np.testing.assert_allclose(also, late, atol=1e-12)


def test_coefficients_interpolate_exponentially():
    t, k = 130.0, DEFAULT_PARAMS.k_spin
    mean = np.array([math.sqrt(2) / 2, -1.5, 1.0])
    start = np.array([row[1] for row in B0_TABLE])
    expected = mean + (start - mean) * math.exp(-k * t)
    np.testing.assert_allclose(
        coefficients_at(t, Condition.RRLL, DEFAULT_PARAMS), expected, atol=1e-14
    )


def test_coefficients_reject_bad_requests():
    with pytest.raises(ParameterError):
        coefficients_at(-1.0, Condition.RRRR, DEFAULT_PARAMS)
    for cond in (Condition.RRVV, Condition.RRVH):
        with pytest.raises(ParameterError):
            coefficients_at(0.0, cond, DEFAULT_PARAMS)


def test_zero_coefficient_terms_drop_out_bitwise():
    s = signal_spectrum(0.0, GRID, Condition.RRRR, DEFAULT_PARAMS)
    manual = -2.0 * complex_lineshape(GRID, 0, DEFAULT_PARAMS) + complex_lineshape(
        GRID, 1, DEFAULT_PARAMS
    )
    np.testing.assert_array_equal(s, manual)


@pytest.mark.parametrize("t", [0.0, 85.0, 400.0])
def test_mixed_conditions_are_linear_combinations(t):
    p = DEFAULT_PARAMS
    rrrr = signal_spectrum(t, GRID, Condition.RRRR, p)
    rrll = signal_spectrum(t, GRID, Condition.RRLL, p)
    rrvv = signal_spectrum(t, GRID, Condition.RRVV, p)
    rrvh = signal_spectrum(t, GRID, Condition.RRVH, p)
    np.testing.assert_allclose(rrvv, (rrrr + rrll) / 2.0, atol=1e-14)
    np.testing.assert_allclose(rrvh, 0.5j * (rrll - rrrr), atol=1e-14)
    # parallelogram restatement used as the quick acceptance identity
    np.testing.assert_allclose(rrrr + rrll - 2.0 * rrvv, 0.0, atol=1e-12)


def test_rrvv_is_time_stationary_bitwise():
    a = signal_spectrum(0.0, GRID, Condition.RRVV, DEFAULT_PARAMS)
    b = signal_spectrum(700.0, GRID, Condition.RRVV, DEFAULT_PARAMS)
    np.testing.assert_array_equal(a, b)


def test_rrvh_decays_as_a_single_exponential():
    p = DEFAULT_PARAMS
    base = signal_spectrum(0.0, GRID, Condition.RRVH, p)
    for t in (50.0, 250.0, 1000.0):
        decayed = signal_spectrum(t, GRID, Condition.RRVH, p)
        np.testing.assert_allclose(decayed, base * math.exp(-p.k_spin * t), atol=1e-12)


def test_equal_columns_kill_the_cross_polarized_signal():
    p = ModelParams(b0=((1.0, 1.0), (-2.0, -2.0), (1.0, 1.0)))
    s = signal_spectrum(0.0, GRID, Condition.RRVH, p)
    assert not np.any(s)


def test_signal_spectrum_rejects_empty_grid():
    with pytest.raises(ParameterError):
        signal_spectrum(0.0, np.array([]), Condition.RRRR, DEFAULT_PARAMS)


@pytest.mark.parametrize("condition", list(Condition))
def test_signal_spectrum_rejects_negative_delay(condition):
    with pytest.raises(ParameterError):
        signal_spectrum(-5.0, GRID, condition, DEFAULT_PARAMS)


def test_condition_parsing():
    assert Condition.from_string("rrvh") is Condition.RRVH
    assert Condition.from_string("RRRR") is Condition.RRRR
    with pytest.raises(ParameterError):
        Condition.from_string("RRHV")


class TestWavelengthMap:
    def test_reference_points_are_exact(self):
        p = DEFAULT_PARAMS
        assert wavelength_to_energy(EXCITON_WAVELENGTH_NM, p) == 0.0
        assert wavelength_to_energy(500.0, p) == 1.0
        assert wavelength_to_energy(530.0, p) == -1.0

    def test_exciton_wavelength_is_the_harmonic_midpoint(self):
        assert EXCITON_WAVELENGTH_NM == pytest.approx(
            2.0 * 500.0 * 530.0 / 1030.0, abs=1e-12
        )
        assert DELTA_EV == pytest.approx(0.0701797349620755, abs=1e-15)

    def test_energy_outside_the_bracket(self):
        assert wavelength_to_energy(540.0, DEFAULT_PARAMS) == pytest.approx(
            -1.6172839506172827, abs=1e-12
        )

    def test_map_is_monotonically_decreasing(self):
        lams = np.linspace(480.0, 560.0, 81)
        energies = np.array(
            [wavelength_to_energy(l, DEFAULT_PARAMS) for l in lams]
        )
        assert np.all(np.diff(energies) < 0.0)

    def test_rejects_nonpositive_wavelengths(self):
        for bad in (0.0, -515.0):
            with pytest.raises(ParameterError):
                wavelength_to_energy(bad, DEFAULT_PARAMS)


class TestFieldArrays:
    def test_frozen_values_at_the_exciton_line(self):
        a_h, a_v, phi = field_arrays(0.0, [EXCITON_WAVELENGTH_NM], DEFAULT_PARAMS)
        assert a_h[0] == pytest.approx(0.8989692351595538, abs=1e-12)
        assert a_v[0] == pytest.approx(0.438011774084495, abs=1e-12)
        assert phi[0] == pytest.approx(-1.5057051318317507, abs=1e-12)

    def test_frozen_values_at_540nm(self):
        a_h, a_v, phi = field_arrays(0.0, [540.0], DEFAULT_PARAMS)
        assert a_h[0] == pytest.approx(0.9563012355452118, abs=1e-12)
        assert a_v[0] == pytest.approx(0.2923832192426601, abs=1e-12)
        assert phi[0] == pytest.approx(0.1351045065298102, abs=1e-12)

    def test_amplitudes_are_normalized(self):
        a_h, a_v, _ = field_arrays(120.0, [500.0, 514.0, 533.0, 545.0], DEFAULT_PARAMS)
        np.testing.assert_allclose(a_h**2 + a_v**2, 1.0, rtol=0.0, atol=1e-12)

    def test_cross_component_dies_at_long_delay(self):
        a_h, a_v, _ = field_arrays(5000.0, [540.0], DEFAULT_PARAMS)
        assert a_h[0] < 1e-10
        assert a_v[0] == pytest.approx(1.0, abs=1e-10)

    def test_phase_sign_between_the_resonances(self):
        _, _, phi = field_arrays(0.0, [505.0, 515.0, 525.0, 533.0], DEFAULT_PARAMS)
        assert np.all(np.sin(phi) < 0.0)

    def test_rejects_a_field_rounding_leaves_unnormalized(self):
        # So far out on the line tails the squared amplitudes are subnormal,
        # and the rounded field misses A_H^2 + A_V^2 = 1 by about 2e-6.
        with pytest.raises(ParameterError, match="^field is not normalized: A_H"):
            field_arrays(0.0, [540.0], ModelParams(delta_ev=1e-160))

    @given(t=st.floats(0.0, 3000.0), lams=st.lists(st.floats(470.0, 600.0), min_size=2, max_size=40))
    def test_without_the_biexciton_rows_the_field_is_the_same_at_every_wavelength(self, t, lams):
        # Only the exciton line is left, and it enters S_RRVH and S_RRVV
        # alike, so their ratio, and with it the field, is flat in lambda.
        b0 = DEFAULT_PARAMS.b0
        params = dataclasses.replace(DEFAULT_PARAMS, b0=((0.0, 0.0), b0[1], (0.0, 0.0)))
        for component in field_arrays(t, lams, params):
            np.testing.assert_allclose(component, component[0], rtol=0.0, atol=1e-12)


def test_model_params_validation():
    with pytest.raises(ParameterError):
        ModelParams(delta=0.0)
    with pytest.raises(ParameterError):
        ModelParams(k_spin=-0.01)
    with pytest.raises(ParameterError):
        ModelParams(hilbert_sign=2)
    with pytest.raises(ParameterError):
        ModelParams(b0=((1.0, 1.0), (2.0, 2.0)))
