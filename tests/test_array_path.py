"""The scalar field, intensity and ratio functions are 1-element calls of
the array ones, so both give the same bits for the same inputs."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import read_json
from fwmqkd.errors import DegenerateFieldError
from fwmqkd.optics import SignalField, detected_intensities, intensity_pair
from fwmqkd.reconstruct import DEFAULT_GRID, THETA_MIX, THETA_SPLIT, _ratio_tables, measured_ratios
from fwmqkd.session import ChannelModel, SessionConfig
from fwmqkd.spectral import DEFAULT_PARAMS, ModelParams, field_arrays, field_components

_wavelengths = st.lists(st.floats(470.0, 600.0), min_size=1, max_size=40)
_thetas = st.one_of(st.sampled_from([THETA_SPLIT, THETA_MIX]), st.floats(0.0, math.pi))


@given(t=st.floats(0.0, 3000.0), lams=_wavelengths, data=st.data())
def test_field_components_is_one_element_of_field_arrays(t, lams, data):
    k = data.draw(st.integers(0, len(lams) - 1))
    a_h, a_v, phi = field_arrays(t, np.array(lams), DEFAULT_PARAMS)
    f = field_components(t, lams[k], DEFAULT_PARAMS)
    assert (f.a_h, f.a_v, f.phi) == (a_h[k], a_v[k], phi[k])


@given(psi=st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=40),
       theta=_thetas, data=st.data())
def test_detected_intensities_is_one_element_of_intensity_pair(psi, theta, data):
    n = len(psi)
    phi = np.array(data.draw(st.lists(st.floats(-math.pi, math.pi, exclude_min=True),
                                      min_size=n, max_size=n)))
    a_h, a_v = np.sin(psi), np.cos(psi)
    i_h, i_v = intensity_pair(a_h, a_v, phi, theta)
    k = data.draw(st.integers(0, n - 1))
    field = SignalField(float(a_h[k]), float(a_v[k]), float(phi[k]))
    assert detected_intensities(field, theta) == (i_h[k], i_v[k])


def test_field_arrays_rejects_a_zero_field():
    params = ModelParams(b0=((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(DegenerateFieldError):
        field_arrays(0.0, np.array([520.0, 540.0]), params)


def test_measured_ratios_at_grid_fields_equal_the_tables():
    psi, phi, tab0, tab45 = _ratio_tables(DEFAULT_GRID)
    a_h, a_v = np.sin(psi), np.cos(psi)
    rng = np.random.default_rng(3)
    rows = rng.integers(0, psi.size, 3000)
    cols = rng.integers(0, phi.size, 3000)
    mismatches = [
        (i, j) for i, j in zip(rows, cols)
        if measured_ratios(SignalField(float(a_h[i]), float(a_v[i]), float(phi[j])))
        != (tab0[i, j], tab45[i, j])
    ]
    assert mismatches == []


def test_detector_check_intensities_equal_the_channel_table(run_cli, tmp_path):
    # The detector check's defaults (t = 0, 540 nm) are the 540nm channel's
    # bit-1 setting, so both must report the same intensities.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"detector_check": {"pulses": 10}}))
    assert run_cli("detector-check", "--config", str(cfg), "--out", "d") == 0
    settings = read_json(run_cli.cwd / "d" / "detector_check.json")["settings"]
    channel = ChannelModel.from_config(SessionConfig(lambda_nm=540.0, decode_theta=THETA_SPLIT))
    assert channel.itable[1].tolist() == [
        [settings[name]["i_h"], settings[name]["i_v"]] for name in ("theta_0", "theta_45")
    ]
