"""Every field and intensity goes through the array calls, 1-element ones
included: a zero field is rejected, and detector-check's intensities are
the session channel's."""

import json

import numpy as np
import pytest

from conftest import read_json
from fwmqkd.errors import DegenerateFieldError
from fwmqkd.reconstruct import THETA_SPLIT
from fwmqkd.session import ChannelModel, SessionConfig
from fwmqkd.spectral import ModelParams, field_arrays


def test_field_arrays_rejects_a_zero_field():
    params = ModelParams(b0=((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(DegenerateFieldError):
        field_arrays(0.0, np.array([520.0, 540.0]), params)


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
