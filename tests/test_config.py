"""Config loading, merging, coercion, and the derived parameter objects."""

import json
import math

import pytest

from fwmqkd.config import (
    CHANNEL_PRESETS,
    DEFAULTS,
    grid_spec_from,
    load_config,
    model_params_from,
    resolve_seed,
    session_config_from,
)
from fwmqkd.errors import ConfigError, SchemaError
from fwmqkd.reconstruct import GridSpec
from fwmqkd.session import SessionConfig
from fwmqkd.spectral import ModelParams


def _load(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return load_config(path)


def test_missing_path_returns_the_defaults():
    cfg = load_config(None)
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS


def test_the_config_defaults_build_the_library_defaults():
    # DEFAULTS repeats the dataclass defaults, so the two must not drift.
    cfg = load_config(None)
    assert model_params_from(cfg) == ModelParams()
    assert grid_spec_from(cfg) == GridSpec()
    assert session_config_from(cfg, 7) == SessionConfig(seed=7)


def test_partial_override_merges_deeply(tmp_path):
    cfg = _load(tmp_path, {"grid": {"psi_step": 0.01}, "seed": 4})
    assert cfg["grid"]["psi_step"] == 0.01
    assert cfg["grid"]["phi_step"] == DEFAULTS["grid"]["phi_step"]
    assert cfg["seed"] == 4
    assert cfg["qkd"] == DEFAULTS["qkd"]


def test_unknown_keys_are_rejected(tmp_path):
    with pytest.raises(ConfigError):
        _load(tmp_path, {"spectra": {"dpi": 300}})
    with pytest.raises(ConfigError):
        _load(tmp_path, {"plotting": {}})


def test_type_errors_are_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        _load(tmp_path, {"seed": "twelve"})
    with pytest.raises(SchemaError):
        _load(tmp_path, {"qkd": {"cycles": 3.5}})
    with pytest.raises(SchemaError):
        _load(tmp_path, {"spectra": {"t_list": "0,500"}})


def test_integers_coerce_to_float_fields(tmp_path):
    cfg = _load(tmp_path, {"model": {"delta": 2}})
    assert cfg["model"]["delta"] == 2.0
    assert isinstance(cfg["model"]["delta"], float)


def test_malformed_json_is_a_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    with pytest.raises(SchemaError):
        load_config(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


def test_seed_precedence(monkeypatch):
    cfg = {"seed": 10}
    monkeypatch.delenv("FWMQKD_SEED", raising=False)
    assert resolve_seed(None, cfg) == 10
    monkeypatch.setenv("FWMQKD_SEED", "0x20")
    assert resolve_seed(None, cfg) == 32
    assert resolve_seed(7, cfg) == 7


def test_bad_env_seed_is_a_config_error(monkeypatch):
    monkeypatch.setenv("FWMQKD_SEED", "not-a-number")
    with pytest.raises(ConfigError):
        resolve_seed(None, {"seed": 1})


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_is_rejected_from_every_source(monkeypatch, seed):
    monkeypatch.delenv("FWMQKD_SEED", raising=False)
    with pytest.raises(ConfigError):
        resolve_seed(seed, {"seed": 1})
    with pytest.raises(ConfigError):
        resolve_seed(None, {"seed": seed})
    monkeypatch.setenv("FWMQKD_SEED", str(seed))
    with pytest.raises(ConfigError):
        resolve_seed(None, {"seed": 1})


def test_seed_range_edges_are_accepted(monkeypatch):
    monkeypatch.delenv("FWMQKD_SEED", raising=False)
    assert resolve_seed(0, {"seed": 1}) == 0
    assert resolve_seed(None, {"seed": 2**64 - 1}) == 2**64 - 1


def test_model_params_follow_the_config(tmp_path):
    cfg = _load(tmp_path, {"model": {"delta": 1.5, "hilbert_sign": -1}})
    params = model_params_from(cfg)
    assert params.delta == 1.5
    assert params.hilbert_sign == -1


def test_grid_spec_from_config(tmp_path):
    cfg = _load(tmp_path, {"grid": {"xi": 1e-6}})
    assert grid_spec_from(cfg).xi == 1e-6


class TestSessionConfigFrom:
    def test_presets_fill_wavelength_and_angle(self):
        for name, preset in CHANNEL_PRESETS.items():
            cfg = load_config(None)
            cfg["qkd"]["preset"] = name
            sc = session_config_from(cfg, seed=5)
            assert sc.lambda_nm == preset["lambda_nm"]
            assert sc.decode_theta == pytest.approx(
                math.radians(preset["decode_theta_deg"]), abs=1e-15
            )
            assert sc.seed == 5

    def test_explicit_values_override_the_preset(self, tmp_path):
        cfg = _load(
            tmp_path,
            {"qkd": {"preset": "540nm", "lambda_nm": 512.0, "decode_theta_deg": 45.0}},
        )
        sc = session_config_from(cfg, seed=1)
        assert sc.lambda_nm == 512.0
        assert sc.decode_theta == pytest.approx(math.pi / 4, abs=1e-15)

    def test_unknown_preset_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            session_config_from(
                _load(tmp_path, {"qkd": {"preset": "600nm"}}), seed=1
            )
