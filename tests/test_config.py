"""Config loading, merging, coercion, and the derived parameter objects."""

import dataclasses
import json
import math
import re

import pytest

from fwmqkd.config import (
    CHANNEL_PRESETS,
    DEFAULTS,
    NULLABLE,
    SESSION_KEYS,
    attenuation_from,
    load_config,
    resolve_seed,
    session_config_from,
)
from fwmqkd.errors import ConfigError, SchemaError
from fwmqkd.photons import AttenuationConfig
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
    # The model, grid, qkd and detector_check sections take their defaults
    # from the dataclasses; the qkd channel keys come from the 540 nm preset
    # and detector-check's source has gain noise.
    cfg = load_config(None)
    assert ModelParams(**cfg["model"]) == ModelParams()
    assert GridSpec(**cfg["grid"]) == GridSpec()
    assert session_config_from(cfg, 7) == SessionConfig(seed=7)
    assert attenuation_from(cfg["detector_check"]) == AttenuationConfig(g2_target=1.2)


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


def _leaves(section, prefix=""):
    for key, value in section.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", NULLABLE.get(f"{prefix}{key}", value)


def _wrong_values(default):
    """JSON values of the wrong type for a key of this default (or, for a
    null-default key, of the one type it takes besides null)."""
    if isinstance(default, list):
        return [1.0, "x"]
    if isinstance(default, str):
        return [3, 1.5]
    if isinstance(default, int):
        return ["3", True, 1.5]
    return ["1.0", True, [1.0]]


@pytest.mark.parametrize("key,value", [
    pytest.param(key, value, id=f"{key}={json.dumps(value)}")
    for key, default in _leaves(DEFAULTS) for value in _wrong_values(default)
])
def test_a_value_of_the_wrong_type_is_rejected_by_its_full_key(tmp_path, key, value):
    payload = value
    for part in reversed(key.split(".")):
        payload = {part: payload}
    with pytest.raises(SchemaError, match=re.escape(repr(key))):
        _load(tmp_path, payload)


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


# A valid value other than the default for every model and grid key, and
# for every SessionConfig and AttenuationConfig field the config spells.
ATTENUATION_KEYS = [f.name for f in dataclasses.fields(AttenuationConfig)]
NON_DEFAULT = {
    "model": {"delta": 1.5, "k_spin": 0.02, "hilbert_sign": -1, "lambda_x_nm": 520.0,
              "delta_ev": 0.1},
    "grid": {"psi_step": 0.01, "phi_step": 0.02, "xi": 1e-6},
    "session": {"message": "Hi", "cycles": 30, "delay_bit1": 100.0, "delay_bit0": 250.0,
                "threshold_mode": "fixed"},
    "attenuation": {"mean_total_photons": 2.5, "g2_target": 1.5, "max_photons": 7},
}


@pytest.mark.parametrize("key", sorted(DEFAULTS["model"]))
def test_model_params_follow_the_config(tmp_path, key):
    value = NON_DEFAULT["model"][key]
    assert value != DEFAULTS["model"][key]
    cfg = _load(tmp_path, {"model": {key: value}})
    params = session_config_from(cfg, 1).params
    assert getattr(params, key) == value
    assert dataclasses.replace(params, **{key: DEFAULTS["model"][key]}) == ModelParams()


@pytest.mark.parametrize("key", sorted(DEFAULTS["grid"]))
def test_grid_spec_from_config(tmp_path, key):
    value = NON_DEFAULT["grid"][key]
    assert value != DEFAULTS["grid"][key]
    cfg = _load(tmp_path, {"grid": {key: value}})
    grid = GridSpec(**cfg["grid"])
    assert getattr(grid, key) == value
    assert dataclasses.replace(grid, **{key: DEFAULTS["grid"][key]}) == GridSpec()


@pytest.mark.parametrize("key", SESSION_KEYS)
def test_session_config_follows_the_qkd_section(tmp_path, key):
    value = NON_DEFAULT["session"][key]
    assert value != DEFAULTS["qkd"][key]
    sc = session_config_from(_load(tmp_path, {"qkd": {key: value}}), 1)
    assert getattr(sc, key) == value
    assert dataclasses.replace(sc, **{key: DEFAULTS["qkd"][key]}) == SessionConfig(seed=1)


@pytest.mark.parametrize("key", ATTENUATION_KEYS)
def test_the_session_attenuation_follows_the_qkd_section(tmp_path, key):
    value = NON_DEFAULT["attenuation"][key]
    assert value != DEFAULTS["qkd"][key]
    sc = session_config_from(_load(tmp_path, {"qkd": {key: value}}), 1)
    assert getattr(sc.attenuation, key) == value
    restored = dataclasses.replace(sc.attenuation, **{key: DEFAULTS["qkd"][key]})
    assert dataclasses.replace(sc, attenuation=restored) == SessionConfig(seed=1)


@pytest.mark.parametrize("key", ATTENUATION_KEYS)
def test_the_detector_attenuation_follows_its_section(tmp_path, key):
    value = NON_DEFAULT["attenuation"][key]
    assert value != DEFAULTS["detector_check"][key]
    cfg = _load(tmp_path, {"detector_check": {key: value}})
    attenuation = attenuation_from(cfg["detector_check"])
    assert getattr(attenuation, key) == value
    assert (dataclasses.replace(attenuation, **{key: DEFAULTS["detector_check"][key]})
            == AttenuationConfig(g2_target=1.2))


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
