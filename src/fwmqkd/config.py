"""Run configuration: built-in defaults, JSON overrides, channel presets.

A config file is a JSON object that overrides any subset of DEFAULTS; keys
that do not exist in the defaults are rejected rather than silently
ignored, and values must match the default's type (a key whose default is
null takes null or the one type NULLABLE gives it).  Seeds resolve in the
order command line, then the FWMQKD_SEED environment variable, then the
config file.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
from pathlib import Path

from .errors import ConfigError, SchemaError
from .photons import AttenuationConfig
from .reconstruct import DEFAULT_GRID
from .session import SessionConfig
from .spectral import ModelParams

ENV_OUTPUT_DIR = "FWMQKD_OUTPUT_DIR"
ENV_SEED = "FWMQKD_SEED"

# Named channels used throughout: wavelength of the carrier and the wave
# plate setting Bob's sifting keeps.  The 540 nm channel decodes at the
# splitting setting where the two delays sit far apart; the 500 nm channel
# has to decode at the mixing setting and its contrast ordering is inverted.
CHANNEL_PRESETS = {
    "500nm": {"lambda_nm": 500.0, "decode_theta_deg": 45.0},
    "540nm": {"lambda_nm": 540.0, "decode_theta_deg": 0.0},
}

# The qkd keys passed to SessionConfig by name; the channel keys are
# resolved against the preset first.
SESSION_KEYS = ("message", "cycles", "delay_bit1", "delay_bit0", "threshold_mode")
_ATTENUATION_DEFAULTS = dataclasses.asdict(AttenuationConfig())

# The keys whose default is null, each with a value of the one other type
# it takes.
NULLABLE = {
    "output_dir": "",
    "reconstruct.input": "",
    "qkd.lambda_nm": 0.0,
    "qkd.decode_theta_deg": 0.0,
}

DEFAULTS: dict = {
    "seed": 20260814,
    "output_dir": None,
    # The model and grid sections are the keyword arguments of ModelParams
    # (all but its b0 table) and GridSpec, with the dataclass defaults.
    "model": {f.name: f.default for f in dataclasses.fields(ModelParams) if f.name != "b0"},
    "grid": dataclasses.asdict(DEFAULT_GRID),
    "spectra": {
        "t_list": [0.0],
        "e_min": -6.0,
        "e_max": 6.0,
        "points": 2048,
        "conditions": ["RRRR", "RRLL", "RRVV", "RRVH"],
    },
    "contrast_map": {
        "t_list": [0.0, 500.0],
        "lambda_min": 495.0,
        "lambda_max": 545.0,
        "points": 101,
    },
    "reconstruct": {
        "input": None,
    },
    # The qkd and detector_check sections hold SessionConfig's and
    # AttenuationConfig's fields by name, with the dataclass defaults, except
    # that detector-check draws from a source with gain noise (g2 1.2).
    "qkd": {
        "preset": "540nm",
        "lambda_nm": None,
        "decode_theta_deg": None,
        **{f.name: f.default for f in dataclasses.fields(SessionConfig) if f.name in SESSION_KEYS},
        **_ATTENUATION_DEFAULTS,
    },
    "detector_check": {
        "lambda_nm": 540.0,
        "t": 0.0,
        "pulses": 20000,
        **_ATTENUATION_DEFAULTS,
        "g2_target": 1.2,
    },
}


def load_config(path: str | os.PathLike | None) -> dict:
    """Read a JSON config and merge it over the defaults.

    Raises OSError when the file cannot be read, SchemaError when it is not
    valid JSON or a value has the wrong shape, and ConfigError for unknown
    keys.
    """
    merged = copy.deepcopy(DEFAULTS)
    if path is None:
        return merged
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError("config root must be a JSON object")
    _merge(merged, data, "")
    return merged


def _merge(base: dict, override: dict, prefix: str) -> None:
    for key, value in override.items():
        where = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        current = base[key]
        if isinstance(current, dict):
            if not isinstance(value, dict):
                raise SchemaError(f"config key {where!r} must be an object")
            _merge(current, value, where + ".")
        else:
            base[key] = _coerced(current, value, where)


def _coerced(default, value, where: str):
    if isinstance(value, bool):  # no key takes one, and bool is an int subclass
        raise SchemaError(f"config key {where!r} has the wrong type")
    if default is None:
        return None if value is None else _coerced(NULLABLE[where], value, where)
    if isinstance(default, float):
        if isinstance(value, (int, float)) and math.isfinite(value):
            return float(value)
        raise SchemaError(f"config key {where!r} must be a finite number")
    if isinstance(default, int):
        if isinstance(value, int):
            return value
        raise SchemaError(f"config key {where!r} must be an integer")
    if isinstance(default, str):
        if isinstance(value, str):
            return value
        raise SchemaError(f"config key {where!r} must be a string")
    if isinstance(default, list):
        if not isinstance(value, list):
            raise SchemaError(f"config key {where!r} must be a list")
        if default and isinstance(default[0], str):
            if all(isinstance(item, str) for item in value):
                return list(value)
            raise SchemaError(f"config key {where!r} must be a list of strings")
        if all(isinstance(item, (int, float)) and not isinstance(item, bool)
               and math.isfinite(item) for item in value):
            return [float(item) for item in value]
        raise SchemaError(f"config key {where!r} must be a list of finite numbers")
    raise SchemaError(f"config key {where!r} has an unsupported type")


def resolve_seed(cli_seed: int | None, config: dict) -> int:
    """Seed precedence: --seed flag, then FWMQKD_SEED, then the config.

    The generator is keyed by 64 bits, so a seed outside 0 <= seed < 2**64
    is rejected wherever it came from instead of aliasing another seed.
    """
    env = os.environ.get(ENV_SEED)
    if cli_seed is not None:
        seed = cli_seed
    elif env is not None:
        try:
            seed = int(env, 0)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    else:
        seed = int(config["seed"])
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    return seed


def attenuation_from(section: dict) -> AttenuationConfig:
    return AttenuationConfig(**{key: section[key] for key in _ATTENUATION_DEFAULTS})


def session_config_from(config: dict, seed: int) -> SessionConfig:
    """Assemble a SessionConfig, filling channel fields from the preset."""
    q = config["qkd"]
    lam = q["lambda_nm"]
    theta_deg = q["decode_theta_deg"]
    if lam is None or theta_deg is None:
        preset = q["preset"]
        if preset not in CHANNEL_PRESETS:
            known = ", ".join(sorted(CHANNEL_PRESETS))
            raise ConfigError(f"unknown channel preset {preset!r}; known presets: {known}")
        base = CHANNEL_PRESETS[preset]
        lam = base["lambda_nm"] if lam is None else lam
        theta_deg = base["decode_theta_deg"] if theta_deg is None else theta_deg
    return SessionConfig(
        **{key: q[key] for key in SESSION_KEYS},
        seed=seed,
        lambda_nm=lam,
        decode_theta=math.radians(theta_deg),
        attenuation=attenuation_from(q),
        params=ModelParams(**config["model"]),
    )
