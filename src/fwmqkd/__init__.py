"""Spin-encoded key distribution over a simulated four-wave-mixing channel.

The package models the complex emission spectrum of a three-resonance
excitonic system, detects it through a rotatable quarter-wave plate,
recovers the field from intensity ratios by grid search, and runs photon
counting sessions that carry a message over the delay-encoded channel.
"""

from ._kernels import BACKEND
from .errors import (
    ConfigError,
    DegenerateFieldError,
    DegenerateInputError,
    MessageEncodingError,
    ParameterError,
    SchemaError,
)
from .optics import SignalField, intensity_pair, polarization_contrast, qwp_matrix
from .photons import AttenuationConfig, ContrastStats, accumulate_contrast, draw_photon_counts
from .reconstruct import (
    GridSpec,
    ReconstructionMap,
    ReconstructionResult,
    intensity_ratio,
    reconstruct_map,
)
from .session import (
    ChannelModel,
    SessionConfig,
    SessionReport,
    decode_to_text,
    encode_message,
    run_session,
)
from .spectral import Condition, ModelParams, field_arrays, signal_spectrum

__version__ = "0.2.0"

__all__ = [
    "AttenuationConfig",
    "BACKEND",
    "ChannelModel",
    "Condition",
    "ConfigError",
    "ContrastStats",
    "DegenerateFieldError",
    "DegenerateInputError",
    "GridSpec",
    "MessageEncodingError",
    "ModelParams",
    "ParameterError",
    "ReconstructionMap",
    "ReconstructionResult",
    "SchemaError",
    "SessionConfig",
    "SessionReport",
    "SignalField",
    "accumulate_contrast",
    "decode_to_text",
    "draw_photon_counts",
    "encode_message",
    "field_arrays",
    "intensity_pair",
    "intensity_ratio",
    "polarization_contrast",
    "qwp_matrix",
    "reconstruct_map",
    "run_session",
    "signal_spectrum",
    "__version__",
]
