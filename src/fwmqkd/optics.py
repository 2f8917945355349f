"""Jones-calculus detection optics.

The detection arm is a rotatable quarter-wave plate followed by a fixed
polarizing beam splitter.  Fields are two-component Jones vectors in the
(H, V) basis; the signal field is parameterized by real amplitudes A_H, A_V
and the relative phase phi of the horizontal component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError

# Bob's two wave plate settings: the plate at 0 splits the raw amplitudes,
# the plate at 45 degrees mixes them.  SETTINGS holds them in table order
# (basis 0, then basis 1) and SETTINGS_DEG as the output files label them.
THETA_SPLIT = 0.0
THETA_MIX = math.pi / 4.0
SETTINGS = (THETA_SPLIT, THETA_MIX)
SETTINGS_DEG = (0, 45)


@dataclass(frozen=True)
class SignalField:
    """Normalized signal field (A_H e^{i phi}, A_V) with A_H^2 + A_V^2 = 1."""

    a_h: float
    a_v: float
    phi: float

    def __post_init__(self) -> None:
        if self.a_h < 0 or self.a_v < 0:
            raise ParameterError("field amplitudes must be non-negative")
        if not (-math.pi < self.phi <= math.pi):
            raise ParameterError("phi must lie in (-pi, pi]")
        check_unit_norm(self.a_h, self.a_v)


def check_unit_norm(a_h, a_v) -> None:
    """Raise ParameterError unless each A_H^2 + A_V^2 is within 1e-9 of 1 (NaN is not)."""
    norm = np.asarray(a_h * a_h + a_v * a_v)
    off = ~(np.abs(norm - 1.0) <= 1e-9)
    if off.any():
        raise ParameterError(f"field is not normalized: A_H^2+A_V^2 = {float(norm.flat[off.argmax()])!r}")


def wrap_phase(phi):
    """Wrap an array of angles to the interval (-pi, pi]."""
    wrapped = -((-phi + math.pi) % (2.0 * math.pi) - math.pi)
    # The remainder can round up to 2 pi, which lands on -pi.  Select pi there
    # and leave every other element's bits alone, -0.0 included.
    return np.where(wrapped <= -math.pi, math.pi, wrapped)


def rotation_matrix(theta: float) -> np.ndarray:
    """Basis rotation by theta radians: [[cos, -sin], [sin, cos]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def qwp_matrix(theta: float) -> np.ndarray:
    """Quarter-wave plate with fast axis at theta, rotated into the lab frame.

    Q(theta) = R(-theta) @ diag(1, i) @ R(theta).  Unitary for any theta.
    """
    retarder = np.diag([1.0 + 0.0j, 1.0j])
    return rotation_matrix(-theta) @ retarder @ rotation_matrix(theta)


def intensity_pair(a_h, a_v, phi, theta_qwp: float):
    """Port intensities (I_H, I_V) behind the wave plate and splitter.

    I_X = |Pi_X Q(theta) e_S|^2 with Pi_H = diag(1, 0), Pi_V = diag(0, 1),
    applied componentwise so the field arrays broadcast.  At theta = 0 the
    plate only retards V, so the split is (A_H^2, A_V^2) and the phase is
    invisible; at theta = 45 deg it reduces to I_H = (1 + 2 A_H A_V sin phi) / 2.
    """
    q = qwp_matrix(theta_qwp)
    e_h = np.asarray(a_h) * np.exp(1j * np.asarray(phi))
    e_v = np.asarray(a_v)
    out_h = q[0, 0] * e_h + q[0, 1] * e_v
    out_v = q[1, 0] * e_h + q[1, 1] * e_v
    return np.abs(out_h) ** 2, np.abs(out_v) ** 2


def per_field_intensity_pair(a_h, a_v, phi, theta_qwp: float):
    """intensity_pair of each field as if called on that field's Python floats.

    Such a call runs numpy's scalar arithmetic, which differs from the array
    loops in the last bit at two steps.  The scalar complex product rounds
    each of the four real products of (xu - yv) + (xv + yu)i, so those are
    spelled out here; and a scalar ** 2 calls libm pow, which float_power
    with an array exponent also does, where an array ** 2 squares instead.
    Every other step already agrees elementwise.
    """
    q = qwp_matrix(theta_qwp)
    e_h = np.exp(1j * np.asarray(phi, dtype=np.float64))
    e_h *= a_h
    e_v = np.asarray(a_v, dtype=np.float64)
    ports = []
    for q_h, q_v in q:
        out = q_v * e_v
        out.real += q_h.real * e_h.real - q_h.imag * e_h.imag
        out.imag += q_h.real * e_h.imag + q_h.imag * e_h.real
        magnitude = np.abs(out)
        ports.append(np.float_power(magnitude, np.full(magnitude.shape, 2.0), out=magnitude))
    return ports[0], ports[1]


def setting_intensities(a_h, a_v, phi) -> np.ndarray:
    """intensity_pair of 1-D field arrays at each of SETTINGS, as a (field,
    setting, port) table of shape (n, 2, 2)."""
    return np.stack([np.stack(intensity_pair(a_h, a_v, phi, theta), axis=-1)
                     for theta in SETTINGS], axis=-2)


def polarization_contrast(i_h, i_v):
    """Normalized port contrast (I_H - I_V) / (I_H + I_V), elementwise."""
    i_h = np.asarray(i_h, dtype=np.float64)
    i_v = np.asarray(i_v, dtype=np.float64)
    if np.any(i_h < 0) or np.any(i_v < 0):
        raise ParameterError("intensities must be non-negative")
    total = i_h + i_v
    if np.any(total == 0.0):
        raise DegenerateInputError("zero total intensity has no contrast")
    return (i_h - i_v) / total
