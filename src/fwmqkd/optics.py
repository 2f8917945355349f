"""Jones-calculus detection optics.

The detection arm is a rotatable quarter-wave plate followed by a fixed
polarizing beam splitter.  Fields are two-component Jones vectors in the
(H, V) basis; the signal field is parameterized by real amplitudes A_H, A_V
and the relative phase phi of the horizontal component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateFieldError, DegenerateInputError, ParameterError


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
        norm = self.a_h * self.a_h + self.a_v * self.a_v
        if abs(norm - 1.0) > 1e-9:
            raise ParameterError(f"field is not normalized: A_H^2+A_V^2 = {norm!r}")

    @classmethod
    def normalized(cls, a_h: float, a_v: float, phi: float) -> "SignalField":
        """Build a field from unnormalized amplitudes."""
        scale = math.hypot(a_h, a_v)
        if scale == 0.0:
            raise DegenerateFieldError("both amplitudes are zero")
        phi = wrap_phase(phi)
        return cls(a_h / scale, a_v / scale, phi)


def wrap_phase(phi):
    """Wrap an angle, or an array of angles, to the interval (-pi, pi]."""
    wrapped = -((-phi + math.pi) % (2.0 * math.pi) - math.pi)
    # The remainder can round up to 2 pi, which lands on -pi.  Select pi there
    # and leave every other element's bits alone, -0.0 included.
    if np.ndim(wrapped) == 0:
        return math.pi if wrapped <= -math.pi else wrapped
    return np.where(wrapped <= -math.pi, math.pi, wrapped)


def rotation_matrix(theta: float) -> np.ndarray:
    """Basis rotation by theta radians: [[cos, -sin], [sin, cos]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def qwp_matrix(theta: float) -> np.ndarray:
    """Quarter-wave plate with fast axis at theta, rotated into the lab frame.

    Q(theta) = R(-theta) @ diag(1, i) @ R(theta).  Unitary for any theta.
    The matrix is cached per angle and read-only.
    """
    theta = float(theta)
    # 0.0 and -0.0 compare equal but their matrices differ in the sign of zero.
    return _qwp_matrix(theta, math.copysign(1.0, theta))


@lru_cache(maxsize=32)
def _qwp_matrix(theta: float, sign: float) -> np.ndarray:
    retarder = np.diag([1.0 + 0.0j, 1.0j])
    q = rotation_matrix(-theta) @ retarder @ rotation_matrix(theta)
    q.flags.writeable = False
    return q


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


def detected_intensities(field: SignalField, theta_qwp: float) -> tuple[float, float]:
    """intensity_pair of one field as 1-element arrays, equal to the array call bit for bit."""
    i_h, i_v = intensity_pair([field.a_h], [field.a_v], [field.phi], theta_qwp)
    return float(i_h[0]), float(i_v[0])


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
