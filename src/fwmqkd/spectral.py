"""Three-resonance spectral model of the four-wave-mixing signal.

The emitted spectrum is a weighted sum of three complex resonance lines at
E = -Delta, 0, +Delta (lower biexciton transition, exciton, upper biexciton
transition).  Each line is a Gaussian plus i times its Hilbert transform, so
the line keeps a causal dispersive tail.  The weights depend on the pump
polarizations: the circular conditions RRRR and RRLL carry independent
coefficient tables and relax toward their common mean with the spin-flip
rate k_spin, while the linear-analyzer conditions RRVV and RRVH are fixed
combinations of the circular pair and never get tables of their own.

Energies are measured in units of the line spacing Delta.  The wavelength
map pins E(500 nm) = +Delta and E(530 nm) = -Delta, which fixes both the
exciton wavelength and the physical size of Delta in eV.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn

from .errors import DegenerateFieldError, ParameterError
from .optics import check_unit_norm, wrap_phase

HC_EV_NM = 1239.84198433

# Anchor wavelengths of the two biexciton-induced lines.  The exciton sits at
# the harmonic mean and the spacing in eV follows from the same two anchors.
EXCITON_WAVELENGTH_NM = 2.0 * 500.0 * 530.0 / (500.0 + 530.0)
DELTA_EV = HC_EV_NM * (1.0 / EXCITON_WAVELENGTH_NM - 1.0 / 530.0)

_SQRT2 = math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

RESONANCES = (-1, 0, 1)

# Initial coefficients, rows u = -1, 0, +1, columns (RRRR, RRLL).
B0_TABLE = (
    (0.0, _SQRT2),
    (-2.0, -1.0),
    (1.0, 1.0),
)


class Condition(enum.Enum):
    """Polarization condition of the pump pulses and the detected component.

    The four letters name the pulse polarizations in order.  RRRR and RRLL
    are the co- and cross-circular measurements; RRVV and RRVH are the
    linear analyzer projections of the same co-circularly pumped signal.
    """

    RRRR = "RRRR"
    RRLL = "RRLL"
    RRVV = "RRVV"
    RRVH = "RRVH"

    @classmethod
    def from_string(cls, name: str) -> "Condition":
        try:
            return cls(name.upper())
        except ValueError:
            valid = ", ".join(c.value for c in cls)
            raise ParameterError(f"unknown condition {name!r}; expected one of {valid}") from None


_CIRCULAR_COLUMN = {Condition.RRRR: 0, Condition.RRLL: 1}


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the spectral model.

    delta is the resonance spacing in model units (the energy axis is in
    multiples of it), k_spin the spin relaxation rate in 1/fs, b0 the T=0
    coefficient table (rows u = -1, 0, +1; columns RRRR, RRLL), and
    hilbert_sign the sign convention of the dispersive part (+1 matches
    H[cos] = sin and puts the enhanced RRVH wing on the low-energy side).
    lambda_x_nm and delta_ev calibrate the wavelength map.
    """

    delta: float = 1.0
    k_spin: float = 0.01
    b0: tuple = B0_TABLE
    hilbert_sign: int = 1
    lambda_x_nm: float = EXCITON_WAVELENGTH_NM
    delta_ev: float = DELTA_EV

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ParameterError("delta must be positive")
        if self.k_spin < 0:
            raise ParameterError("k_spin must be non-negative")
        if len(self.b0) != 3 or any(len(row) != 2 for row in self.b0):
            raise ParameterError("b0 must be a 3x2 table (rows u=-1,0,+1; columns RRRR, RRLL)")
        if not all(math.isfinite(c) for row in self.b0 for c in row):
            raise ParameterError("b0 entries must be finite")
        if self.hilbert_sign not in (-1, 1):
            raise ParameterError("hilbert_sign must be +1 or -1")
        if self.lambda_x_nm <= 0:
            raise ParameterError("lambda_x_nm must be positive")
        if self.delta_ev <= 0:
            raise ParameterError("delta_ev must be positive")


DEFAULT_PARAMS = ModelParams()


def _offset(energy, u: int, params: ModelParams):
    """(E - u * delta) / delta.  Far out it overflows to +-inf, where both
    lineshapes come out as their true value 0, so that is no error."""
    e = np.asarray(energy, dtype=np.float64)
    with np.errstate(over="ignore"):
        return (e - u * params.delta) / params.delta


def gaussian_lineshape(energy, u: int, params: ModelParams = DEFAULT_PARAMS):
    """Absorptive part of the resonance at u * delta, unit peak height."""
    x = _offset(energy, u, params)
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * x * x)


def hilbert_of_gaussian(energy, u: int, params: ModelParams = DEFAULT_PARAMS):
    """Hilbert transform of the Gaussian line, antisymmetric about u * delta.

    For a unit Gaussian the transform is (2/sqrt(pi)) * D(x/sqrt(2)) with D
    the Dawson function, up to the overall sign convention.
    """
    x = _offset(energy, u, params)
    return params.hilbert_sign * _TWO_OVER_SQRT_PI * dawsn(x / _SQRT2)


def complex_lineshape(energy, u: int, params: ModelParams = DEFAULT_PARAMS):
    """Full complex lineshape G + i * Gtilde of one resonance."""
    return gaussian_lineshape(energy, u, params) + 1j * hilbert_of_gaussian(energy, u, params)


def coefficients_at(t: float, condition: Condition, params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Circular-condition weights at pump delay t (fs), ordered u = -1, 0, +1.

    Both columns relax toward their common mean, B(t) = Bmean + (B(0) -
    Bmean) exp(-k t), which conserves the column sum and makes the RRRR/RRLL
    difference decay as a single exponential.  Only the circular conditions
    have coefficient tables; the linear combinations are formed at the
    spectrum level.
    """
    if t < 0:
        raise ParameterError("pump delay must be non-negative")
    if condition not in _CIRCULAR_COLUMN:
        raise ParameterError(f"{condition.value} has no coefficient table of its own")
    b0 = np.asarray(params.b0, dtype=np.float64)[:, _CIRCULAR_COLUMN[condition]]
    mean = _column_mean(params)
    decay = math.exp(-params.k_spin * t)
    return mean + (b0 - mean) * decay


def _column_mean(params: ModelParams) -> np.ndarray:
    b0 = np.asarray(params.b0, dtype=np.float64)
    return (b0[:, 0] + b0[:, 1]) / 2.0


def _column_half_difference(params: ModelParams) -> np.ndarray:
    b0 = np.asarray(params.b0, dtype=np.float64)
    return (b0[:, 1] - b0[:, 0]) / 2.0


def signal_spectrum(t: float, grid, condition: Condition, params: ModelParams = DEFAULT_PARAMS):
    """Complex signal spectrum S(t, E) on the given energy grid.

    The circular conditions sum their relaxed coefficients against the three
    lineshapes.  RRVV is (S_RRRR + S_RRLL) / 2, whose time-dependent weight
    parts cancel exactly, so it is built from the column mean and never
    evaluates exp; RRVH is i/2 times the column difference, which carries
    the whole decay factor in one multiply.  Both agree with the literal
    half-sum and half-difference of the circular spectra to rounding.
    """
    e = np.asarray(grid, dtype=np.float64)
    if e.size == 0:
        raise ParameterError("energy grid is empty")
    if t < 0:
        raise ParameterError("pump delay must be non-negative")
    if condition in _CIRCULAR_COLUMN:
        weights = coefficients_at(t, condition, params).astype(np.complex128)
    elif condition is Condition.RRVV:
        weights = _column_mean(params).astype(np.complex128)
    else:
        decay = math.exp(-params.k_spin * t)
        weights = 1j * decay * _column_half_difference(params)
    out = np.zeros(e.shape, dtype=np.complex128)
    for w, u in zip(weights, RESONANCES):
        out = out + w * complex_lineshape(e, u, params)
    return out


def wavelength_to_energy(lambda_nm, params: ModelParams = DEFAULT_PARAMS):
    """Map a wavelength in nm to the model energy axis (units of delta).

    E = hc (1/lambda - 1/lambda_X) scaled by the configured delta-in-eV, so
    energies are negative past the exciton wavelength and strictly decrease
    with lambda.
    """
    lam = np.asarray(lambda_nm, dtype=np.float64)
    if np.any(lam <= 0):
        raise ParameterError("wavelength must be positive")
    e_ev = HC_EV_NM * (1.0 / lam - 1.0 / params.lambda_x_nm)
    return params.delta * e_ev / params.delta_ev


def field_arrays(t: float, lambda_nm, params: ModelParams = DEFAULT_PARAMS):
    """Normalized signal field (A_H, A_V, phi) along an array of wavelengths.

    The linear analyzer conditions give the two Jones components of the
    emitted field: RRVH is the H projection and RRVV the V projection.  Only
    the relative phase matters, so it is referenced to the V component.
    Amplitudes that rounding leaves more than 1e-9 off A_H^2 + A_V^2 = 1
    (say, line tails whose squares are subnormal) raise ParameterError.
    """
    energies = wavelength_to_energy(lambda_nm, params)
    s_h = signal_spectrum(t, energies, Condition.RRVH, params)
    s_v = signal_spectrum(t, energies, Condition.RRVV, params)
    mag_h, mag_v = np.abs(s_h), np.abs(s_v)
    scale = np.sqrt(mag_h ** 2 + mag_v ** 2)
    if np.any(scale == 0.0):
        raise DegenerateFieldError("both amplitudes are zero")
    a_h, a_v = mag_h / scale, mag_v / scale
    check_unit_norm(a_h, a_v)
    return a_h, a_v, wrap_phase(np.angle(s_h) - np.angle(s_v))
