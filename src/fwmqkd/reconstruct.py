"""Grid-search recovery of the signal field from intensity ratios.

Two detector settings are enough to pin the field down: the wave plate at 0
splits the raw amplitudes, the wave plate at 45 degrees mixes them with a
sin(phi) interference term.  The measured observable at each setting is the
regularized port ratio Gamma = I_H / (I_V + xi).  A candidate field is
parameterized as (A_H, A_V) = (sin psi, cos psi) with psi in [0, pi/2] and a
relative phase phi in [-pi/2, pi/2]; the search minimizes the squared error
of the two ratios over a fixed rectangular grid.

Only sin(phi) enters the model at these settings, so phases outside the
principal branch alias onto it.  Restricting the grid to the branch makes
the recovered phi unique up to that physical ambiguity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import se_argmin
from .errors import ParameterError
from .optics import SignalField, intensity_pair

THETA_SPLIT = 0.0
THETA_MIX = math.pi / 4.0

# The phase axis covers the principal branch [-pi/2, pi/2]; PHI_SPAN is its
# width, which is exactly math.pi in floats.
PHI_MIN = -math.pi / 2.0
PHI_SPAN = math.pi

# Grid points whose squared error is within TIE_EPS of the minimum tie with it.
TIE_EPS = 1e-12

# Largest accepted search grid, in (psi, phi) cells: 100x the default's 99,225.
# Each ratio table at the cap is 80 MB.
MAX_GRID_CELLS = 10_000_000

# Grid cells evaluated at once when building the ratio tables, rounded down to
# whole psi rows and never less than one row; it bounds the complex
# temporaries of intensity_pair to a block instead of the whole grid.
RATIO_TABLE_BLOCK_CELLS = 1 << 16


def _axis_points(span: float, step: float) -> float:
    """Points on an axis of `span` sampled every `step`, inf if that overflows."""
    n = span / step
    return int(n) + 1 if math.isfinite(n) else math.inf


@dataclass(frozen=True)
class GridSpec:
    """Search grid geometry and regularization constants."""

    psi_step: float = 0.005
    phi_step: float = 0.01
    xi: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.psi_step > 0 and self.phi_step > 0):
            raise ParameterError("grid steps must be positive")
        cells = (_axis_points(math.pi / 2.0, self.psi_step)
                 * _axis_points(PHI_SPAN, self.phi_step))
        if cells > MAX_GRID_CELLS:
            raise ParameterError(f"grid steps give {cells:.3g} search cells, "
                                 f"above the cap of {MAX_GRID_CELLS:,}")
        if self.xi <= 0:
            raise ParameterError("xi must be positive")

    def psi_axis(self) -> np.ndarray:
        """psi_step * k, clamped to pi/2: the product can round one ulp past
        it, where cos psi is negative."""
        return np.minimum(self.psi_step * np.arange(_axis_points(math.pi / 2.0, self.psi_step)),
                          math.pi / 2.0)

    def phi_axis(self) -> np.ndarray:
        return PHI_MIN + self.phi_step * np.arange(_axis_points(PHI_SPAN, self.phi_step))


DEFAULT_GRID = GridSpec()


def intensity_ratio(i_h, i_v, xi: float = DEFAULT_GRID.xi):
    """Regularized port ratio I_H / (I_V + xi), elementwise."""
    i_h = np.asarray(i_h, dtype=np.float64)
    i_v = np.asarray(i_v, dtype=np.float64)
    if np.any(i_h < 0) or np.any(i_v < 0):
        raise ParameterError("intensities must be non-negative")
    if xi <= 0:
        raise ParameterError("xi must be positive")
    return i_h / (i_v + xi)


def _setting_ratios(a_h, a_v, phi, xi: float):
    """Gamma at the split and mix settings for broadcastable field arrays."""
    return tuple(intensity_ratio(*intensity_pair(a_h, a_v, phi, theta), xi)
                 for theta in (THETA_SPLIT, THETA_MIX))


@lru_cache(maxsize=8)
def _ratio_tables(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Precompute Gamma(psi, phi) at both settings, once per grid.

    The tables are filled a block of psi rows at a time; every step is
    elementwise, so the blocks give the same bits as one whole-grid call.
    """
    psi = grid.psi_axis()
    phi = grid.phi_axis()
    tab0 = np.empty((psi.size, phi.size))
    tab45 = np.empty_like(tab0)
    rows = max(1, RATIO_TABLE_BLOCK_CELLS // phi.size)
    for lo in range(0, psi.size, rows):
        block = psi[lo:lo + rows, None]
        tab0[lo:lo + rows], tab45[lo:lo + rows] = _setting_ratios(
            np.sin(block), np.cos(block), phi[None, :], grid.xi)
    return psi, phi, tab0, tab45


def measured_ratios(field: SignalField, grid: GridSpec = DEFAULT_GRID) -> tuple[float, float]:
    """Ideal ratio pair (Gamma at 0, Gamma at 45 deg) a field would produce.

    Evaluated as 1-element arrays, so a grid field gives its table entries.
    """
    g0, g45 = _setting_ratios([field.a_h], [field.a_v], [field.phi], grid.xi)
    return float(g0[0]), float(g45[0])


@dataclass(frozen=True)
class ReconstructionResult:
    """Best grid point for one ratio pair.

    n_ties counts grid points whose squared error is within TIE_EPS of the
    minimum, including the winner; more than one means the data do not single
    out a field at this resolution and the result keeps the first minimum in
    row-major (psi, then phi) order.
    """

    field: SignalField
    psi: float
    se: float
    n_ties: int
    index: tuple[int, int]

    @property
    def degenerate(self) -> bool:
        return self.n_ties > 1

    @property
    def phi(self) -> float:
        return self.field.phi


@dataclass(frozen=True, eq=False)
class ReconstructionMap:
    """Best grid points for a batch of ratio pairs, one column entry per pair.

    psi, a_h, a_v, phi and se are float64 columns and n_ties, i_psi and
    i_phi int64 columns, all in input order.  Item k is pair k's
    ReconstructionResult, built on demand.
    """

    psi: np.ndarray
    a_h: np.ndarray
    a_v: np.ndarray
    phi: np.ndarray
    se: np.ndarray
    n_ties: np.ndarray
    i_psi: np.ndarray
    i_phi: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        return self.n_ties > 1

    def __len__(self) -> int:
        return self.se.size

    def __getitem__(self, k: int) -> ReconstructionResult:
        field = SignalField(float(self.a_h[k]), float(self.a_v[k]), float(self.phi[k]))
        return ReconstructionResult(field, float(self.psi[k]), float(self.se[k]), int(self.n_ties[k]),
                                    (int(self.i_psi[k]), int(self.i_phi[k])))


def reconstruct_field(gamma_0: float, gamma_45: float, grid: GridSpec = DEFAULT_GRID) -> ReconstructionResult:
    """Recover the field from one measured ratio pair."""
    return reconstruct_map([(gamma_0, gamma_45)], grid)[0]


def reconstruct_map(ratio_pairs, grid: GridSpec = DEFAULT_GRID) -> ReconstructionMap:
    """Reconstruct a batch of ratio pairs in one search, as columns in input order.

    Each field is (sin psi, cos psi, phi) at its grid point, with sin and cos
    from the math module, so the columns hold the bits of the scalar fields.
    The axes keep psi in [0, pi/2] and phi in [-pi/2, pi/2] up to rounding,
    so every grid point is a valid SignalField.
    """
    pairs = np.asarray(ratio_pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ParameterError("expected an (n, 2) array of ratio pairs")
    not_finite = ~np.isfinite(pairs).all(axis=1)
    bad = not_finite | (pairs < 0).any(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        raise ParameterError("ratios must be finite" if not_finite[first]
                             else "ratios must be non-negative")
    psi_axis, phi_axis, tab0, tab45 = _ratio_tables(grid)
    i_psi, i_phi, se, n_ties = se_argmin(tab0, tab45, pairs[:, 0], pairs[:, 1], TIE_EPS)
    sin_psi = np.array([math.sin(psi) for psi in psi_axis.tolist()])
    cos_psi = np.array([math.cos(psi) for psi in psi_axis.tolist()])
    return ReconstructionMap(psi_axis[i_psi], sin_psi[i_psi], cos_psi[i_psi], phi_axis[i_phi],
                             se, n_ties, i_psi, i_phi)
