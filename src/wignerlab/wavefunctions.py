"""Reference wavefunctions sampled on grids.

All states use the eta-scaled harmonic-oscillator conventions: the standard
coherent state is phi0(x) = (pi eta)^(-1/4) exp(-x^2 / 2 eta) and the
Hermite states are its excited companions.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .grid import Grid, GridFunction

__all__ = ["coherent_state", "hermite_state", "gaussian_wavepacket"]


def coherent_state(grid: Grid, eta: float, x0: float = 0.0, p0: float = 0.0) -> GridFunction:
    """Standard coherent state, optionally displaced to (x0, p0).

    The displaced version carries the symmetrized displacement phase
    exp(i (p0 x - p0 x0 / 2) / eta), matching the Weyl displacement of the
    centered state.
    """
    x = grid.points
    values = (np.pi * eta) ** -0.25 * np.exp(-((x - x0) ** 2) / (2.0 * eta))
    if p0 != 0.0:
        values = values * np.exp(1j * (p0 * x - 0.5 * p0 * x0) / eta)
    return GridFunction(grid, values, eta)


def hermite_state(grid: Grid, eta: float, k: int) -> GridFunction:
    """k-th Hermite (number) state for the eta-oscillator, by the normalized recurrence."""
    if k < 0 or int(k) != k:
        raise ParameterError(f"Hermite index must be a non-negative integer, got {k}")
    xi = grid.points / np.sqrt(eta)
    # recur on psi exp(xi^2 / 2), the Gaussian and every rescaling kept in a per-point
    # exponent, so that nothing overflows and no seed underflows beyond |xi| = 38.6
    exponent = -0.5 * xi**2
    prev, values = np.zeros_like(xi), np.full_like(xi, (np.pi * eta) ** -0.25)
    for j in range(int(k)):
        prev, values = values, np.sqrt(2.0 / (j + 1)) * xi * values - np.sqrt(j / (j + 1)) * prev
        scale = np.where(np.abs(values) > 1e100, 1e-100, 1.0)
        prev, values, exponent = scale * prev, scale * values, exponent - np.log(scale)
    return GridFunction(grid, values * np.exp(exponent), eta)


def gaussian_wavepacket(
    grid: Grid,
    eta: float,
    m: complex,
    x0: float = 0.0,
) -> GridFunction:
    """Generalized Gaussian psi_M with M = X + iY, X > 0 (one degree of freedom).

    psi_M(x) = (pi eta)^(-1/4) X^(1/4) exp(-M (x - x0)^2 / (2 eta)).
    """
    m = complex(m)
    if not m.real > 0.0:
        raise ParameterError(f"Re M must be positive, got {m}")
    x = grid.points
    values = (
        (np.pi * eta) ** -0.25
        * m.real**0.25
        * np.exp(-m * (x - x0) ** 2 / (2.0 * eta))
    )
    return GridFunction(grid, values, eta)
