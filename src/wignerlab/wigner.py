"""Wigner, cross-Wigner and ambiguity transforms with their identities.

    W(psi, phi)(x, p) = (2 pi eta)^-1 Int exp(-i p y/eta)
                        psi(x + y/2) phi*(x - y/2) dy
    Amb psi(x, p)     = (2 pi eta)^-1 Int exp(-i p y/eta)
                        psi(y + x/2) psi*(y - x/2) dy

Half-step arguments come from zero-padded DFT interpolation of the state
onto the half-step grid; samples outside the grid are taken as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import (
    GridFunction,
    PhaseSpaceFunction,
    boundary_leak,
    dual_grid,
)
from .interpolate import refine, tensor_interp
from .states import DensityMatrix, MixedStateSpec, mix
from .transforms import lag_transform, oscillatory_sum
from .weyl import reflect, weyl_symbol

__all__ = [
    "WignerResult",
    "wigner",
    "cross_wigner",
    "ambiguity",
    "marginals",
    "moyal_overlap",
    "reflection_wigner_check",
]


@dataclass
class WignerResult:
    """Wigner distribution with its boundary-leak diagnostic and provenance."""

    W: PhaseSpaceFunction
    leak: float
    source: str  # "pure" or "density"

    @property
    def values(self) -> np.ndarray:
        return self.W.real_values()


def _padded_fine(values: np.ndarray, n: int) -> np.ndarray:
    """Half-step samples with n zeros of padding on each side (length 4n)."""
    pad = np.zeros(4 * n, dtype=complex)
    pad[n : 3 * n] = refine(values, 2)
    return pad


def cross_wigner(psi: GridFunction, phi: GridFunction) -> PhaseSpaceFunction:
    """Cross-Wigner transform W(psi, phi); complex-valued in general."""
    psi.require_compatible(phi)
    grid, eta = psi.grid, psi.eta
    n, dx = grid.n, grid.dx
    p_grid = dual_grid(grid, eta)
    pf = _padded_fine(psi.values, n)
    gf = _padded_fine(phi.values, n)
    j = np.arange(n)[:, None]
    m = np.arange(2 * n)[None, :]
    corr = pf[2 * j + m] * gf[2 * j - m + 2 * n].conj()
    values = lag_transform(corr, dx, p_grid, eta) / (2.0 * np.pi * eta)
    kind = "wigner" if psi is phi else "generic"
    return PhaseSpaceFunction(
        grid, p_grid, values, eta, kind=kind, leak=boundary_leak(values)
    )


def wigner(source) -> WignerResult:
    """Wigner distribution of a pure state, a mixture spec, or a density matrix.

    A density matrix's Wigner function is its Weyl symbol over 2 pi eta.
    """
    if isinstance(source, GridFunction):
        W = cross_wigner(source, source)
        return WignerResult(W, W.leak, "pure")
    if isinstance(source, MixedStateSpec):
        source = mix(source)
    if not isinstance(source, DensityMatrix):
        raise ParameterError(f"cannot take a Wigner transform of {type(source).__name__}")
    symbol = weyl_symbol(source.op)
    W = PhaseSpaceFunction(
        symbol.x_grid, symbol.p_grid, symbol.values / (2.0 * np.pi * source.eta),
        source.eta, kind="wigner", leak=symbol.leak,
    )
    return WignerResult(W, W.leak, "density")


def ambiguity(psi: GridFunction) -> PhaseSpaceFunction:
    """Ambiguity (auto-correlation) function of a state."""
    grid, eta = psi.grid, psi.eta
    n, dx = grid.n, grid.dx
    p_grid = dual_grid(grid, eta)
    pad = np.zeros(6 * n, dtype=complex)
    pad[2 * n : 4 * n] = refine(psi.values, 2)
    j = np.arange(n)[None, :]  # x index
    m = np.arange(n)[:, None]  # y index
    half = n // 2
    corr = pad[2 * m + j - half + 2 * n] * pad[2 * m - j + half + 2 * n].conj()
    # the lags are the x grid itself, so the sum is a plain dual-grid DFT
    values = dx / (2.0 * np.pi * eta) * oscillatory_sum(corr.T, grid, p_grid, eta, -1)
    return PhaseSpaceFunction(
        grid, p_grid, values, eta, kind="ambiguity", leak=boundary_leak(values)
    )


def marginals(w) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum densities of a Wigner distribution."""
    W = w.W if isinstance(w, WignerResult) else w
    values = W.real_values(rtol=1e-8)
    return values.sum(axis=1) * W.dp, values.sum(axis=0) * W.dx


def moyal_overlap(w1, w2) -> complex:
    """Phase-space pairing <<W1 | W2>> = Int conj(W1) W2 dz."""
    W1 = w1.W if isinstance(w1, WignerResult) else w1
    W2 = w2.W if isinstance(w2, WignerResult) else w2
    W1.require_compatible(W2)
    return complex(np.sum(W1.values.conj() * W2.values) * W1.area_element)


def reflection_wigner_check(psi: GridFunction, z0) -> dict:
    """Residual of W psi(z0) = (pi eta)^-1 <psi | Pi(z0) psi>.

    The Wigner side is evaluated at z0 by band-limited interpolation; the
    result notes whether z0 had to be interpolated off the sample lattice.
    """
    x0, p0 = float(z0[0]), float(z0[1])
    eta = psi.eta
    W = wigner(psi).W
    on_x = np.any(np.isclose(W.x_grid.points, x0, atol=1e-12))
    on_p = np.any(np.isclose(W.p_grid.points, p0, atol=1e-12))
    w_at = tensor_interp(W.values, W.x_grid, W.p_grid, [x0], [p0])[0, 0]
    pairing = psi.inner(reflect(psi, (x0, p0)))
    residual = abs(w_at - pairing / (np.pi * eta))
    return {
        "residual": float(residual),
        "wigner_value": complex(w_at),
        "pairing_value": complex(pairing / (np.pi * eta)),
        "interpolated": not (on_x and on_p),
    }
