"""Weyl quantization, displacement/reflection operators and trace formulas.

The correspondence between symbols a(x, p) and kernels K(x, y) is

    a(x, p) = Int exp(-i p y / eta) K(x + y/2, x - y/2) dy
    K(x, y) = (2 pi eta)^(-1) Int exp(i p (x - y) / eta) a((x + y)/2, p) dp

The symbol reads the kernel at half-step arguments through
:func:`transforms.half_step_correlation` (odd lags use the kernel's
band-limited interpolant shifted by half a step); the quantizer reaches
midpoints by DFT refinement of the symbol onto the half-step x grid.
Off-grid arguments are treated as zero (kernels and symbols are assumed
negligible outside the grid).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError, require_memory
from .grid import GridFunction, PhaseSpaceFunction, boundary_leak, dual_grid
from .interpolate import fourier_shift, refine
from .states import DensityMatrix, OperatorMatrix
from .transforms import chirp_z, half_step_correlation, lag_transform, require_correlation_memory

__all__ = [
    "displace",
    "reflect",
    "weyl_quantize",
    "weyl_symbol",
    "twisted_product",
    "expectation",
    "trace_from_symbol",
]


def _leak_warning(values: np.ndarray, what: str):
    leak = boundary_leak(values)
    if leak > 1e-3:
        warnings.warn(f"{what}: boundary leak {leak:.2e} exceeds 1e-3", stacklevel=3)
    return leak


def displace(psi: GridFunction, z0) -> GridFunction:
    """Weyl displacement D(z0) psi(x) = exp(i (p0 x - p0 x0 / 2)/eta) psi(x - x0)."""
    x0, p0 = float(z0[0]), float(z0[1])
    eta = psi.eta
    shifted = fourier_shift(psi.values, psi.grid, x0)
    _leak_warning(shifted, "displace")
    x = psi.grid.points
    phase = np.exp(1j * (p0 * x - 0.5 * p0 * x0) / eta)
    return GridFunction(psi.grid, phase * shifted, eta)


def reflect(psi: GridFunction, z0) -> GridFunction:
    """Displaced parity Pi(z0) psi(x) = exp(2 i p0 (x - x0)/eta) psi(2 x0 - x)."""
    x0, p0 = float(z0[0]), float(z0[1])
    eta = psi.eta
    grid = psi.grid
    n = grid.n
    # reflect about the grid center, then translate the center to x0
    mirrored = psi.values[(-np.arange(n)) % n]
    shifted = fourier_shift(mirrored, grid, 2.0 * x0 - grid.x_min - grid.x_max)
    _leak_warning(shifted, "reflect")
    phase = np.exp(2j * p0 * (grid.points - x0) / eta)
    return GridFunction(grid, phase * shifted, eta)


#: symbol rows per chirp-z pass of :func:`weyl_quantize`
_ROW_CHUNK = 128


def _p_oversampled(a: PhaseSpaceFunction, eta_use: float):
    """The symbol on the half-step x grid, oversampled along p for the quantizer.

    Sampling the p integral at spacing dp folds kernel entries separated by
    2 pi eta / dp in x - y back onto the grid; oversampling pushes the fold
    past the largest separation the grid can hold, and smaller eta values
    need proportionally more of it.  Returns the 2N refined rows of the
    symbol, oversampled by F = 2 ceil(a.eta / eta_use) along p, and their p
    spacing.  :func:`errors.require_memory` refuses the quantizer's working
    set before anything is allocated.  It counts, as if they overlapped, the
    oversampled symbol with its zero-padded spectrum, the chirp-z sums (or
    the half-step symbol with its spectrum) and one chirp-z pass of
    ``_ROW_CHUNK`` rows (a pre-phased copy, two FFT arrays under 4/3 of the
    padded length, and the sums).
    """
    factor = 2 * max(1, int(np.ceil(a.eta / eta_use)))
    rows, cols = 2 * a.x_grid.n, factor * a.p_grid.n
    one_pass = 4 * min(rows, _ROW_CHUNK) * (rows + cols)
    require_memory(
        16 * (2 * rows * cols + rows * max(rows, 2 * a.p_grid.n) + one_pass),
        f"p oversampling by {factor} to quantize at eta = {eta_use} a symbol at eta = {a.eta}",
    )
    return refine(refine(a.values, 2, axis=0), factor, axis=1), a.p_grid.dx / factor


def weyl_quantize(a: PhaseSpaceFunction, eta: float | None = None) -> OperatorMatrix:
    """Operator kernel of a phase-space symbol.

    ``eta`` overrides the symbol's attached parameter: the p samples then act
    as a plain quadrature for the kernel integral at the new eta, which is
    what variable-Planck-constant scans need.
    """
    eta_use = a.eta if eta is None else float(eta)
    if eta_use <= 0.0:
        raise ParameterError(f"eta must be positive, got {eta_use}")
    n = a.x_grid.n
    dx = a.x_grid.dx
    af, dp = _p_oversampled(a, eta_use)
    # K[j, k] = (2 pi eta)^-1 dp sum_l af[j+k, l] exp(i p_l (j-k) dx / eta);
    # w[s, d + n - 1] holds the sum for s = j + k and d = j - k in 1-n .. n-1
    step = dp * dx / eta_use
    d = np.arange(1 - n, n)
    w = np.empty((2 * n, 2 * n - 1), dtype=complex)
    for start in range(0, 2 * n, _ROW_CHUNK):
        w[start : start + _ROW_CHUNK] = chirp_z(
            af[start : start + _ROW_CHUNK], 2 * n - 1, step, (1 - n) * step
        )
    w *= np.exp(1j * a.p_grid.x_min * d * dx / eta_use)
    j = np.arange(n)
    jj, kk = np.meshgrid(j, j, indexing="ij")
    kernel = dp / (2.0 * np.pi * eta_use) * w[jj + kk, jj - kk + n - 1]
    return OperatorMatrix(a.x_grid, kernel, eta_use)


def weyl_symbol(op: OperatorMatrix) -> PhaseSpaceFunction:
    """Weyl symbol of an operator kernel (inverse of :func:`weyl_quantize`)."""
    grid = op.grid
    eta = op.eta
    require_correlation_memory(grid.n)
    p_grid = dual_grid(grid, eta)
    corr = half_step_correlation(op.kernel, grid)
    values = lag_transform(corr, grid.dx, p_grid, eta)
    return PhaseSpaceFunction(
        grid, p_grid, values, eta, kind="symbol", leak=boundary_leak(values)
    )


def twisted_product(a: PhaseSpaceFunction, b: PhaseSpaceFunction) -> PhaseSpaceFunction:
    """Symbol c with Op(c) = Op(a) Op(b), via quantize -> compose -> dequantize."""
    a.require_compatible(b)
    product = weyl_quantize(a).compose(weyl_quantize(b))
    return weyl_symbol(product)


def expectation(a: PhaseSpaceFunction, rho: DensityMatrix) -> float:
    """<A> = Int a(z) rho_W(z) dz, cross-checked against Tr(rho A) by callers."""
    scale = float(np.max(np.abs(a.values))) or 1.0
    if float(np.max(np.abs(a.values.imag))) > 1e-12 * scale:
        raise ParameterError("observable symbol must be real")
    rho_w = weyl_symbol(rho.op).values / (2.0 * np.pi * rho.eta)
    value = np.sum(a.values.real * rho_w) * a.area_element
    return float(value.real)


def trace_from_symbol(a: PhaseSpaceFunction) -> dict:
    """Trace and squared Hilbert-Schmidt norm read off the symbol."""
    weight = a.area_element / (2.0 * np.pi * a.eta)
    return {
        "trace": complex(np.sum(a.values) * weight),
        "hs_norm_squared": float(np.sum(np.abs(a.values) ** 2) * weight),
        "leak": boundary_leak(a.values),
    }
