"""Weyl quantization, displacement/reflection operators and trace formulas.

The correspondence between symbols a(x, p) and kernels K(x, y) is

    a(x, p) = Int exp(-i p y / eta) K(x + y/2, x - y/2) dy
    K(x, y) = (2 pi eta)^(-1) Int exp(i p (x - y) / eta) a((x + y)/2, p) dp

The symbol reads the kernel at half-step arguments through
:func:`transforms.half_step_correlation` (odd lags use the kernel's
band-limited interpolant shifted by half a step); the quantizer gathers
the kernel back through the same :func:`transforms.midpoint_lag` map.
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
from .transforms import chirp_z, half_step_correlation, lag_transform, midpoint_lag
from .transforms import require_correlation_memory

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


def _p_oversampling(a: PhaseSpaceFunction, eta_use: float) -> int:
    """The quantizer's p oversampling factor F = 2 ceil(a.eta / eta_use).

    Sampling the p integral at spacing dp folds kernel entries separated by
    2 pi eta / dp in x - y back onto the grid; oversampling pushes the fold
    past the largest separation the grid can hold, and smaller eta values
    need proportionally more of it.  :func:`errors.require_memory` refuses
    the quantizer's working set before anything is allocated.  It counts, as
    if they overlapped, the lag-sum table and the half-step symbol (3 N^2
    complex), the final gather with its indices (3 N^2) and one chirp-z pass
    of ``_ROW_CHUNK`` rows (the oversampled rows and a pre-phased copy, two
    FFT arrays under 4/3 of the padded length, and the sums).
    """
    factor = 2 * max(1, int(np.ceil(a.eta / eta_use)))
    n, cols = a.x_grid.n, factor * a.p_grid.n
    one_pass = 5 * min(n, _ROW_CHUNK) * (n + cols)
    require_memory(
        16 * (6 * n * n + one_pass),
        f"p oversampling by {factor} to quantize at eta = {eta_use} a symbol at eta = {a.eta}",
    )
    return factor


def weyl_quantize(a: PhaseSpaceFunction, eta: float | None = None) -> OperatorMatrix:
    """Operator kernel of a phase-space symbol.

    ``eta`` overrides the symbol's attached parameter: the p samples then act
    as a plain quadrature for the kernel integral at the new eta, which is
    what variable-Planck-constant scans need.
    """
    eta_use = a.eta if eta is None else float(eta)
    if eta_use <= 0.0:
        raise ParameterError(f"eta must be positive, got {eta_use}")
    factor = _p_oversampling(a, eta_use)
    n = a.x_grid.n
    dx = a.x_grid.dx
    dp = a.p_grid.dx / factor
    # K[j, k] = (2 pi eta)^-1 dp sum_l a(m, p_l) exp(i p_l d dx / eta) at the
    # midpoint m and lag d = j - k of midpoint_lag: table[0, r, t] holds it for
    # m = x_r, d = 2t - N and table[1, r, t] for m = x_r - dx/2, d = 2t + 1 - N
    step = dp * dx / eta_use
    half_step = fourier_shift(a.values, a.x_grid, 0.5 * dx, axis=0)
    table = np.empty((2, n, n), dtype=complex)
    for parity, rows in enumerate((a.values, half_step)):
        for start in range(0, n, _ROW_CHUNK):
            table[parity, start : start + _ROW_CHUNK] = chirp_z(
                refine(rows[start : start + _ROW_CHUNK], factor, axis=1),
                n, 2 * step, (parity - n) * step,
            )
    d = 2 * np.arange(n) + np.arange(2)[:, None, None] - n
    table *= dp / (2.0 * np.pi * eta_use) * np.exp(1j * a.p_grid.x_min * d * dx / eta_use)
    mid, lag = midpoint_lag(n)
    return OperatorMatrix(a.x_grid, table[lag & 1, mid, lag >> 1], eta_use)


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
