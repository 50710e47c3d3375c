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

At the symbol's own eta, where its p grid is dual to the x grid, the
quantizer's p sum is one row FFT per lag parity and reconstructs the lag
band |x - y| < L/2 of a grid of length L, at half weight at L/2 and zero
beyond: the N lags a dual-grid symbol holds, onto which
:func:`weyl_symbol` folds any longer ones.  A foreign eta' runs the sum on
p-refined rows through :func:`transforms.chirp_z`; its band stretches to
about |x - y| < (L/2) eta' / a.eta, with no sharp edge.
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


#: symbol rows per pass of :func:`weyl_quantize` (one row FFT on the native
#: path, one refinement and chirp-z on the foreign one)
_ROW_CHUNK = 128


def _p_oversampling(a: PhaseSpaceFunction, eta_use: float) -> int:
    """The quantizer's p oversampling factor F = 2 ceil(a.eta / eta_use).

    Sampling the p integral at spacing dp folds kernel entries separated by
    2 pi eta / dp in x - y back onto the grid; oversampling pushes the fold
    past the largest separation the grid can hold, and smaller eta values
    need proportionally more of it.  :func:`errors.require_memory` refuses
    the quantizer's working set before anything is allocated.  It counts, as
    if they overlapped, the lag-sum table and the half-step symbol (3 N^2
    complex), the final gather with its indices (3 N^2) and one foreign-eta
    pass of ``_ROW_CHUNK`` rows (the oversampled rows and a pre-phased copy,
    two FFT arrays under 4/3 of the padded length, and the sums).  The
    native pass holds a block's row FFT and its lag band, two arrays of at
    most ``_ROW_CHUNK`` x N, which the foreign pass at F = 2 bounds as well.
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

    The p sum runs on the symbol's p samples refined F times
    (:func:`_p_oversampling`).  On the native path, where the p grid is dual
    to the x grid at ``eta`` (every symbol at its own eta), the refined sum
    at lag d dx is F times the length-N DFT of the unrefined row at d mod N
    for |d| < N/2, half that at |d| = N/2 and zero beyond: one FFT per block
    of rows and lag parity, and the kernel holds the lag band |x - y| < L/2
    (L the grid length), half weight at L/2, zero beyond.  On the foreign
    path the rows are refined and summed with :func:`transforms.chirp_z`;
    the band then stretches to about |x - y| < (L/2) eta / a.eta.
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
    native = abs(a.p_grid.dx - dual_grid(a.x_grid, eta_use).dx) <= 1e-12 * a.p_grid.dx
    half_step = fourier_shift(a.values, a.x_grid, 0.5 * dx, axis=0)
    d = 2 * np.arange(n) + np.arange(2)[:, None, None] - n
    table = np.zeros((2, n, n), dtype=complex)
    for parity, rows in enumerate((a.values, half_step)):
        # the lag band |d| <= N/2, a contiguous run of t
        band = np.flatnonzero(2 * np.abs(d[parity, 0]) <= n)
        lags = d[parity, 0, band]
        weight = np.where(2 * np.abs(lags) == n, 0.5 * factor, factor)
        for start in range(0, n, _ROW_CHUNK):
            block = rows[start : start + _ROW_CHUNK]
            out = table[parity, start : start + _ROW_CHUNK]
            if native:
                sums = np.fft.ifft(block, axis=1, norm="forward")
                np.multiply(sums[:, lags % n], weight, out=out[:, band[0] : band[-1] + 1])
            else:
                out[:] = chirp_z(
                    refine(block, factor, axis=1), n, 2 * step, (parity - n) * step
                )
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
