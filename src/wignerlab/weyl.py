"""Weyl quantization, displacement/reflection operators and trace formulas.

The correspondence between symbols a(x, p) and kernels K(x, y) is

    a(x, p) = Int exp(-i p y / eta) K(x + y/2, x - y/2) dy
    K(x, y) = (2 pi eta)^(-1) Int exp(i p (x - y) / eta) a((x + y)/2, p) dp

Midpoints and half-step arguments are reached with zero-padded DFT
interpolation onto the half-step grid, and off-grid indices are treated as
zero (kernels and symbols are assumed negligible outside the grid).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError
from .grid import GridFunction, PhaseSpaceFunction, boundary_leak, dual_grid
from .interpolate import fourier_shift, refine
from .states import DensityMatrix, OperatorMatrix
from .transforms import symplectic_fourier

__all__ = [
    "displace",
    "reflect",
    "weyl_quantize",
    "weyl_symbol",
    "twisted_product",
    "twisted_product_via_convolution",
    "expectation",
    "trace_from_symbol",
    "quantize_via_reflections",
    "quantize_via_displacements",
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


def _half_step_symbol(a: PhaseSpaceFunction) -> np.ndarray:
    """Symbol samples on the half-step x grid (2N rows)."""
    return refine(a.values, 2, axis=0)


#: largest working set, in bytes, that the p oversampling may allocate
_OVERSAMPLE_LIMIT_BYTES = 2 * 2**30


def _p_oversampled(values: np.ndarray, a: PhaseSpaceFunction, eta_use: float, base: int = 2):
    """Band-limited p-axis oversampling for the quantizer quadratures.

    Sampling the p integral at spacing dp folds kernel entries separated by
    2 pi eta / dp in x - y back onto the grid; oversampling pushes the fold
    past the largest separation the grid can hold.  Smaller eta values need
    proportionally more oversampling, as do quadratures whose phases carry
    twice the frequency (``base=4``).  The quadratures hold about three
    complex arrays of the oversampled size at once; a working set above
    ``_OVERSAMPLE_LIMIT_BYTES`` raises :class:`ParameterError` before any of
    them is allocated.
    """
    factor = base * max(1, int(np.ceil(a.eta / eta_use)))
    needed = 3 * values.shape[0] * factor * a.p_grid.n * np.dtype(complex).itemsize
    if needed > _OVERSAMPLE_LIMIT_BYTES:
        raise ParameterError(
            f"quantizing at eta = {eta_use} a symbol sampled at eta = {a.eta} "
            f"needs p oversampling by {factor}, about {needed / 2**30:.1f} GiB "
            f"(limit {_OVERSAMPLE_LIMIT_BYTES / 2**30:.0f} GiB)"
        )
    fine = refine(values, factor, axis=1)
    p = a.p_grid.x_min + np.arange(factor * a.p_grid.n) * a.p_grid.dx / factor
    return fine, p, a.p_grid.dx / factor


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
    af, p, dp = _p_oversampled(_half_step_symbol(a), a, eta_use)
    # K[j, k] = (2 pi eta)^-1 dp sum_l af[j+k, l] exp(i p_l (j-k) dx / eta)
    s = np.arange(2 * n)
    j = np.arange(n)
    ramp = p * dx / eta_use
    v = af * np.exp(-1j * np.outer(s, ramp))
    u = np.exp(2j * np.outer(j, ramp))
    w = v @ u.T  # w[s, j] = sum_l af[s, l] exp(i p_l (2j - s) dx / eta)
    jj, kk = np.meshgrid(j, j, indexing="ij")
    kernel = dp / (2.0 * np.pi * eta_use) * w[jj + kk, jj]
    return OperatorMatrix(a.x_grid, kernel, eta_use)


def weyl_symbol(op: OperatorMatrix) -> PhaseSpaceFunction:
    """Weyl symbol of an operator kernel (inverse of :func:`weyl_quantize`)."""
    grid = op.grid
    eta = op.eta
    n = grid.n
    dx = grid.dx
    p_grid = dual_grid(grid, eta)
    fine = refine(refine(op.kernel, 2, axis=0), 2, axis=1)
    pad = np.zeros((4 * n, 4 * n), dtype=complex)
    pad[n : 3 * n, n : 3 * n] = fine
    j = np.arange(n)[:, None]
    m = np.arange(2 * n)[None, :]
    corr = pad[2 * j + m, 2 * j - m + 2 * n]  # K(x_j + y_m/2, x_j - y_m/2)
    y = (np.arange(2 * n) - n) * dx
    kernel = np.exp(-1j * np.outer(y, p_grid.points) / eta)
    values = dx * corr @ kernel
    return PhaseSpaceFunction(
        grid, p_grid, values, eta, kind="symbol", leak=boundary_leak(values)
    )


def twisted_product(a: PhaseSpaceFunction, b: PhaseSpaceFunction) -> PhaseSpaceFunction:
    """Symbol c with Op(c) = Op(a) Op(b), via quantize -> compose -> dequantize."""
    a.require_compatible(b)
    product = weyl_quantize(a).compose(weyl_quantize(b))
    return weyl_symbol(product)


def twisted_product_via_convolution(
    a: PhaseSpaceFunction, b: PhaseSpaceFunction
) -> PhaseSpaceFunction:
    """Reference twisted product through the twisted-symbol convolution.

    c_sigma(z) = (2 pi eta)^-1 Int exp(i sigma(z, z')/2 eta)
                 a_sigma(z - z') b_sigma(z') dz'

    evaluated as a literal quadrature over the phase-space grid (difference
    points outside the grid contribute zero).  Quadratic cost in the number
    of grid points — intended for small grids as an independent check of
    :func:`twisted_product`.
    """
    a.require_compatible(b)
    eta = a.eta
    n = a.x_grid.n
    x = a.x_grid.points
    p = a.p_grid.points
    asig = symplectic_fourier(a).values
    bsig = symplectic_fourier(b).values
    weight = a.area_element / (2.0 * np.pi * eta)
    csig = np.zeros((n, n), dtype=complex)
    pad = np.zeros((2 * n, 2 * n), dtype=complex)
    pad[:n, :n] = asig
    half = n // 2  # grid index of the origin on the centered grids
    for i in range(n):
        di = i - np.arange(n) + half  # x-index of z - z'
        di = np.where((di >= 0) & (di < n), di, n)
        for k in range(n):
            dk = k - np.arange(n) + half
            dk = np.where((dk >= 0) & (dk < n), dk, n)
            adiff = pad[np.ix_(di, dk)]
            phase = np.exp(
                1j * (p[k] * x[:, None] - p[None, :] * x[i]) / (2.0 * eta)
            )
            csig[i, k] = weight * np.sum(adiff * phase * bsig)
    sig_fn = PhaseSpaceFunction(a.x_grid, a.p_grid, csig, eta, kind="generic")
    out = symplectic_fourier(sig_fn)
    return PhaseSpaceFunction(a.x_grid, a.p_grid, out.values, eta, kind="symbol")


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


def quantize_via_reflections(a: PhaseSpaceFunction) -> OperatorMatrix:
    """Quantizer A = (pi eta)^-1 Int a(z0) Pi(z0) dz0.

    Reflection centers run over the half-step x grid (the only centers whose
    reflections map the grid onto itself); each center contributes one
    anti-diagonal of the kernel.
    """
    eta = a.eta
    n = a.x_grid.n
    dx = a.x_grid.dx
    x = a.x_grid.points
    af, p, dp = _p_oversampled(_half_step_symbol(a), a, eta, base=4)
    kernel = np.zeros((n, n), dtype=complex)
    weight = (dx / 2.0) * dp / (np.pi * eta) / dx  # dz0 quadrature x 1/dx kernel unit
    for t in range(2 * n):
        x0 = a.x_grid.x_min + 0.5 * t * dx
        j = np.arange(max(0, t - n + 1), min(t, n - 1) + 1)
        phases = np.exp(2j * np.outer(x[j] - x0, p) / eta)
        kernel[j, t - j] += weight * phases @ af[t]
    return OperatorMatrix(a.x_grid, kernel, eta)


def quantize_via_displacements(a: PhaseSpaceFunction) -> OperatorMatrix:
    """Quantizer A = (2 pi eta)^-1 Int a_sigma(z0) D(z0) dz0.

    Displacements are the grid offsets themselves (whole-step shifts), with
    the twisted symbol a_sigma sampled on the phase-space grid; shifts past
    the grid edge contribute zero.  Requires a centered x grid.
    """
    eta = a.eta
    if not a.x_grid.is_centered:
        raise ParameterError("displacement quantizer requires a centered x grid")
    n = a.x_grid.n
    dx = a.x_grid.dx
    x = a.x_grid.points
    asig, p, dp = _p_oversampled(symplectic_fourier(a).values, a, eta)
    kernel = np.zeros((n, n), dtype=complex)
    weight = dp / (2.0 * np.pi * eta)  # (2 pi eta)^-1 dx dp x 1/dx kernel unit
    for t in range(n):
        x0 = x[t]
        s = t - n // 2  # x0 / dx on the centered grid
        j = np.arange(max(0, s), min(n, n + s))
        phases = np.exp(1j * np.outer(x[j] - 0.5 * x0, p) / eta)
        kernel[j, j - s] += weight * phases @ asig[t]
    return OperatorMatrix(a.x_grid, kernel, eta)
