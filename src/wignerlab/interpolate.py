"""Band-limited (trigonometric) interpolation utilities.

All grid functions in this library are treated as periodic, band-limited
signals on their grid, so refinement, shifting and off-grid evaluation are
done through the DFT.  The Nyquist bin is split symmetrically so that real
inputs stay real under every operation here.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .grid import Grid

__all__ = [
    "refine",
    "fourier_shift",
    "periodic_interp",
    "tensor_interp",
]


def refine(values: np.ndarray, factor: int, axis: int = -1) -> np.ndarray:
    """Zero-pad DFT interpolation onto a ``factor`` x finer grid.

    The output samples the same trigonometric interpolant at spacing
    ``dx / factor`` starting from the first input sample.
    """
    if factor < 1 or int(factor) != factor:
        raise ParameterError(f"refinement factor must be a positive integer, got {factor}")
    values = np.asarray(values, dtype=complex)
    if factor == 1:
        return values.copy()
    n = values.shape[axis]
    if n % 2:
        raise ParameterError("refine expects an even number of samples")
    values = np.moveaxis(values, axis, -1)
    spec = np.fft.fft(values, axis=-1)
    m = factor * n
    half = n // 2
    out = np.zeros(values.shape[:-1] + (m,), dtype=complex)
    out[..., :half] = spec[..., :half]
    out[..., m - half + 1 :] = spec[..., half + 1 :]
    # split the Nyquist coefficient so real signals refine to real signals
    out[..., half] = 0.5 * spec[..., half]
    out[..., m - half] = 0.5 * spec[..., half]
    fine = np.fft.ifft(out, axis=-1) * factor
    return np.moveaxis(fine, -1, axis)


def _split_frequencies(n: int) -> np.ndarray:
    """Integer frequencies -n/2 .. n/2 with both signed Nyquist copies."""
    return np.concatenate([np.arange(-(n // 2), n // 2), [n // 2]])


def _split_coefficients(spec: np.ndarray) -> np.ndarray:
    """FFT coefficients rearranged to match :func:`_split_frequencies`."""
    n = spec.shape[-1]
    half = n // 2
    out = np.concatenate(
        [
            0.5 * spec[..., half : half + 1],
            spec[..., half + 1 :],
            spec[..., :half],
            0.5 * spec[..., half : half + 1],
        ],
        axis=-1,
    )
    return out


def fourier_shift(values: np.ndarray, grid: Grid, shift: float, axis: int = -1) -> np.ndarray:
    """Evaluate the periodic interpolant at ``x - shift`` on the same grid."""
    values = np.asarray(values, dtype=complex)
    values = np.moveaxis(values, axis, -1)
    n = values.shape[-1]
    spec = np.fft.fft(values, axis=-1)
    ks = np.fft.fftfreq(n, d=1.0 / n)
    phase = np.exp(-2j * np.pi * ks * shift / grid.length)
    # symmetric Nyquist treatment keeps real inputs real
    phase[n // 2] = np.cos(np.pi * n * shift / grid.length)
    out = np.fft.ifft(spec * phase, axis=-1)
    return np.moveaxis(out, -1, axis)


def _eval_matrix(grid: Grid, points: np.ndarray) -> np.ndarray:
    """Matrix E with E[m, k] mapping FFT coefficients to values at points[m]."""
    n = grid.n
    ks = _split_frequencies(n)
    t = (np.asarray(points, dtype=float) - grid.x_min) / grid.length
    return np.exp(2j * np.pi * np.outer(t, ks)) / n


def periodic_interp(
    values: np.ndarray,
    grid: Grid,
    points: np.ndarray,
    zero_outside: bool = False,
) -> np.ndarray:
    """Band-limited evaluation of grid samples at arbitrary points.

    With ``zero_outside`` the (periodic) interpolant is masked to zero for
    points outside ``[x_min, x_max)`` — appropriate when the samples describe
    a decaying function rather than a genuinely periodic one.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape[-1] != grid.n:
        raise ParameterError("sample count does not match grid")
    points = np.atleast_1d(np.asarray(points, dtype=float))
    coeffs = _split_coefficients(np.fft.fft(values, axis=-1))
    out = coeffs @ _eval_matrix(grid, points).T
    if zero_outside:
        outside = (points < grid.x_min) | (points >= grid.x_max)
        out[..., outside] = 0.0
    return out


def tensor_interp(
    values: np.ndarray,
    x_grid: Grid,
    p_grid: Grid,
    new_x: np.ndarray,
    new_p: np.ndarray,
    zero_outside: bool = True,
) -> np.ndarray:
    """Evaluate a 2-D grid function on the tensor grid new_x x new_p."""
    values = np.asarray(values, dtype=complex)
    if values.shape != (x_grid.n, p_grid.n):
        raise ParameterError("values shape does not match grids")
    stage = periodic_interp(values.T, x_grid, new_x, zero_outside).T
    return periodic_interp(stage, p_grid, new_p, zero_outside)
