"""Band-limited (trigonometric) interpolation utilities.

All grid functions in this library are treated as periodic, band-limited
signals on their grid, so refinement and shifting are done through the DFT.
The Nyquist bin is split symmetrically so that real inputs stay real under
every operation here.  Evaluation off the grid lattice has no dense path of
its own: a single point reads the weights of a shifted unit sample
(:func:`fourier_shift`), and evenly spaced points are one chirp-z sum
(the word steps in :mod:`symplectic`).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .grid import Grid

__all__ = [
    "refine",
    "fourier_shift",
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
