"""Discrete Fourier sums: the eta-scaled transforms and band-limited interpolation.

The continuous transforms are

    F_eta psi(p)   = (2 pi eta)^(-1/2) Int exp(-i p x / eta) psi(x) dx
    F_sigma a(z)   = (2 pi eta)^(-1)   Int exp(-i sigma(z, z') / eta) a(z') dz'

with the symplectic form sigma(z, z') = p x' - p' x.  Both are realized as
DFTs with explicit phase factors that account for grids not starting at the
origin; the position/momentum grids are kept mutually dual
(dp = 2 pi eta / (N dx)) so forward and inverse transforms land back on the
same sample points.

Every grid function is treated as a periodic, band-limited signal on its
grid, so refinement (:func:`refine`) and shifting (:func:`fourier_shift`)
go through the DFT too, with the Nyquist bin split symmetrically so that
real inputs stay real.  Evenly spaced output points off the dual grid are
one :func:`chirp_z` sum.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .grid import Grid, GridFunction, PhaseSpaceFunction, dual_grid

__all__ = [
    "eta_fourier",
    "symplectic_fourier",
    "oscillatory_sum",
    "chirp_z",
    "refine",
    "fourier_shift",
]


def _dual_check(in_grid: Grid, out_grid: Grid, eta: float):
    product = out_grid.dx * in_grid.dx * in_grid.n
    target = 2.0 * np.pi * eta
    if in_grid.n != out_grid.n or abs(product - target) > 1e-9 * target:
        raise ParameterError(
            "output grid is not dual to the input grid for this eta "
            f"(dq*dy*N = {product}, expected {target})"
        )


def phase_ramps(in_grid: Grid, out_grid: Grid, eta: float, sign: int) -> tuple:
    """The phase ramps of :func:`oscillatory_sum`: exp(sign i q_min dy k / eta)
    over the input samples k and exp(sign i q_m y_min / eta) over the output
    points q_m."""
    k = np.arange(in_grid.n)
    pre = np.exp(sign * 1j * out_grid.x_min * in_grid.dx * k / eta)
    post = np.exp(sign * 1j * out_grid.points * in_grid.x_min / eta)
    return pre, post


def oscillatory_sum(
    values: np.ndarray,
    in_grid: Grid,
    out_grid: Grid,
    eta: float,
    sign: int,
    axis: int = -1,
    scale: float = 1.0,
    overwrite: bool = False,
) -> np.ndarray:
    """Compute scale * sum_k exp(sign * i q_m y_k / eta) f_k along ``axis``.

    Requires the dual-grid relation dq * dy * N = 2 pi eta; the general
    offsets y_min, q_min are absorbed into pre/post phase ramps around a
    plain FFT, and ``scale`` rides on the post phase.  No quadrature weight
    is applied.  The pre phase, the FFT and the post phase run in place in
    one complex array: the complex copy of a real input, a complex input
    itself when ``overwrite`` is set (a temporary the caller hands over,
    which the result then overwrites), else a pre-phased copy of it.
    """
    if sign not in (-1, 1):
        raise ParameterError("sign must be +1 or -1")
    _dual_check(in_grid, out_grid, eta)
    n = in_grid.n
    pre, post = phase_ramps(in_grid, out_grid, eta, sign)
    post = scale * post
    values = np.asarray(values)
    owned = overwrite or values.dtype != complex
    values = np.moveaxis(values.astype(complex, copy=False), axis, -1)
    values = np.multiply(values, pre, out=values if owned else None)
    if sign < 0:
        np.fft.fft(values, axis=-1, out=values)
    else:
        np.fft.ifft(values, axis=-1, out=values)
        post *= n
    values *= post
    return np.moveaxis(values, -1, axis)


def chirp_z(values: np.ndarray, m: int, step: float, start: float) -> np.ndarray:
    """Compute sum_l values[..., l] exp(i (start + k step) l), k = 0 .. m-1.

    Bluestein's chirp-z: l k = (l^2 + k^2 - (k - l)^2) / 2 turns the sum
    into a convolution with the chirp exp(-i step j^2 / 2), done with FFTs
    of the smallest length 2^k, 3 2^k or 5 2^k that holds all n + m - 1
    lags.  The chirps are exact integer squares times a float ``step``, so
    their absolute phase error grows like 1e-16 step (n + m)^2 / 2 and large
    indices lose phase accuracy.

    Besides the input, the call holds one zero-padded buffer of ``size``
    samples per row, which the pre-chirped input fills and the forward FFT,
    the kernel product and the inverse FFT overwrite in place, and the fresh
    m-sample output.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    size = min(f << (-(-(n + m - 1) // f) - 1).bit_length() for f in (1, 3, 5))
    l = np.arange(n)
    k = np.arange(m)
    lags = np.arange(1 - n, m)
    pre = np.exp(1j * (start * l + 0.5 * step * (l * l)))
    chirp = np.zeros(size, dtype=complex)
    chirp[: m + n - 1] = np.exp(-0.5j * step * (lags * lags))
    work = np.zeros(values.shape[:-1] + (size,), dtype=complex)
    np.multiply(values, pre, out=work[..., :n])
    np.fft.fft(work, axis=-1, out=work)
    work *= np.fft.fft(np.roll(chirp, 1 - n))
    np.fft.ifft(work, axis=-1, out=work)
    # a fresh array, not a view that would keep the padded buffer alive
    return work[..., :m] * np.exp(0.5j * step * (k * k))


def refine(values: np.ndarray, factor: int, axis: int = -1) -> np.ndarray:
    """Zero-pad DFT interpolation onto a ``factor`` x finer grid.

    The output samples the same trigonometric interpolant at spacing
    ``dx / factor`` starting from the first input sample.  The inverse FFT
    and the factor run in place in the zero-padded spectrum.
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
    np.fft.ifft(out, axis=-1, out=out)
    out *= factor
    return np.moveaxis(out, -1, axis)


def fourier_shift(
    values: np.ndarray,
    grid: Grid,
    shift: float,
    axis: int | tuple[int, ...] = -1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate the periodic interpolant at ``x - shift`` on the same grid.

    ``axis`` is one axis or a tuple of axes, shifted one after the other.
    The first forward FFT writes into ``out``, which may be ``values``
    itself (a complex array or a strided view of one), or else allocates the
    only buffer; every later FFT, phase product and inverse FFT overwrites
    it in place.
    """
    work = np.asarray(values, dtype=complex)
    for step, ax in enumerate(axis if isinstance(axis, tuple) else (axis,)):
        ax %= work.ndim
        n = work.shape[ax]
        work = np.fft.fft(work, axis=ax, out=out if step == 0 else work)
        ks = np.fft.fftfreq(n, d=1.0 / n)
        phase = np.exp(-2j * np.pi * ks * shift / grid.length)
        if n % 2 == 0:
            # symmetric Nyquist treatment keeps real inputs real; an odd N has
            # no Nyquist bin
            phase[n // 2] = np.cos(np.pi * n * shift / grid.length)
        work *= phase.reshape((n,) + (1,) * (work.ndim - 1 - ax))
        np.fft.ifft(work, axis=ax, out=work)
    return work


def eta_fourier(psi: GridFunction, inverse: bool = False) -> GridFunction:
    """eta-scaled Fourier transform of a grid function onto its dual grid.

    The forward transform maps onto the centered dual (momentum) grid; the
    inverse applies the conjugate kernel onto the same grid.
    """
    eta = psi.eta
    out_grid = dual_grid(psi.grid, eta)
    sign = 1 if inverse else -1
    weight = (2.0 * np.pi * eta) ** -0.5 * psi.grid.dx
    values = oscillatory_sum(psi.values, psi.grid, out_grid, eta, sign, scale=weight)
    return GridFunction(out_grid, values, eta)


def symplectic_fourier(a: PhaseSpaceFunction) -> PhaseSpaceFunction:
    """Symplectic Fourier transform of a phase-space function.

    Writing sigma(z, z') = p x' - p' x, the kernel factors into a forward
    eta-transform along the x' axis (paired with p) and an inverse one along
    the p' axis (paired with x), so the whole map is two 1-D passes.  It is
    an involution: applying it twice returns the input.  Both grids must be
    centred.

    The transform of a real function has A(-z) = conj A(z), and on the
    centred grids its first pass has the real pre-phase (-1)^k: the pass is
    one ``rfft`` of the signed samples into the first N/2 + 1 momentum rows
    of the output (p <= 0), and the second pass runs in place on those rows
    only.  The other rows are the conjugates of their mirrors, except their
    entry at the unpaired x = -N/2 dx: the conjugate of one extra sum per
    row, its partner row against the conjugate pre-phase of the second
    pass, taken before that pass.  A complex function is the transform of
    its real part plus i times that of its imaginary part.
    """
    eta = a.eta
    x_grid, p_grid = a.x_grid, a.p_grid
    if not x_grid.is_centered:
        raise ParameterError("symplectic transform requires a centered x grid")
    if not p_grid.is_centered:
        raise ParameterError("symplectic transform requires a centered p grid")
    _dual_check(x_grid, p_grid, eta)
    out_grid = dual_grid(p_grid, eta)
    samples = a.values

    def transform(part):
        return _real_symplectic_fourier(part, x_grid, p_grid, out_grid, eta)

    if np.iscomplexobj(samples):
        # the map is real-linear: the transforms of the two parts, recombined,
        # drop nothing
        out, imag = transform(samples.real), transform(samples.imag)
        imag *= 1j
        out += imag
    else:
        out = transform(samples)
    kind = "ambiguity" if a.kind == "wigner" else "generic"
    return PhaseSpaceFunction(out_grid, p_grid, out, eta, kind=kind)


#: columns per signed copy of the first pass of :func:`symplectic_fourier`
_COLUMN_CHUNK = 32


def _real_symplectic_fourier(
    values: np.ndarray, x_grid: Grid, p_grid: Grid, out_grid: Grid, eta: float
) -> np.ndarray:
    """The symplectic Fourier transform of real samples on centred grids,
    indexed [x, p]: the transpose of the N x N stage [p, x] that both
    passes write in place."""
    n = x_grid.n
    rows = n // 2 + 1
    sign = np.ones(n)
    sign[1::2] = -1.0
    stage = np.empty((n, n), dtype=complex)
    # x' -> p (sign -1), along axis 0: exp(-i p_l x_k / eta) is the post
    # phase of p_l times (-1)^k exp(-2 pi i l k / N)
    for start in range(0, n, _COLUMN_CHUNK):
        cols = slice(start, start + _COLUMN_CHUNK)
        np.fft.rfft(values[:, cols] * sign[:, None], axis=0, out=stage[:rows, cols])
    post = phase_ramps(x_grid, p_grid, eta, -1)[1]
    # p' -> x (sign +1), along axis 1: the rows paired with p > 0 need only
    # their sum at x = -N/2 dx, conj(sum_j conj(pre_j) R[N - l, j]) in row l
    pre, post_x = phase_ramps(p_grid, out_grid, eta, 1)
    unpaired = stage[n - rows : 0 : -1] @ np.conjugate(pre)
    stage[:rows] *= post[:rows, None]
    scale = x_grid.dx * p_grid.dx / (2.0 * np.pi * eta)
    oscillatory_sum(stage[:rows], p_grid, out_grid, eta, 1, axis=1, scale=scale, overwrite=True)
    np.conjugate(stage[n - rows : 0 : -1, n - 1 : 0 : -1], out=stage[rows:, 1:])
    np.multiply(np.conjugate(unpaired), scale * post_x[0] * post[rows:], out=stage[rows:, 0])
    return stage.T
