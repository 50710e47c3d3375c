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

A map with S(-z) = conj S(z) on centred grids, the ambiguity function and
the symplectic transform of a real function, computes half its output:
its caller writes the rows 0 .. N/2 of an N x N stage, and
:func:`conjugate_symmetric_pass` sums them in place, fills the other rows
with the conjugates of their mirrors and their unpaired column 0 with one
extra sum per row.
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


def _phase_ramps(in_grid: Grid, out_grid: Grid, eta: float, sign: int) -> tuple:
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
    scale: float = 1.0,
    overwrite: bool = False,
) -> np.ndarray:
    """Compute scale * sum_k exp(sign * i q_m y_k / eta) f_k along the last axis.

    Requires the dual-grid relation dq * dy * N = 2 pi eta; the general
    offsets y_min, q_min are absorbed into pre/post phase ramps around a
    plain FFT, and ``scale`` rides on the post phase.  No quadrature weight
    is applied.  The pre phase, the FFT and the post phase run in place in
    one complex array: the complex copy of a real input, a complex input
    itself when ``overwrite`` is set (a temporary the caller hands over,
    which the result then overwrites, as the rows of
    :func:`conjugate_symmetric_pass`), else a pre-phased copy of it.
    """
    if sign not in (-1, 1):
        raise ParameterError("sign must be +1 or -1")
    _dual_check(in_grid, out_grid, eta)
    n = in_grid.n
    pre, post = _phase_ramps(in_grid, out_grid, eta, sign)
    post = scale * post
    values = np.asarray(values)
    owned = overwrite or values.dtype != complex
    values = values.astype(complex, copy=False)
    values = np.multiply(values, pre, out=values if owned else None)
    if sign < 0:
        np.fft.fft(values, axis=-1, out=values)
    else:
        np.fft.ifft(values, axis=-1, out=values)
        post *= n
    values *= post
    return values


def conjugate_symmetric_pass(
    stage: np.ndarray, in_grid: Grid, out_grid: Grid, eta: float, sign: int, scale: float
) -> np.ndarray:
    """Finish an N x N ``stage`` whose row sums (:func:`oscillatory_sum`)
    are conjugate-symmetric, from its rows 0 .. N/2; the stage is returned.

    On centred grids a map with S(-z) = conj S(z) pairs row i with row N - i
    and column k with column N - k, and row 0 and column 0, the grid's first
    points -N/2 steps from its centre, have no partner.  Rows 0 .. N/2 are
    summed in place, and rows N/2 + 1 .. N - 1 are the conjugates of their
    mirrors, bit for bit, except their column 0: the conjugate of the sum
    their mirror would take at the missing column N, where every FFT phase
    is 1 and the post phase is the conjugate of column 0's, so one extra
    sum per row, against conj(pre), taken before the in-place pass.  Each
    row 0 .. N/2 may carry a phase of its own whose conjugate is that of
    the row it mirrors to, as the post phase of the symplectic transform's
    first pass.
    """
    n = in_grid.n
    rows = n // 2 + 1
    pre, post = _phase_ramps(in_grid, out_grid, eta, sign)
    mirrors = stage[n - rows : 0 : -1]
    unpaired = mirrors @ np.conjugate(pre)
    oscillatory_sum(stage[:rows], in_grid, out_grid, eta, sign, scale=scale, overwrite=True)
    np.conjugate(mirrors[:, n - 1 : 0 : -1], out=stage[rows:, 1:])
    np.multiply(np.conjugate(unpaired), scale * post[0], out=stage[rows:, 0])
    return stage


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
    axis: int = -1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate the periodic interpolant at ``x - shift`` on the same grid,
    along ``axis``.

    The forward FFT writes into ``out``, which may be ``values`` itself (a
    complex array or a strided view of one), or else allocates the only
    buffer; the phase product and the inverse FFT overwrite it in place.
    """
    work = np.asarray(values, dtype=complex)
    axis %= work.ndim
    n = work.shape[axis]
    work = np.fft.fft(work, axis=axis, out=out)
    ks = np.fft.fftfreq(n, d=1.0 / n)
    phase = np.exp(-2j * np.pi * ks * shift / grid.length)
    if n % 2 == 0:
        # symmetric Nyquist treatment keeps real inputs real; an odd N has no
        # Nyquist bin
        phase[n // 2] = np.cos(np.pi * n * shift / grid.length)
    work *= phase.reshape((n,) + (1,) * (work.ndim - 1 - axis))
    np.fft.ifft(work, axis=axis, out=work)
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
    one ``rfft`` of the signed samples into the momentum rows 0 .. N/2 of
    the output (p <= 0), times their post phase, and the second pass is
    :func:`conjugate_symmetric_pass`, which sums those rows in place and
    mirrors the rest.  A complex function is the transform of its real
    part plus i times that of its imaginary part.
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
    post = _phase_ramps(x_grid, p_grid, eta, -1)[1]
    stage[:rows] *= post[:rows, None]
    # p' -> x (sign +1), along axis 1
    scale = x_grid.dx * p_grid.dx / (2.0 * np.pi * eta)
    return conjugate_symmetric_pass(stage, p_grid, out_grid, eta, 1, scale).T
