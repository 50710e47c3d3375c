"""Discrete realizations of the eta-scaled Fourier transforms.

The continuous transforms are

    F_eta psi(p)   = (2 pi eta)^(-1/2) Int exp(-i p x / eta) psi(x) dx
    F_sigma a(z)   = (2 pi eta)^(-1)   Int exp(-i sigma(z, z') / eta) a(z') dz'

with the symplectic form sigma(z, z') = p x' - p' x.  Both are realized as
DFTs with explicit phase factors that account for grids not starting at the
origin; the position/momentum grids are kept mutually dual
(dp = 2 pi eta / (N dx)) so forward and inverse transforms land back on the
same sample points.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, require_memory
from .grid import Grid, GridFunction, PhaseSpaceFunction, dual_grid
from .interpolate import fourier_shift

__all__ = [
    "eta_fourier",
    "symplectic_fourier",
    "oscillatory_sum",
    "half_step_correlation",
    "lag_transform",
    "chirp_z",
]


def _dual_check(in_grid: Grid, out_grid: Grid, eta: float):
    product = out_grid.dx * in_grid.dx * in_grid.n
    target = 2.0 * np.pi * eta
    if in_grid.n != out_grid.n or abs(product - target) > 1e-9 * target:
        raise ParameterError(
            "output grid is not dual to the input grid for this eta "
            f"(dq*dy*N = {product}, expected {target})"
        )


def oscillatory_sum(
    values: np.ndarray,
    in_grid: Grid,
    out_grid: Grid,
    eta: float,
    sign: int,
    axis: int = -1,
    scale: float = 1.0,
) -> np.ndarray:
    """Compute scale * sum_k exp(sign * i q_m y_k / eta) f_k along ``axis``.

    Requires the dual-grid relation dq * dy * N = 2 pi eta; the general
    offsets y_min, q_min are absorbed into pre/post phase ramps around a
    plain FFT, and ``scale`` rides on the post phase.  No quadrature weight
    is applied.  Besides the input, the call holds the pre-phased copy and
    the FFT output; a caller that passes a temporary frees the input as soon
    as it is phased.
    """
    if sign not in (-1, 1):
        raise ParameterError("sign must be +1 or -1")
    _dual_check(in_grid, out_grid, eta)
    n = in_grid.n
    k = np.arange(n)
    pre = np.exp(sign * 1j * out_grid.x_min * in_grid.dx * k / eta)
    post = scale * np.exp(sign * 1j * out_grid.points * in_grid.x_min / eta)
    values = np.moveaxis(np.asarray(values, dtype=complex), axis, -1) * pre
    if sign < 0:
        spec = np.fft.fft(values, axis=-1)
    else:
        spec = np.fft.ifft(values, axis=-1)
        post *= n
    spec *= post
    return np.moveaxis(spec, -1, axis)


def require_correlation_memory(n: int):
    """Refuse a Weyl-Wigner map at N grid points above the memory budget.

    A kernel peaks at about 80 N^2 bytes: the N x N kernel and the N x 2N
    correlation (48 N^2) with the pre-phased copy and FFT output of
    :func:`lag_transform` (32 N^2), or the kernel and four N x N arrays of
    its 2-D half-step shift.  Factors (U, V) build no N x N kernel and need
    less.  The 104 N^2 counted also covers what the allocator holds beyond
    them.  Call it before the kernel or the correlation is built.
    """
    require_memory(104 * n * n, f"half-step correlation at N = {n}")


def midpoint_lag(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The midpoint row and lag column of each entry (a, b) of an N x N kernel.

    Entry (a, b) has the lag s dx, s = a - b, in column s + N of the 2N
    lags of :func:`half_step_correlation`, and the midpoint x_j for even s or
    x_j - dx/2 for odd s, with j = (a + b + 1) >> 1 in both cases.  The map is
    one to one.
    """
    a, b = np.ogrid[:n, :n]
    return (a + b + 1) >> 1, a - b + n


def parity_views(corr: np.ndarray) -> dict:
    """The :func:`midpoint_lag` cells of each parity block, as views of ``corr``.

    Entry (2i + a, 2k + b) of an N x N kernel sits at flat offset
    i (2N + 2) + k (2N - 2) + c of the N x 2N table, with c = N, 3N - 1,
    3N + 1 and 3N for (a, b) = (0, 0), (0, 1), (1, 0) and (1, 1), so the
    block K[a::2, b::2] is one strided N/2 x N/2 view per (a, b).  The four
    views cover each cell of the map once; N must be even.
    """
    n = corr.shape[0]
    if n % 2:
        raise ParameterError(f"the half-step correlation needs an even N, got {n}")
    flat = corr.reshape(-1)  # a view: corr is C-contiguous
    strides = ((2 * n + 2) * corr.itemsize, (2 * n - 2) * corr.itemsize)
    return {
        (a, b): np.lib.stride_tricks.as_strided(
            flat[((a + b + 1) >> 1) * 2 * n + a - b + n :], (n // 2, n // 2), strides
        )
        for a in (0, 1)
        for b in (0, 1)
    }


def half_step_correlation(kernel, grid: Grid) -> np.ndarray:
    """C[j, m] = K(x_j + y_m/2, x_j - y_m/2) at the 2N lags y_m = (m - N) dx.

    Both arguments sit x_j +- s dx/2 for the lag index s = m - N, so they
    are on the grid for even s and half a step off it for odd s.  Even lags
    read K itself, odd lags the band-limited interpolant of K shifted by
    -dx/2 along both axes (the odd samples of a twofold refinement).  Each
    kernel entry lands in its :func:`midpoint_lag` cell, one parity block
    at a time; cells whose arguments fall off the grid stay zero.

    ``kernel`` is the N x N kernel, or a pair (U, V) of N x r factors with
    K = U V^H.  A kernel is shifted in 2-D; factors are shifted along x
    alone, and each parity block is the (N/2 x r)(r x N/2) product of
    their rows, so no N x N array is built.  N must be even.
    """
    n = grid.n
    shift = -0.5 * grid.dx
    corr = np.zeros((n, 2 * n), dtype=complex)
    views = parity_views(corr)
    if isinstance(kernel, tuple):
        # row-major factors keep every row slice a BLAS operand; the shift is
        # a real linear map, so it commutes with the conjugation of V
        u, v, u_shifted, v_shifted = (
            np.ascontiguousarray(f)
            for f in (*kernel, *(fourier_shift(f, grid, shift, axis=0) for f in kernel))
        )
        for (a, b), view in views.items():
            # odd lags (a != b) read the shifted factors
            left, right = (u, v) if a == b else (u_shifted, v_shifted)
            np.matmul(left[a::2], right[b::2].conj().T, out=view)
        return corr
    shifted = fourier_shift(fourier_shift(kernel, grid, shift, axis=0), grid, shift, axis=1)
    for (a, b), view in views.items():
        view[...] = (kernel if a == b else shifted)[a::2, b::2]
    return corr


def lag_transform(corr: np.ndarray, dx: float, p_grid: Grid, eta: float) -> np.ndarray:
    """Compute dx sum_m corr[..., m] exp(-i y_m p_l / eta) over 2N lags.

    The lags are y_m = (m - N) dx for m = 0 .. 2N-1, with N = ``p_grid.n``,
    and ``p_grid`` must be dual to the lag spacing (dp dx N = 2 pi eta).
    The kernel is then N-periodic in m up to the factor exp(-i N dx p_min /
    eta) on the upper half, so the lags fold onto the N lags (m - N) dx,
    m < N, and one dual-grid sum finishes the job.  The fold is done in
    place: the correlation is consumed, its upper half left holding the
    folded lags.
    """
    n = p_grid.n
    folded = corr[..., n:]
    folded *= np.exp(-1j * n * dx * p_grid.x_min / eta)
    folded += corr[..., :n]
    return oscillatory_sum(folded, Grid(-n * dx, 0.0, n), p_grid, eta, -1, scale=dx)


def chirp_z(values: np.ndarray, m: int, step: float, start: float) -> np.ndarray:
    """Compute sum_l values[..., l] exp(i (start + k step) l), k = 0 .. m-1.

    Bluestein's chirp-z: l k = (l^2 + k^2 - (k - l)^2) / 2 turns the sum
    into a convolution with the chirp exp(-i step j^2 / 2), done with FFTs
    of the smallest length 2^k, 3 2^k or 5 2^k that holds all n + m - 1
    lags.  The chirps are exact integer squares times a float ``step``, so
    their absolute phase error grows like 1e-16 step (n + m)^2 / 2 and large
    indices lose phase accuracy.
    """
    values = np.asarray(values, dtype=complex)
    n = values.shape[-1]
    size = min(f << (-(-(n + m - 1) // f) - 1).bit_length() for f in (1, 3, 5))
    l = np.arange(n)
    k = np.arange(m)
    lags = np.arange(1 - n, m)
    pre = np.exp(1j * (start * l + 0.5 * step * (l * l)))
    chirp = np.zeros(size, dtype=complex)
    chirp[: m + n - 1] = np.exp(-0.5j * step * (lags * lags))
    work = np.fft.fft(values * pre, size, axis=-1)
    work *= np.fft.fft(np.roll(chirp, 1 - n))
    return np.fft.ifft(work, axis=-1)[..., :m] * np.exp(0.5j * step * (k * k))


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
    an involution: applying it twice returns the input.
    """
    eta = a.eta
    x_grid, p_grid = a.x_grid, a.p_grid
    if not x_grid.is_centered:
        raise ParameterError("symplectic transform requires a centered x grid")
    _dual_check(x_grid, p_grid, eta)
    # x' -> p (sign -1), along axis 0
    stage = oscillatory_sum(a.values, x_grid, p_grid, eta, -1, axis=0)
    # p' -> x (sign +1), along axis 1; stage is indexed [p, p'], and after
    # this pass axis 1 is x, so swap
    scale = x_grid.dx * p_grid.dx / (2.0 * np.pi * eta)
    out = oscillatory_sum(stage, p_grid, dual_grid(p_grid, eta), eta, 1, axis=1, scale=scale).T
    kind = "ambiguity" if a.kind == "wigner" else "generic"
    return PhaseSpaceFunction(dual_grid(p_grid, eta), p_grid, out, eta, kind=kind)
