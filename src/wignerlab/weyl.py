"""The Weyl correspondence: symbols, kernels, the ambiguity function and traces.

The correspondence between symbols a(x, p) and kernels K(x, y) is

    a(x, p) = Int exp(-i p y / eta) K(x + y/2, x - y/2) dy
    K(x, y) = (2 pi eta)^(-1) Int exp(i p (x - y) / eta) a((x + y)/2, p) dp

Both directions use one N x 2N table corr[r, d + N], the half-step
correlation: lag d dx at midpoint x_r (x_r - dx/2 for odd d).  Kernel entry
(a, b) has its cell at row (a + b + 1) >> 1 and column a - b + N, and the
cells of each parity block K[a::2, b::2] are one strided view of the table.
The symbol writes the kernel, or the products of its factors, into those
views and sums the lags against the dual p grid; the quantizer fills the
table from p sums and reads the kernel back out of them.  On the centred
dual p grid of an even N every phase of the lag sum is exactly +-1 or an
FFT root of unity, so the symbol folds the 2N lags onto N by one add,
signs them and takes one FFT; a Hermitian operator's folded lags are a
Hermitian sequence, so its real symbol is one ``hfft`` of lags 0 .. N/2.
The ambiguity function reads the same table of |psi><psi| with the lag
and midpoint axes swapped.  Off-grid arguments are treated as zero (kernels and symbols are
assumed negligible outside the grid).

At the symbol's own eta, where its p grid is dual to the x grid, the
quantizer's p sum is one row FFT and reconstructs the lag band
|x - y| < L/2 of a grid of length L, at half weight at L/2 and zero
beyond: the N lags a dual-grid symbol holds, onto which
:func:`weyl_symbol` folds any longer ones.  A foreign eta' runs the sum on
p-refined rows as one chirp-z sum; its band stretches to about
|x - y| < (L/2) eta' / a.eta, with no sharp edge.  A real symbol is the
symbol of a self-adjoint operator, so the quantizer sums only its lags
d >= 0, into an N x N table (an ``rfft`` per row block natively), and
mirrors the kernel's lower triangle onto the upper one.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError, require_memory
from .grid import Grid, GridFunction, PhaseSpaceFunction, boundary_leak, dual_grid
from .states import DensityMatrix, OperatorMatrix
from .transforms import chirp_z, fourier_shift, oscillatory_sum, refine

__all__ = [
    "displace",
    "reflect",
    "weyl_quantize",
    "weyl_symbol",
    "ambiguity",
    "half_step_correlation",
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


def require_correlation_memory(n: int):
    """Refuse a Weyl-Wigner map at N grid points above the memory budget.

    A kernel peaks at about 64 N^2 bytes: the N x N kernel and the N x 2N
    correlation (48 N^2) with one N x N buffer (16 N^2), first the one its
    2-D half-step shift runs in, then the complex output of the lag FFT (a
    Hermitian kernel's FFT runs in the correlation and only its real part,
    8 N^2, is copied out).  The lags are folded and signed in place, with no
    phased copy.  Factors (U, V) build no N x N kernel and need less; a
    Hermitian pair's ``hfft`` reads half the lags.  The 104 N^2 counted also
    covers what the allocator holds beyond them.  Call it before the kernel
    or the correlation is built.
    """
    require_memory(104 * n * n, f"half-step correlation at N = {n}")


def _parity_views(corr: np.ndarray) -> dict:
    """The cells of each parity block of the kernel, as views of ``corr``.

    ``corr`` is an N x w table whose lag-0 column is w - N: the N x 2N
    table of lags -N .. N - 1, or the N x N table of lags 0 .. N - 1.  Entry
    (2i + a, 2k + b) of an N x N kernel sits at flat offset
    i (w + 2) + k (w - 2) + h w + a - b + w - N, h = (a + b + 1) >> 1, so the
    block K[a::2, b::2] is one strided N/2 x N/2 view per (a, b).  On the
    N x 2N table the four views cover each cell (h, a - b + N) once; on the
    N x N table the cells of the lower triangle (lags a - b >= 0) are in
    place, and those of the strict upper triangle land in the neighbouring
    row, at offsets still between 0 and N^2.  N must be even.
    """
    n, width = corr.shape
    if n % 2:
        raise ParameterError(f"the half-step correlation needs an even N, got {n}")
    flat = corr.reshape(-1)  # a view: corr is C-contiguous
    strides = ((width + 2) * corr.itemsize, (width - 2) * corr.itemsize)
    return {
        (a, b): np.lib.stride_tricks.as_strided(
            flat[((a + b + 1) >> 1) * width + a - b + width - n :], (n // 2, n // 2), strides
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
    kernel entry lands in its cell, one parity block at a time
    (:func:`_parity_views`); cells whose arguments fall off the grid stay
    zero.

    ``kernel`` is the N x N kernel, or a pair (U, V) of N x r factors with
    K = U V^H.  A kernel is shifted in 2-D; factors are shifted along x
    alone, and each parity block is the (N/2 x r)(r x N/2) product of
    their rows, so no N x N array is built.  N must be even.
    """
    n = grid.n
    shift = -0.5 * grid.dx
    corr = np.zeros((n, 2 * n), dtype=complex)
    views = _parity_views(corr)
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
    shifted = fourier_shift(kernel, grid, shift, axis=(0, 1))
    for (a, b), view in views.items():
        view[...] = (kernel if a == b else shifted)[a::2, b::2]
    return corr


#: symbol rows per pass of :func:`weyl_quantize` (one row FFT on the native
#: path, one refinement and one chirp-z over the lags on the foreign one)
_ROW_CHUNK = 128

#: tile edge of the mirror that makes a real symbol's kernel Hermitian
_MIRROR_TILE = 64


def _p_oversampling(a: PhaseSpaceFunction, eta_use: float) -> int:
    """The quantizer's p oversampling factor F = 2 ceil(a.eta / eta_use).

    Sampling the p integral at spacing dp folds kernel entries separated by
    2 pi eta / dp in x - y back onto the grid; oversampling pushes the fold
    past the largest separation the grid can hold, and smaller eta values
    need proportionally more of it.  :func:`errors.require_memory` refuses
    the quantizer's working set before anything is allocated.  The working
    set is the N x 2N correlation (2 N^2 complex), then the one buffer of
    the odd-column shift (at most N x N) and the kernel the parity blocks
    are copied into, and one foreign pass of ``_ROW_CHUNK`` rows: the
    refinement's spectrum (N_p p points) and its F N_p refined samples, one
    zero-padded chirp-z buffer under 4/3 of the padded length F N_p + 2N,
    and the 2N sums.  That pass bounds the native one, a block's row FFT and
    its lag band.  The count, 16 (5 N^2 + min(N, ``_ROW_CHUNK``) (5 F N_p +
    8 N)) bytes, adds these as if they overlapped, with room for what the
    allocator holds.  A real symbol needs less of each: an N x N table, a
    shift of at most N/2 columns, real refined samples, a chirp-z buffer for
    F N_p + N and N sums; its kernel mirror copies one tile at a time.
    """
    factor = 2 * max(1, int(np.ceil(a.eta / eta_use)))
    n = a.x_grid.n
    one_pass = min(n, _ROW_CHUNK) * (5 * factor * a.p_grid.n + 8 * n)
    require_memory(
        16 * (5 * n * n + one_pass),
        f"p oversampling by {factor} to quantize at eta = {eta_use} a symbol at eta = {a.eta}",
    )
    return factor


def weyl_quantize(a: PhaseSpaceFunction, eta: float | None = None) -> OperatorMatrix:
    """Operator kernel of a phase-space symbol.

    ``eta`` overrides the symbol's attached parameter: the p samples then act
    as a plain quadrature for the kernel integral at the new eta, which is
    what variable-Planck-constant scans need.

    The p sums of the unshifted rows fill the table corr[r, d + w - N] of lag
    d dx at midpoint x_r (w its width); one half-step shift along x moves the
    odd-lag columns to their midpoints x_r - dx/2, and each parity block
    K[a::2, b::2] of the kernel is copied out of its strided view of the
    table (:func:`_parity_views`).  The p samples are refined F times
    (:func:`_p_oversampling`).  On the native path, where the p grid
    is dual to the x grid at ``eta`` (every symbol at its own eta), the
    refined sum at lag d dx is F times the length-N DFT of the unrefined row
    at d mod N for |d| < N/2, half that at |d| = N/2 and zero beyond: one
    FFT per block of rows, and the kernel holds the lag band |x - y| < L/2
    (L the grid length).  On the foreign path one :func:`chirp_z` sums the
    refined rows over the lags; the band then stretches to about
    |x - y| < (L/2) eta / a.eta.

    A complex symbol fills the N x 2N table of all 2N lags.  A real (float64)
    symbol quantizes to a Hermitian kernel, K(y, x) = conj K(x, y), so it
    sums only the lags d >= 0 into an N x N table: natively one ``rfft`` per
    block, conjugated, for lags 0 .. N/2; at a foreign eta rows refined by
    ``irfft`` and one chirp-z over N lags.  The strict upper triangle of the
    kernel is then the mirror of the lower one and the diagonal is real, so
    the kernel equals its conjugate transpose bit for bit.
    """
    eta_use = a.eta if eta is None else float(eta)
    dual = dual_grid(a.x_grid, eta_use)  # the grid module's eta rule refuses a bad eta
    factor = _p_oversampling(a, eta_use)
    n = a.x_grid.n
    dx = a.x_grid.dx
    native = a.p_grid.n == n and abs(a.p_grid.dx - dual.dx) <= 1e-12 * dual.dx
    real = not np.iscomplexobj(a.values)
    if real and not native and a.p_grid.n % 2:
        raise ParameterError("refine expects an even number of samples")
    # corr[r, d + width - N] = (2 pi eta)^-1 dp sum_l a(x_r, p_l) exp(i p_l d dx / eta)
    # over the lags first <= d < stop; the weights carry dp, the lag phase of
    # p_min and the native band edge, where the refined sum is the length-N
    # DFT at d mod N, half of it at |d| = N/2
    width, first = (n, 0) if real else (2 * n, -n)
    if native:
        dp, first, stop = a.p_grid.dx, max(first, -(n // 2)), n // 2 + 1
    else:
        dp, stop = a.p_grid.dx / factor, n
    d = np.arange(first, stop)
    weight = dp / (2.0 * np.pi * eta_use) * np.exp(1j * a.p_grid.x_min * d * dx / eta_use)
    if native:
        weight[np.abs(d) == n // 2] *= 0.5
    step = dp * dx / eta_use
    lo, hi = first + width - n, stop + width - n
    corr = np.zeros((n, width), dtype=complex)
    for start in range(0, n, _ROW_CHUNK):
        block = a.values[start : start + _ROW_CHUNK]
        if native and real:
            sums = np.fft.rfft(block, axis=1)
            np.conjugate(sums, out=sums)
        elif native:
            sums = np.fft.ifft(block, axis=1, norm="forward")[:, d % n]
        else:
            if real:
                # refine's zero padding of the spectrum, Nyquist bin split in half
                spec = np.fft.rfft(block, axis=1, norm="forward")
                spec[:, -1] *= 0.5
                rows = np.fft.irfft(spec, factor * a.p_grid.n, axis=1, norm="forward")
            else:
                rows = refine(block, factor, axis=1)
            sums = chirp_z(rows, stop - first, step, first * step)
        np.multiply(sums, weight, out=corr[start : start + _ROW_CHUNK, lo:hi])
    # odd lags (odd columns, N being even) have their midpoint at x_r - dx/2:
    # the p sums commute with the half-step shift along x
    odd = slice(lo + 1, hi, 2)
    corr[:, odd] = fourier_shift(corr[:, odd], a.x_grid, 0.5 * dx, axis=0)
    kernel = np.empty((n, n), dtype=complex)
    for (r, c), view in _parity_views(corr).items():
        kernel[r::2, c::2] = view
    if real:
        _mirror_lower(kernel)
    return OperatorMatrix(a.x_grid, kernel, eta_use)


def _mirror_lower(kernel: np.ndarray):
    """Make a square kernel Hermitian in place from its lower triangle: the
    strict upper triangle becomes the conjugate transpose of the strict lower
    one, tile by tile, and the diagonal's imaginary part zero."""
    n = kernel.shape[0]
    tile = _MIRROR_TILE
    for s in range(0, n, tile):
        rows = slice(s, s + tile)
        for t in range(s + tile, n, tile):
            np.conjugate(kernel[t : t + tile, rows].T, out=kernel[rows, t : t + tile])
        block = kernel[rows, rows]
        upper = np.triu(np.ones(block.shape, dtype=bool), 1)
        np.copyto(block, block.conj().T, where=upper)
    np.fill_diagonal(kernel.imag, 0.0)


def correlation_symbol(
    source, grid, eta: float, scale: float = 1.0, kind: str = "symbol", hermitian: bool = False
) -> PhaseSpaceFunction:
    """``scale`` times the Weyl symbol of the kernel ``source``, or of a pair
    (U, V) of N x r factors of the kernel U V^H, read off its half-step
    correlation, as a function of the given ``kind``.

    The symbol is dx sum_m corr[j, m] exp(-i p_l y_m / eta) over the 2N lags
    y_m = (m - N) dx.  On the centred dual grid p_l = (l - N/2) dp of an even
    N, lags t dx and (t - N) dx share the phase (-1)^t exp(-2 pi i l t / N):
    the lower half of the table is added onto the upper half and column t
    multiplied by (-1)^t scale dx, both in place, and one FFT sums the N
    folded lags.  A ``hermitian`` operator has C(x, -y) = conj C(x, y), so its
    folded lags are a Hermitian sequence and its symbol is real: factors
    fold lags 0 .. N/2 only and take one ``hfft``; a kernel, Hermitian only
    to round-off, keeps the real part of the full FFT.  Either way the
    values are float64.
    """
    n = grid.n
    require_correlation_memory(n)
    p_grid = dual_grid(grid, eta)
    corr = half_step_correlation(source, grid)
    width = n // 2 + 1 if hermitian and isinstance(source, tuple) else n
    lags = corr[:, n : n + width]
    lags += corr[:, :width]
    sign = np.full(width, scale * grid.dx)
    sign[1::2] *= -1.0
    lags *= sign
    if width < n:
        values = np.fft.hfft(lags, n, axis=1)
    elif hermitian:
        values = np.ascontiguousarray(np.fft.fft(lags, axis=1, out=lags).real)
    else:
        values = np.fft.fft(lags, axis=1)
    return PhaseSpaceFunction(grid, p_grid, values, eta, kind=kind)


def density_symbol(
    rho: DensityMatrix, scale: float = 1.0, kind: str = "symbol"
) -> PhaseSpaceFunction:
    """``scale`` times the real Weyl symbol of a density matrix, from the
    factors :func:`states.mix` kept, else from its kernel."""
    source = rho.kernel if rho.factors is None else rho.factors
    return correlation_symbol(source, rho.grid, rho.eta, scale, kind, hermitian=True)


def weyl_symbol(op: OperatorMatrix) -> PhaseSpaceFunction:
    """Weyl symbol of an operator kernel (inverse of :func:`weyl_quantize`)."""
    return correlation_symbol(op.kernel, op.grid, op.eta)


def ambiguity(psi: GridFunction) -> PhaseSpaceFunction:
    """Ambiguity (auto-correlation) function of a state,

        Amb psi(x, p) = (2 pi eta)^-1 Int exp(-i p y/eta) psi(y + x/2) psi*(y - x/2) dy.

    Its x axis is the lag: columns N/2 .. 3N/2 of the half-step correlation
    of |psi><psi| hold the lags (j - N/2) dx, and the midpoints, which run
    over the state's grid, are summed against exp(-i p y / eta).
    """
    grid, eta = psi.grid, psi.eta
    n = grid.n
    require_correlation_memory(n)
    p_grid = dual_grid(grid, eta)
    corr = half_step_correlation((psi.values[:, None], psi.values[:, None]), grid)
    lags = corr[:, n // 2 : 3 * n // 2].T
    values = oscillatory_sum(lags, grid, p_grid, eta, -1, scale=grid.dx / (2.0 * np.pi * eta))
    return PhaseSpaceFunction(dual_grid(p_grid, eta), p_grid, values, eta, kind="ambiguity")


def twisted_product(a: PhaseSpaceFunction, b: PhaseSpaceFunction) -> PhaseSpaceFunction:
    """Symbol c with Op(c) = Op(a) Op(b), via quantize -> compose -> dequantize."""
    a.require_compatible(b)
    product = weyl_quantize(a).compose(weyl_quantize(b))
    return weyl_symbol(product)


def expectation(a: PhaseSpaceFunction, rho: DensityMatrix) -> float:
    """<A> = Int a(z) rho_W(z) dz of a real symbol ``a``, cross-checked against
    Tr(rho A) by callers."""
    values = a.real_values()
    rho_w = density_symbol(rho, 1.0 / (2.0 * np.pi * rho.eta)).values
    return float(np.sum(values * rho_w) * a.area_element)


def trace_from_symbol(a: PhaseSpaceFunction) -> dict:
    """Trace and squared Hilbert-Schmidt norm read off the symbol."""
    weight = a.area_element / (2.0 * np.pi * a.eta)
    return {
        "trace": complex(np.sum(a.values) * weight),
        "hs_norm_squared": float(np.sum(np.abs(a.values) ** 2) * weight),
        "leak": a.leak,
    }
